// Service-overload bench: the multi-tenant front end under three regimes —
// a healthy device, admission-control overload (queues past the watermark),
// and a fault storm that trips the circuit breaker into software fallback.
// Reports per-phase throughput, tenant fairness (min/max completed), and
// the admission/shedding counters, as one JSON record per phase.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "soc/fault_injector.h"
#include "soc/service.h"

namespace {

using namespace aesifc;
using accel::AcceleratorConfig;
using accel::AesAccelerator;
using lattice::Conf;
using lattice::Principal;
using soc::AccelService;
using soc::FaultCampaignConfig;
using soc::FaultInjector;
using soc::HealthState;
using soc::ServiceConfig;
using soc::TenantSpec;

constexpr unsigned kTenants = 4;

struct Harness {
  AesAccelerator acc;
  ServiceConfig cfg;
  AccelService svc;
  std::vector<unsigned> users;
  Rng traffic{42};

  Harness()
      : acc{[] {
          AcceleratorConfig a;
          a.out_buffer_depth = 16;
          a.event_log_cap = 512;
          return a;
        }()},
        cfg{[] {
          ServiceConfig c;
          c.global_high_watermark = 48;
          c.quota_per_round = 2;
          c.max_requeues = 2;
          c.health.window_cycles = 512;
          c.health.quarantine_threshold = 0.40;
          c.health.recovery_windows = 1;
          c.health.quarantine_residency_cycles = 1024;
          c.healthy_timeout_cycles = 400;
          return c;
        }()},
        svc{acc, cfg} {
    acc.addUser(Principal::supervisor());
    for (unsigned t = 0; t < kTenants; ++t) {
      const unsigned u =
          acc.addUser(Principal::user("t" + std::to_string(t), t + 1));
      users.push_back(u);
      TenantSpec spec;
      spec.user = u;
      spec.key_slot = t + 1;
      spec.cell_base = 2 * t;
      spec.key.resize(16);
      for (unsigned i = 0; i < 16; ++i)
        spec.key[i] = static_cast<std::uint8_t>(0x40 + 29 * t + i);
      spec.key_conf = Conf::category(t + 1);
      spec.queue_depth = 6;
      svc.addTenant(spec);
    }
  }

  void offer() {
    for (unsigned t = 0; t < kTenants; ++t) {
      if (svc.queued(t) >= 5) continue;
      aes::Block pt;
      const auto bits = traffic.bits(128).toBytes();
      for (unsigned i = 0; i < 16; ++i) pt[i] = bits[i];
      (void)svc.submit(t, pt);
    }
  }

  // Drive `rounds` pump rounds; returns blocks resolved.
  std::uint64_t drive(unsigned rounds) {
    std::uint64_t resolved = 0;
    for (unsigned r = 0; r < rounds; ++r) {
      offer();
      resolved += svc.pump();
      for (unsigned t = 0; t < kTenants; ++t)
        while (svc.fetch(t)) {
        }
    }
    return resolved;
  }
};

struct PhaseRow {
  const char* phase;
  std::uint64_t resolved;
  std::uint64_t cycles;
  std::uint64_t min_ok;
  std::uint64_t max_ok;
  std::string health;
};

void printPhase(const PhaseRow& r, const AccelService& svc) {
  const double bpc =
      r.cycles ? static_cast<double>(r.resolved) / r.cycles : 0.0;
  std::printf("%-10s %-9llu %-9llu %-8.4f %-7llu %-7llu %-12s\n", r.phase,
              static_cast<unsigned long long>(r.resolved),
              static_cast<unsigned long long>(r.cycles), bpc,
              static_cast<unsigned long long>(r.min_ok),
              static_cast<unsigned long long>(r.max_ok), r.health.c_str());
  std::printf(
      "JSON {\"bench\":\"service_overload\",\"phase\":\"%s\","
      "\"resolved\":%llu,\"cycles\":%llu,\"blocks_per_cycle\":%.4f,"
      "\"min_tenant_ok\":%llu,\"max_tenant_ok\":%llu,\"health\":\"%s\","
      "\"service\":%s}\n",
      r.phase, static_cast<unsigned long long>(r.resolved),
      static_cast<unsigned long long>(r.cycles), bpc,
      static_cast<unsigned long long>(r.min_ok),
      static_cast<unsigned long long>(r.max_ok), r.health.c_str(),
      svc.stats().toJson().c_str());
}

void printOverloadStudy() {
  std::printf("==============================================================\n");
  std::printf("Multi-tenant service: overload, breaker trip, recovery\n");
  std::printf("==============================================================\n");
  std::printf("%-10s %-9s %-9s %-8s %-7s %-7s %-12s\n", "phase", "resolved",
              "cycles", "blk/cyc", "min-ok", "max-ok", "health");

  Harness h;
  auto minmax = [&] {
    std::uint64_t lo = h.svc.completedOf(0), hi = lo;
    for (unsigned t = 0; t < kTenants; ++t) {
      lo = std::min(lo, h.svc.completedOf(t));
      hi = std::max(hi, h.svc.completedOf(t));
    }
    return std::pair{lo, hi};
  };

  // Phase 1: healthy hardware under steady overload.
  std::uint64_t c0 = h.acc.cycle();
  std::uint64_t resolved = h.drive(400);
  auto [lo1, hi1] = minmax();
  printPhase({"healthy", resolved, h.acc.cycle() - c0, lo1, hi1,
              toString(h.svc.health())},
             h.svc);

  // Phase 2: fault storm until the breaker trips, then quarantined service
  // on the software fallback.
  FaultCampaignConfig storm_cfg;
  storm_cfg.seed = 777;
  storm_cfg.fault_rate = 0.10;
  storm_cfg.stuck_cycles = 1500;
  FaultInjector storm{h.acc, storm_cfg, h.users};
  h.acc.setTickHook([&] { storm.tick(); });
  c0 = h.acc.cycle();
  resolved = 0;
  unsigned guard = 0;
  while (h.svc.health() != HealthState::Quarantined && guard++ < 3000)
    resolved += h.drive(1);
  auto [lo2, hi2] = minmax();
  printPhase({"storm", resolved, h.acc.cycle() - c0, lo2, hi2,
              toString(h.svc.health())},
             h.svc);

  // Phase 3: storm ends; fallback carries traffic through quarantine until
  // probation canaries re-admit the hardware.
  h.acc.setTickHook(nullptr);
  storm.releaseStuckReceivers();
  c0 = h.acc.cycle();
  resolved = 0;
  guard = 0;
  while (h.svc.health() != HealthState::Healthy && guard++ < 4000)
    resolved += h.drive(1);
  resolved += h.drive(200);  // recovered hardware back at full service
  auto [lo3, hi3] = minmax();
  printPhase({"recovery", resolved, h.acc.cycle() - c0, lo3, hi3,
              toString(h.svc.health())},
             h.svc);

  std::printf(
      "\nAdmission control keeps every tenant inside its queue budget, the\n"
      "breaker converts a wedged device into fallback service instead of\n"
      "timeouts, and probation canaries restore hardware throughput.\n\n");
}

void BM_ServicePumpHealthy(benchmark::State& state) {
  Harness h;
  for (auto _ : state) {
    h.offer();
    benchmark::DoNotOptimize(h.svc.pump());
    for (unsigned t = 0; t < kTenants; ++t)
      while (h.svc.fetch(t)) {
      }
  }
}
BENCHMARK(BM_ServicePumpHealthy)->Unit(benchmark::kMicrosecond);

void BM_ServicePumpQuarantined(benchmark::State& state) {
  Harness h;
  // Trip the breaker once, then measure fallback-path pumping.
  for (unsigned t = 0; t < kTenants; ++t) h.acc.setReceiverReady(h.users[t], false);
  unsigned guard = 0;
  while (h.svc.health() != HealthState::Quarantined && guard++ < 3000)
    h.drive(1);
  for (auto _ : state) {
    h.offer();
    benchmark::DoNotOptimize(h.svc.pump());
    for (unsigned t = 0; t < kTenants; ++t)
      while (h.svc.fetch(t)) {
      }
  }
}
BENCHMARK(BM_ServicePumpQuarantined)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printOverloadStudy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
