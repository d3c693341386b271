// The Fig. 2 scenario: multiple cloud tenants (say, SSL endpoints) share one
// AES accelerator. Demonstrates fine-grained sharing — blocks from all
// tenants interleaved in the pipeline at once, each carrying its own tag —
// versus coarse-grained sharing that drains the pipeline between users, and
// shows that the protected design costs no throughput.
//
// Build & run:  ./build/examples/multi_tenant_sharing

#include <algorithm>
#include <cstdio>
#include <vector>

#include "soc/pool.h"
#include "soc/service.h"
#include "soc/supervisor.h"
#include "soc/workload.h"

using namespace aesifc;
using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;

namespace {

soc::WorkloadResult run(SecurityMode mode, bool coarse, unsigned tenants) {
  AcceleratorConfig cfg;
  cfg.mode = mode;
  cfg.coarse_grained = coarse;
  AesAccelerator acc{cfg};
  const auto setup = soc::setupTenants(acc, tenants);
  soc::WorkloadConfig w;
  w.blocks_per_user = 384;
  return soc::runSharedWorkload(acc, setup, w);
}

// Act two: the same accelerator behind the multi-tenant service layer.
// A wedged device trips the circuit breaker into software fallback — but
// the fallback re-checks each tenant's label with the same declassification
// rule the tagged pipeline applies at its exit, so a tenant the hardware
// refuses stays refused in degraded mode.
void serviceDegradedModeDemo() {
  AcceleratorConfig cfg;
  cfg.mode = SecurityMode::Protected;
  cfg.out_buffer_depth = 16;
  AesAccelerator acc{cfg};
  acc.addUser(lattice::Principal::supervisor());

  soc::ServiceConfig scfg;
  scfg.health.window_cycles = 256;
  scfg.health.quarantine_residency_cycles = 512;
  scfg.health.recovery_windows = 1;
  scfg.healthy_timeout_cycles = 200;
  soc::AccelService svc{acc, scfg};

  const unsigned alice = acc.addUser(lattice::Principal::user("alice", 1));
  soc::TenantSpec a;
  a.user = alice;
  a.key_slot = 1;
  a.cell_base = 0;
  a.key.assign(16, 0x51);
  a.key_conf = lattice::Conf::category(1);
  const unsigned ta = svc.addTenant(a);

  // Eve's key is provisioned at top confidentiality (the master-key pattern
  // of Section 3.2.2): the pipeline exit suppresses every release to her.
  const unsigned eve = acc.addUser(lattice::Principal::user("eve", 9));
  soc::TenantSpec e;
  e.user = eve;
  e.key_slot = 2;
  e.cell_base = 2;
  e.key.assign(16, 0xE5);
  e.key_conf = lattice::Conf::top();
  const unsigned te = svc.addTenant(e);

  auto block = [](std::uint8_t seed) {
    aes::Block b{};
    for (unsigned i = 0; i < 16; ++i)
      b[i] = static_cast<std::uint8_t>(seed + i);
    return b;
  };
  auto lastVerdict = [&](unsigned tenant) {
    std::string v = "(none)";
    while (auto c = svc.fetch(tenant))
      v = toString(c->status) + " via " + toString(c->served_by);
    return v;
  };

  std::printf("\n--- Act 2: service layer, breaker trip, label-safe "
              "fallback ---\n");
  std::printf("%-22s %-12s %-28s %-28s\n", "scene", "health", "alice",
              "eve (ck=top)");

  // Healthy hardware: alice's block releases, eve's is suppressed at the
  // tagged pipeline's exit.
  svc.submit(ta, block(0x10));
  svc.submit(te, block(0x20));
  svc.runUntilIdle(1u << 14);
  std::printf("%-22s %-12s %-28s %-28s\n", "healthy hardware",
              toString(svc.health()).c_str(), lastVerdict(ta).c_str(),
              lastVerdict(te).c_str());

  // Wedge both receivers: every hardware serve times out until the error
  // budget trips the breaker.
  acc.setReceiverReady(alice, false);
  acc.setReceiverReady(eve, false);
  std::uint8_t seed = 0x30;
  for (unsigned guard = 0;
       svc.health() != soc::HealthState::Quarantined && guard < 600; ++guard) {
    if (svc.queued(ta) < 4) svc.submit(ta, block(seed++));
    svc.pump();
  }
  std::printf("%-22s %-12s %-28s %-28s\n", "wedged device",
              toString(svc.health()).c_str(), lastVerdict(ta).c_str(),
              lastVerdict(te).c_str());

  // Quarantined: the software fallback carries alice's traffic — and
  // refuses eve's with the very same declassification verdict.
  svc.submit(ta, block(0x40));
  svc.submit(te, block(0x41));
  for (unsigned guard = 0; svc.totalQueued() > 0 && guard < 200; ++guard)
    svc.pump();
  std::printf("%-22s %-12s %-28s %-28s\n", "software fallback",
              toString(svc.health()).c_str(), lastVerdict(ta).c_str(),
              lastVerdict(te).c_str());

  // Receivers return; probation canaries re-admit the hardware.
  acc.setReceiverReady(alice, true);
  acc.setReceiverReady(eve, true);
  for (unsigned guard = 0;
       svc.health() != soc::HealthState::Healthy && guard < 2000; ++guard)
    svc.pump();
  svc.submit(ta, block(0x50));
  svc.runUntilIdle(1u << 14);
  std::printf("%-22s %-12s %-28s %-28s\n", "after canary probes",
              toString(svc.health()).c_str(), lastVerdict(ta).c_str(),
              lastVerdict(te).c_str());

  const auto& st = svc.stats();
  std::printf(
      "\nService counters: hw=%llu fallback=%llu fallback-suppressed=%llu\n"
      "canary-rounds=%llu reprovisions=%llu\n"
      "Degraded mode is not a policy downgrade: the fallback refused eve\n"
      "exactly where the tagged pipeline did.\n",
      static_cast<unsigned long long>(st.completed_hw),
      static_cast<unsigned long long>(st.completed_fallback),
      static_cast<unsigned long long>(st.fallback_suppressed),
      static_cast<unsigned long long>(st.canary_rounds),
      static_cast<unsigned long long>(st.key_reprovisions));
}

// Act three: an elastic three-shard pool loses a shard mid-traffic. The
// supervisor evacuates its tenants — each move the full audited handshake
// (key re-provisioned at the target BEFORE the source slot is zeroized) —
// and traffic keeps flowing. The merged security-event timeline from both
// involved shards' rings narrates the incident end to end.
void elasticPoolQuarantineDemo() {
  soc::PoolConfig pcfg;
  pcfg.shards = 3;
  pcfg.service.quota_per_round = 8;
  pcfg.service.health.quarantine_residency_cycles = 1u << 20;
  soc::EnginePool pool{pcfg};
  soc::PoolSupervisor sup{pool, soc::SupervisorConfig{}};

  std::vector<unsigned> ids;
  for (unsigned t = 0; t < 6; ++t) {
    soc::PoolTenantSpec spec;
    spec.name = "endpoint-" + std::to_string(t);
    spec.category = t + 1;
    spec.key.assign(16, static_cast<std::uint8_t>(0x60 + t));
    const auto placed = pool.addTenant(spec);
    if (!placed.placed) return;
    ids.push_back(placed.tenant);
  }

  auto burst = [&](unsigned blocks) {
    for (unsigned i = 0; i < blocks; ++i) {
      for (unsigned id : ids) {
        aes::Block b{};
        for (unsigned j = 0; j < 16; ++j)
          b[j] = static_cast<std::uint8_t>(id + i + j);
        (void)pool.submit(id, b);
      }
    }
    for (unsigned p = 0; p < 8; ++p) pool.pump();
  };

  std::printf("\n--- Act 3: elastic pool, shard quarantine, audited "
              "evacuation ---\n");
  const unsigned sick = pool.shardOf(ids[0]);
  std::printf("6 tenants on 3 share-nothing shards; shard %u hosts %zu of "
              "them.\n", sick, pool.tenantsOnShard(sick).size());

  burst(8);  // healthy traffic, queues warm
  std::printf("shard %u suffers an incident mid-traffic -> forced "
              "quarantine\n", sick);
  pool.shardService(sick).forceQuarantine("ecc storm on key RAM");
  const auto rep = sup.poll();  // supervisor evacuates
  burst(8);                     // traffic continues through the move
  pool.runUntilIdle(1u << 18);

  std::printf("supervisor evacuated %u tenant(s); shard %u now hosts %zu; "
              "wrong_key_uses=%llu\n",
              rep.evacuated, sick, pool.tenantsOnShard(sick).size(),
              static_cast<unsigned long long>(
                  pool.aggregateStats().wrong_key_uses));

  // Merge every shard's event ring into one audit trail. Cycle stamps are
  // shard-local (share-nothing shards run independent clocks), so order by
  // shard then cycle: each ring reads chronologically, and every migration
  // shows its Begun -> KeyZeroized -> Committed triple in BOTH rings.
  struct Line {
    unsigned shard;
    std::uint64_t cycle;
    std::string text;
  };
  std::vector<Line> timeline;
  for (unsigned s = 0; s < pool.shards(); ++s) {
    for (const auto& e : pool.shardEngine(s).events()) {
      if (e.kind == accel::SecurityEventKind::MigrationBegun ||
          e.kind == accel::SecurityEventKind::MigrationKeyZeroized ||
          e.kind == accel::SecurityEventKind::MigrationCommitted ||
          e.kind == accel::SecurityEventKind::ServiceHealth) {
        timeline.push_back({s, e.cycle, toString(e.kind) + ": " + e.detail});
      }
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Line& a, const Line& b) {
                     return a.shard != b.shard ? a.shard < b.shard
                                               : a.cycle < b.cycle;
                   });
  std::printf("\nmerged audit trail (cycles are shard-local):\n");
  for (const auto& l : timeline) {
    std::printf("  [shard %u @ cycle %6llu] %s\n", l.shard,
                static_cast<unsigned long long>(l.cycle), l.text.c_str());
  }
  std::printf(
      "\nThe key never had a keyless (or double-keyed) window: each tenant's\n"
      "key was live at the target before the source slot was zeroized, and\n"
      "the paired events above put the proof in both shards' rings.\n");
}

}  // namespace

int main() {
  std::printf("Four tenants stream AES-128 traffic through one accelerator.\n");
  std::printf("Every result is checked against the software golden model.\n\n");
  std::printf("%-11s %-9s %-11s %-12s %-10s %-10s %-9s\n", "design",
              "sharing", "blocks", "cycles", "blk/cyc", "Gbps@400", "correct");

  struct Row {
    SecurityMode mode;
    bool coarse;
  };
  for (const auto& row : {Row{SecurityMode::Baseline, false},
                          Row{SecurityMode::Protected, false},
                          Row{SecurityMode::Baseline, true},
                          Row{SecurityMode::Protected, true}}) {
    const auto r = run(row.mode, row.coarse, 4);
    std::printf("%-11s %-9s %-11llu %-12llu %-10.3f %-10.1f %-9s\n",
                row.mode == SecurityMode::Baseline ? "baseline" : "protected",
                row.coarse ? "coarse" : "fine",
                static_cast<unsigned long long>(r.blocks_completed),
                static_cast<unsigned long long>(r.cycles), r.blocks_per_cycle,
                r.blocks_per_cycle * 128.0 * 400e6 / 1e9,
                r.all_correct ? "yes" : "NO");
  }

  std::printf(
      "\nTakeaways (matching the paper):\n"
      " * fine-grained sharing keeps the 30-stage pipeline full: ~1\n"
      "   block/cycle = ~51.2 Gbps at the prototype's 400 MHz;\n"
      " * coarse-grained sharing pays a full pipeline drain per user switch;\n"
      " * the protected design's tags and checkers cost no cycles.\n");

  serviceDegradedModeDemo();
  elasticPoolQuarantineDemo();
  return 0;
}
