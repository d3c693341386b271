// Reproduces Fig. 8 / Section 3.2.5: the stall covert channel. Alice
// modulates her receiver readiness with a secret; Eve decodes it from her
// own completion rate. The baseline leaks ~1 bit per window; the protected
// design's meet-gated stall (plus overflow buffer) drives the mutual
// information to ~0. Sweeps the window length to show the channel capacity
// shape, and statically verifies the gated/ungated stall logic. The same
// experiment is then run one layer up, through the serving stack (Alice and
// Eve as EnginePool tenants whose blocks, or GCM ops, share the live pipe):
// Eve's per-op completion cycles must be bit-identical across Alice's
// secrets (`JSON` records `fig8_service`, one per traffic kind and window,
// MI gated at 0 in CI).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "ifc/checker.h"
#include "rtl/verif_models.h"
#include "soc/attacks.h"

namespace {

using namespace aesifc;
using soc::TimingChannelParams;

void printFig8() {
  std::printf("==============================================================\n");
  std::printf("Reproduction of Fig. 8 / Sec 3.2.5: stall covert channel\n");
  std::printf("==============================================================\n");
  std::printf(
      "%-10s %-10s %-12s %-10s %-12s %-12s %-12s\n", "design", "window",
      "MI(bits)", "accuracy", "eve lat avg", "eve lat sd", "stalls/denied");

  for (const unsigned window : {32u, 64u, 128u}) {
    for (const auto mode :
         {accel::SecurityMode::Baseline, accel::SecurityMode::Protected}) {
      TimingChannelParams p;
      p.window = window;
      p.secret_bits = 48;
      const auto r = soc::runTimingChannelAttack(mode, p);
      std::printf("%-10s %-10u %-12.3f %-10.2f %-12.1f %-12.2f %llu/%llu\n",
                  mode == accel::SecurityMode::Baseline ? "baseline"
                                                        : "protected",
                  window, r.mi_bits, r.accuracy, r.eve_latency.mean,
                  r.eve_latency.stddev,
                  static_cast<unsigned long long>(r.stalled_cycles),
                  static_cast<unsigned long long>(r.denied_stalls));
    }
  }

  std::printf(
      "\nThrough the serving stack (one pool shard; Alice's secret drives\n"
      "her fetch cadence, data, key and encrypt/decrypt mix — or, with\n"
      "AEAD traffic, her GCM plaintexts, AAD and tag validity):\n");
  std::printf("%-8s %-10s %-12s %-10s %-22s %-14s\n", "traffic", "window",
              "MI(bits)", "accuracy", "eve trace vs secret'", "volume control");
  for (const bool aead : {false, true}) {
    const auto attack = aead ? soc::runServiceAeadTimingChannelAttack
                             : soc::runServiceTimingChannelAttack;
    const char* traffic = aead ? "aead" : "blocks";
    for (const unsigned window : {64u, 128u}) {
      TimingChannelParams p;
      p.window = window;
      p.secret_bits = 48;
      const auto r = attack(p, false);
      p.seed = 2;
      const auto other = attack(p, false);
      const bool identical =
          r.eve_complete_cycles == other.eve_complete_cycles;
      const auto control = attack(p, /*modulate_volume=*/true);
      std::printf("%-8s %-10u %-12.3f %-10.2f %-22s MI %.3f\n", traffic,
                  window, r.mi_bits, r.accuracy,
                  identical ? "bit-identical" : "DIFFERS", control.mi_bits);
      std::printf(
          "JSON {\"bench\":\"fig8_service\",\"traffic\":\"%s\","
          "\"window\":%u,\"mi_bits\":%.4f,\"mi_bits_other_secret\":%.4f,"
          "\"eve_trace_mismatch\":%d,\"control_mi_bits\":%.4f}\n",
          traffic, window, r.mi_bits, other.mi_bits, identical ? 0 : 1,
          control.mi_bits);
    }
  }
  std::printf(
      "(The control modulates Alice's submit volume, public scheduling\n"
      "information the service does not hide, to show the decoder works.)\n");

  std::printf("\nStatic verification of the stall logic (Fig. 8):\n");
  const auto gated = ifc::check(rtl::buildStallPipeline(true));
  const auto ungated = ifc::check(rtl::buildStallPipeline(false));
  std::printf("  meet-gated stall:  %s\n",
              gated.ok() ? "verified clean" : "REJECTED (unexpected)");
  std::printf("  ungated stall:     %zu timing violation(s) flagged\n",
              ungated.count(ifc::ViolationKind::TimingViolation));
  std::printf("\n");
}

void BM_TimingAttackBaseline(benchmark::State& state) {
  TimingChannelParams p;
  p.secret_bits = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        soc::runTimingChannelAttack(accel::SecurityMode::Baseline, p));
  }
}
BENCHMARK(BM_TimingAttackBaseline)->Unit(benchmark::kMillisecond);

void BM_TimingAttackProtected(benchmark::State& state) {
  TimingChannelParams p;
  p.secret_bits = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        soc::runTimingChannelAttack(accel::SecurityMode::Protected, p));
  }
}
BENCHMARK(BM_TimingAttackProtected)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printFig8();
  // AESIFC_BENCH_SMOKE: CI mode — the table above already ran; skip the
  // Google Benchmark timing loops.
  const char* smoke = std::getenv("AESIFC_BENCH_SMOKE");
  if (smoke && *smoke && std::string{smoke} != "0") return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
