// perfbench: the repository benchmark. Runs one workload through the
// serving stack for a fixed host time, checks every output against the
// aes:: golden model, and prints a human report followed by one JSON line
// (the last line of stdout).
//
//   perfbench --workload small_blocks|bulk_ring|aead_records --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// A run is a sequence of rounds. Each round builds the stack afresh
// (timed as set-up), runs the workload's whole op script in a closed loop
// (timed), then checks the outputs (untimed). The script depends only on
// the seed, so every round of a run simulates exactly the same thing:
// device-cycle metrics come from the rounds, which must agree bit for bit,
// and host metrics are medians over rounds.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, runs the layer ladder, and prints the per-layer
// metrics. Exit status is non-zero on any wrong output, any verdict that
// cannot be matched to an op, or rounds that disagree.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

// `note` is the clock of an end-to-end metric, and for a per-layer metric
// the end-to-end metric (and workload) it is expected to move.
struct Metric {
  const char* name;
  const char* unit;
  const char* note;
};

// Keep in step with BENCHMARK.json (tests/test_perfbench.py checks it).
constexpr Metric kEndToEnd[] = {
    {"ok_blocks_per_device_cycle", "blocks/cycle", "device"},
    {"latency_p50_cycles", "cycles", "device"},
    {"latency_p99_cycles", "cycles", "device"},
    {"ok_ops_share", "share", "device"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
};

constexpr Metric kPerLayer[] = {
    {"pool.submit_host_ns_p50", "ns",
     "sim.ok_blocks_per_host_s on small_blocks"},
    {"pool.pump_host_ns_p50", "ns", "sim.ok_blocks_per_host_s on small_blocks"},
    {"pool.pump_host_ns_p99", "ns", "sim.ok_blocks_per_host_s on small_blocks"},
    {"pool.fetch_host_ns_p50", "ns",
     "sim.ok_blocks_per_host_s on small_blocks"},
    {"pool.resolved_per_pump", "ops",
     "ok_blocks_per_device_cycle, failed_ops_share on pool workloads"},
    {"pool.empty_pump_share", "share",
     "ok_blocks_per_device_cycle, failed_ops_share on pool workloads"},
    {"pool.admit_refusals", "count",
     "ok_blocks_per_device_cycle, failed_ops_share on pool workloads"},
    {"pool.shard_cycle_skew", "ratio",
     "ok_blocks_per_device_cycle on small_blocks"},
    {"ring.submit_host_ns_p50", "ns", "sim.ok_blocks_per_host_s on bulk_ring"},
    {"ring.tick_host_ns_p50", "ns", "sim.ok_blocks_per_host_s on bulk_ring"},
    {"ring.backpressure_refusals", "count",
     "sim.ok_blocks_per_host_s on bulk_ring"},
    {"ring.exec_cycles_p50", "cycles",
     "ok_blocks_per_device_cycle, latency_p50_cycles on bulk_ring"},
    {"ring.nonexec_cycles_per_descriptor", "cycles",
     "ok_blocks_per_device_cycle, latency_p50_cycles on bulk_ring"},
    {"gcm.latency_cycles_p50.64B", "cycles",
     "latency_p50_cycles, ok_blocks_per_device_cycle on aead_records"},
    {"gcm.latency_cycles_p50.1KiB", "cycles",
     "latency_p50_cycles, ok_blocks_per_device_cycle on aead_records"},
    {"gcm.latency_cycles_p50.16KiB", "cycles",
     "latency_p50_cycles, ok_blocks_per_device_cycle on aead_records"},
    {"gcm.submit_host_ns_p50", "ns",
     "sim.ok_blocks_per_host_s on aead_records"},
    {"gcm.auth_failed_verdicts", "count",
     "failed_ops_share on aead_records (must equal tampered opens)"},
    {"sim.ok_blocks_per_host_s", "blocks/s",
     "simulator speed: Ok blocks per host second, median of rounds"},
    {"sim.host_ns_per_device_cycle", "ns",
     "sim.ok_blocks_per_host_s on every workload"},
    {"pipe.ok_blocks_per_device_cycle", "blocks/cycle",
     "ok_blocks_per_device_cycle on small_blocks (ladder gap)"},
    {"pipe.host_ns_per_block", "ns",
     "sim.ok_blocks_per_host_s on small_blocks (ladder gap)"},
    {"pipe.ref_gap_blocks_per_cycle", "blocks/cycle",
     "distance from the paper's 1 block/cycle"},
    {"pipe.latency_cycles_p50", "cycles",
     "distance from the paper's 30-cycle latency"},
    {"session.ok_blocks_per_device_cycle", "blocks/cycle",
     "ok_blocks_per_device_cycle on small_blocks (ladder gap)"},
    {"session.host_ns_per_block", "ns",
     "sim.ok_blocks_per_host_s on small_blocks (ladder gap)"},
    {"service.ok_blocks_per_device_cycle", "blocks/cycle",
     "ok_blocks_per_device_cycle on small_blocks (ladder gap)"},
    {"service.host_ns_per_block", "ns",
     "sim.ok_blocks_per_host_s on small_blocks (ladder gap)"},
    {"pool.ok_blocks_per_shard_cycle", "blocks/cycle",
     "ok_blocks_per_device_cycle on small_blocks (ladder gap)"},
    {"pool.host_ns_per_block", "ns",
     "sim.ok_blocks_per_host_s on small_blocks (ladder gap)"},
    {"self_ns_per_op.bench", "ns",
     "sim.ok_blocks_per_host_s on every workload"},
    {"self_ns_per_op.pool", "ns", "sim.ok_blocks_per_host_s on every workload"},
    {"self_ns_per_op.gcm", "ns", "sim.ok_blocks_per_host_s on every workload"},
    {"self_ns_per_op.ring", "ns", "sim.ok_blocks_per_host_s on every workload"},
    {"trace.overhead_share", "share", "cost of tracing, not of the system"},
};

// Paper Section 4: one block per cycle per pipe, 30-cycle AES-128 latency.
constexpr double kPaperBlocksPerCycle = 1.0;
constexpr double kPaperLatencyCycles = 30.0;

constexpr unsigned kMinRounds = 3;
constexpr std::size_t kSetupSamples = 64;
// Traced rounds stop adding once this many spans are held (32 B each in
// memory, about 125 B each in the written file). One bulk_ring round
// alone is about 600k spans, so that workload traces a single round.
constexpr std::size_t kMaxSpans = 1u << 19;
constexpr unsigned kLadderRuns = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "small_blocks|bulk_ring|aead_records --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "small_blocks" && a.workload != "bulk_ring" &&
      a.workload != "aead_records")
    usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");
  return a;
}

// Peak resident set of this program image. VmHWM, not getrusage: after
// exec, ru_maxrss still covers the parent process image that forked us.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& order,
               const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto it = values.find(order[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", order[i].name,
                finite(it == values.end() ? 0.0 : it->second), order[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  std::function<RoundResult(Tracer*)> round;
  std::function<double()> setup_once;
  SmallInputs small;
  RingInputs ring;
  AeadInputs aead;
  if (a.workload == "small_blocks") {
    small = makeSmallInputs(a.seed);
    round = [&](Tracer* tr) { return runSmallBlocks(small, tr); };
    setup_once = [&] { return setupSmallBlocks(small); };
  } else if (a.workload == "bulk_ring") {
    ring = makeRingInputs(a.seed);
    round = [&](Tracer* tr) { return runBulkRing(ring, tr); };
    setup_once = [&] { return setupBulkRing(ring); };
  } else {
    aead = makeAeadInputs(a.seed);
    round = [&](Tracer* tr) { return runAeadRecords(aead, tr); };
    setup_once = [&] { return setupAeadRecords(aead); };
  }

  const auto t_start = Clock::now();
  std::vector<RoundResult> plain, traced;
  Tracer tracer;
  // Traced rounds alternate with plain ones so host drift hits both.
  const double budget = a.trace ? 0.6 * a.seconds : a.seconds;
  // Later rounds keep only what is compared or aggregated, so memory does
  // not grow with the number of rounds the host speed allows.
  auto keep = [](std::vector<RoundResult>& set, RoundResult r) {
    if (!set.empty()) std::vector<std::uint64_t>().swap(r.ok_latency);
    set.push_back(std::move(r));
  };
  while (plain.size() < kMinRounds || secondsSince(t_start) < budget) {
    keep(plain, round(nullptr));
    if (a.trace && (traced.empty() || tracer.size() < kMaxSpans))
      keep(traced, round(&tracer));
  }

  // Every round simulated the same script: device results must agree.
  const RoundResult& r0 = plain.front();
  bool rounds_agree = true;
  std::uint64_t attempted = 0, failed = 0, wrong = 0, conservation = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const RoundResult& r : *set) {
      rounds_agree &= r.fingerprint == r0.fingerprint;
      attempted += r.attempted;
      failed += r.failed;
      wrong += r.wrong;
      conservation += r.conservation_errors;
    }
  }

  std::vector<double> host_rate, setup, sim_ns;
  for (const RoundResult& r : plain) {
    host_rate.push_back(static_cast<double>(r.ok_blocks) / r.timed_s);
    sim_ns.push_back(r.timed_s * 1e9 / static_cast<double>(r.shard_cycles_sum));
  }
  // Set-up takes well under a millisecond: a fixed number of stand-alone
  // set-ups, so the sample does not depend on how many rounds fit.
  for (std::size_t i = 0; i < kSetupSamples; ++i) setup.push_back(setup_once());

  std::map<std::string, double> e2e;
  e2e["ok_blocks_per_device_cycle"] =
      static_cast<double>(r0.ok_blocks) / static_cast<double>(r0.device_cycles);
  e2e["latency_p50_cycles"] = percentileU(r0.ok_latency, 0.50);
  e2e["latency_p99_cycles"] = percentileU(r0.ok_latency, 0.99);
  const double failed_share =
      static_cast<double>(r0.failed) / static_cast<double>(r0.attempted);
  e2e["ok_ops_share"] = 1.0 - failed_share;
  e2e["setup_s"] = median(setup);
  e2e["peak_rss_mb"] = peakRssMb();

  std::printf("perfbench workload=%s seed=%llu trace=%d rounds=%zu+%zu "
              "(untraced+traced) wall=%.2fs\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, plain.size(), traced.size(),
              secondsSince(t_start));
  std::printf("end-to-end (untraced rounds; device = simulated cycles, "
              "host = steady_clock on this machine):\n");
  for (const Metric& m : kEndToEnd)
    std::printf("  %-28s %14.6f %-12s [%s]\n", m.name, e2e[m.name], m.unit,
                m.note);
  std::printf("  %-28s %14.6f %-12s [device]\n", "failed_ops_share",
              failed_share, "share");
  // Simulator speed. Reported here but bounded nowhere: on a shared host
  // it moves by more than any regression bound between identical runs.
  std::printf("  %-28s %14.1f %-12s [host]\n", "ok_blocks_per_host_s",
              median(host_rate), "blocks/s");
  std::printf("  latency samples (Ok ops per round): %zu; ops per round: "
              "%llu; failed per round: %llu; unresolved_ops per round: %llu\n",
              r0.ok_latency.size(),
              static_cast<unsigned long long>(r0.attempted),
              static_cast<unsigned long long>(r0.failed),
              static_cast<unsigned long long>(r0.unresolved));
  std::printf("  host rate over rounds: q1 %.1f median %.1f q3 %.1f max %.1f "
              "blocks/s; setup q1 %.3g median %.3g q3 %.3g s\n",
              percentile(host_rate, 0.25), median(host_rate),
              percentile(host_rate, 0.75), percentile(host_rate, 1.0),
              percentile(setup, 0.25), median(setup), percentile(setup, 0.75));
  std::printf("  device_fingerprint %016llx (%s across %zu rounds)\n",
              static_cast<unsigned long long>(r0.fingerprint),
              rounds_agree ? "identical" : "DIFFERS",
              plain.size() + traced.size());
  std::printf("  oracle: wrong outputs %llu, unmatched verdicts %llu\n",
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(conservation));

  bool correct = wrong == 0 && conservation == 0 && rounds_agree;
  if (!a.trace) {
    std::vector<Metric> order(std::begin(kEndToEnd), std::end(kEndToEnd));
    std::fflush(stdout);
    printJson(correct, attempted, failed, order, e2e);
    return correct ? 0 : 1;
  }

  // --- Per-layer metrics (traced run) ---------------------------------------
  std::map<std::string, double> pl;
  for (const auto& [k, v] : r0.layer) pl[k] = v;
  pl["sim.ok_blocks_per_host_s"] = median(host_rate);
  pl["sim.host_ns_per_device_cycle"] = median(sim_ns);
  pl["pool.submit_host_ns_p50"] =
      percentile(tracer.durations(SpanName::PoolSubmit), 0.5);
  const auto pump = tracer.durations(SpanName::PoolPump);
  pl["pool.pump_host_ns_p50"] = percentile(pump, 0.5);
  pl["pool.pump_host_ns_p99"] = percentile(pump, 0.99);
  pl["pool.fetch_host_ns_p50"] =
      percentile(tracer.durations(SpanName::PoolFetch), 0.5);
  pl["ring.submit_host_ns_p50"] =
      percentile(tracer.durations(SpanName::RingSubmit), 0.5);
  pl["ring.tick_host_ns_p50"] =
      percentile(tracer.durations(SpanName::RingTick), 0.5);
  pl["gcm.submit_host_ns_p50"] =
      percentile(tracer.durations(SpanName::GcmSubmit), 0.5);
  std::uint64_t traced_ops = 0;
  for (const RoundResult& r : traced) traced_ops += r.attempted;
  const auto self = tracer.selfNsByLayer();
  for (const char* layer : {"bench", "pool", "gcm", "ring"}) {
    const auto it = self.find(layer);
    pl[std::string{"self_ns_per_op."} + layer] =
        it == self.end() ? 0.0 : it->second / static_cast<double>(traced_ops);
  }
  std::vector<double> traced_rate;
  for (const RoundResult& r : traced)
    traced_rate.push_back(static_cast<double>(r.ok_blocks) / r.timed_s);
  pl["trace.overhead_share"] = 1.0 - median(traced_rate) / median(host_rate);

  // The ladder runs kLadderRuns times; device figures must repeat and each
  // rung's host time is the median (the first pass also warms caches).
  const SmallInputs ladder_in = makeSmallInputs(a.seed);
  std::vector<Rung> ladder = runLadder(ladder_in);
  std::vector<std::vector<double>> rung_host(ladder.size());
  for (unsigned k = 0; k < kLadderRuns; ++k) {
    const std::vector<Rung> again = k ? runLadder(ladder_in) : ladder;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      rung_host[i].push_back(again[i].host_s);
      correct &= again[i].wrong == 0 &&
                 again[i].device_cycles == ladder[i].device_cycles &&
                 again[i].ok_blocks == ladder[i].ok_blocks;
    }
  }
  for (std::size_t i = 0; i < ladder.size(); ++i)
    ladder[i].host_s = median(rung_host[i]);
  for (const Rung& g : ladder) {
    const std::string key = g.name == "pool"
                                ? "pool.ok_blocks_per_shard_cycle"
                                : g.name + ".ok_blocks_per_device_cycle";
    pl[key] = g.blocksPerCycle();
    pl[g.name + ".host_ns_per_block"] = g.hostNsPerBlock();
    failed += g.failed;
    attempted += g.ok_blocks + g.failed;
  }
  const Rung& pipe = ladder.front();
  pl["pipe.ref_gap_blocks_per_cycle"] =
      kPaperBlocksPerCycle - pipe.blocksPerCycle();
  pl["pipe.latency_cycles_p50"] = pipe.pipe_latency_p50;

  std::printf("per-layer (traced rounds: %zu, %zu spans; counts and device "
              "cycles from round 0):\n",
              traced.size(), tracer.size());
  for (const Metric& m : kPerLayer) {
    const std::string unit = m.unit;
    const char* clock = unit == "ns" || unit == "blocks/s" ? "host"
                        : unit.find("cycle") != std::string::npos ? "device"
                                                                  : "-";
    std::printf("  %-38s %14.4f %-12s [%-6s] -> %s\n", m.name,
                finite(pl[m.name]), m.unit, clock, m.note);
  }
  std::printf("layer ladder (small_blocks streams, one engine, each rung "
              "alone):\n");
  std::printf("  %-8s %14s %14s %10s %8s %8s %12s\n", "rung", "blocks/cycle",
              "host ns/block", "blocks", "wrong", "failed", "gap to below");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const Rung& g = ladder[i];
    const double gap =
        i ? ladder[i - 1].blocksPerCycle() - g.blocksPerCycle() : 0;
    std::printf("  %-8s %14.6f %14.1f %10llu %8llu %8llu %12.6f\n",
                g.name.c_str(), g.blocksPerCycle(), g.hostNsPerBlock(),
                static_cast<unsigned long long>(g.ok_blocks),
                static_cast<unsigned long long>(g.wrong),
                static_cast<unsigned long long>(g.failed), gap);
  }
  std::printf("  reference (paper Sec. 4): %.0f block/cycle, %.0f-cycle "
              "latency; pipe rung is %.4f blocks/cycle (gap %.4f) at p50 "
              "latency %.1f cycles (gap %+.1f). bench_throughput's fine-grain "
              "row reads 0.986. No other figure is validated against "
              "hardware.\n",
              kPaperBlocksPerCycle, kPaperLatencyCycles, pipe.blocksPerCycle(),
              kPaperBlocksPerCycle - pipe.blocksPerCycle(),
              pipe.pipe_latency_p50,
              pipe.pipe_latency_p50 - kPaperLatencyCycles);
  std::printf("  self time by layer (ns per traced op):");
  for (const char* layer : {"bench", "pool", "gcm", "ring"})
    std::printf(" %s=%.1f", layer, pl[std::string{"self_ns_per_op."} + layer]);
  std::printf("\n");

  if (!a.trace_out.empty()) {
    if (tracer.write(a.trace_out)) {
      std::printf("  spans written to %s\n", a.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
    }
  }

  std::vector<Metric> order(std::begin(kPerLayer), std::end(kPerLayer));
  std::fflush(stdout);
  printJson(correct, attempted, failed, order, pl);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
