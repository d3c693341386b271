#pragma once
// Shared pieces of the benchmark: clocks, percentiles, the device
// fingerprint digest, the per-round result every workload returns, and
// the workload entry points.
//
// Two clocks appear everywhere and are never mixed:
//   * device cycles — simulated time, read from the engines' cycle
//     counters; identical for a given seed on any host;
//   * host nanoseconds — std::chrono::steady_clock around calls into the
//     simulator; this is simulator speed on the host running it.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aes/block.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double percentileU(const std::vector<std::uint64_t>& v, double q);
double median(const std::vector<double>& v);

// FNV-1a 64 over everything the device decided: verdicts, outputs,
// completion cycles and the device-cycle metrics. Two runs with one seed
// must print the same digest; a simulator-only change must not move it.
class Fingerprint {
 public:
  void bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void block(const aesifc::aes::Block& b) { bytes(b.data(), b.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Verdict code recorded for an op that never got one.
inline constexpr int kUnresolved = -1;
// Verdict code recorded for an op the layer refused at admission.
inline constexpr int kRefused = -2;

// One measured round: a fresh set-up, the timed closed loop over the
// workload's whole op script, then the correctness oracle (untimed).
struct RoundResult {
  double timed_s = 0;  // host: the closed loop only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // verdict other than the expected one
  std::uint64_t unresolved = 0;  // admitted, never resolved (also failed)
  std::uint64_t wrong = 0;       // released output differs from aes::
  std::uint64_t conservation_errors = 0;  // unknown or duplicate verdicts
  std::uint64_t ok_blocks = 0;   // payload blocks released by Ok ops
  std::uint64_t device_cycles = 0;      // slowest shard, timed phase
  std::uint64_t shard_cycles_sum = 0;   // all shards, timed phase
  std::vector<std::uint64_t> ok_latency;  // device cycles, Ok ops only
  std::uint64_t fingerprint = 0;
  // Layer counters measured from outside without spans (device cycles or
  // counts, so identical in every round of a run).
  std::map<std::string, double> layer;
};

// Folds the end-to-end device-cycle metrics into the op-level digest.
void finishFingerprint(Fingerprint& fp, RoundResult& r);

// --- Workload inputs (generated once per run from the seed) ---------------

// small_blocks: single 16-byte ECB requests, per tenant in issue order.
struct BlockOp {
  aesifc::aes::Block in{};
  bool decrypt = false;
  aesifc::aes::Block want{};  // aes:: golden output
};
struct SmallInputs {
  std::vector<std::vector<std::uint8_t>> keys;  // per tenant
  std::vector<std::vector<BlockOp>> ops;        // per tenant
};

// bulk_ring: one descriptor (possibly a scatter-gather chain) per op.
struct RingOp {
  std::uint8_t mode = 0;  // soc::DmaMode
  aesifc::aes::Block iv{};
  // Segment lengths in stream order, and the position each segment takes
  // in the buffer (a permutation, so a chain really scatters).
  std::vector<std::size_t> seg_len;
  std::vector<std::size_t> seg_off;
  std::vector<std::uint8_t> src;   // whole payload, stream order
  std::vector<std::uint8_t> want;  // aes:: golden output, stream order
};
struct RingInputs {
  std::vector<std::vector<std::uint8_t>> keys;
  std::vector<std::vector<RingOp>> ops;
};

// aead_records: GCM seal/open of TLS-record-sized payloads.
struct AeadOp {
  bool open = false;
  bool tampered = false;  // open with a flipped tag bit: expect AuthFailed
  unsigned size_class = 0;  // index into kAeadSizes
  std::vector<std::uint8_t> data;  // plaintext (seal) / ciphertext (open)
  std::vector<std::uint8_t> aad;
  std::vector<std::uint8_t> iv;
  std::array<std::uint8_t, 16> tag{};   // open: tag presented
  std::vector<std::uint8_t> want;       // seal: ciphertext, open: plaintext
  std::array<std::uint8_t, 16> want_tag{};  // seal only
};
struct AeadInputs {
  std::vector<std::vector<std::uint8_t>> keys;
  std::vector<std::vector<AeadOp>> ops;
};

inline constexpr std::size_t kAeadSizes[3] = {64, 1024, 16384};
inline constexpr const char* kAeadSizeNames[3] = {"64B", "1KiB", "16KiB"};

SmallInputs makeSmallInputs(std::uint64_t seed);
RingInputs makeRingInputs(std::uint64_t seed);
AeadInputs makeAeadInputs(std::uint64_t seed);

RoundResult runSmallBlocks(const SmallInputs& in, Tracer* tr);
// Host seconds of one set-up alone: construction, key provisioning, ring
// programming and page labelling (what a round builds before its loop).
double setupSmallBlocks(const SmallInputs& in);
double setupBulkRing(const RingInputs& in);
double setupAeadRecords(const AeadInputs& in);
// The small_blocks loop on any shard count and in-flight window (the
// ladder's pool rung reuses it on one shard).
RoundResult runPoolBlocks(const SmallInputs& in, unsigned shards,
                          unsigned window, Tracer* tr);
RoundResult runBulkRing(const RingInputs& in, Tracer* tr);
RoundResult runAeadRecords(const AeadInputs& in, Tracer* tr);

// --- Layer ladder on the small_blocks inputs --------------------------------

struct Rung {
  std::string name;          // pipe, session, service, pool
  std::uint64_t ok_blocks = 0;
  std::uint64_t device_cycles = 0;  // summed over the rung's shards
  double host_s = 0;
  std::uint64_t wrong = 0;
  std::uint64_t failed = 0;
  double pipe_latency_p50 = 0;  // pipe rung: accept -> exit, device cycles
  double blocksPerCycle() const {
    return device_cycles ? static_cast<double>(ok_blocks) / device_cycles : 0;
  }
  double hostNsPerBlock() const {
    return ok_blocks ? host_s * 1e9 / static_cast<double>(ok_blocks) : 0;
  }
};

std::vector<Rung> runLadder(const SmallInputs& in);

}  // namespace perfbench
