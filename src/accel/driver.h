#pragma once
// Software driver layer: what a kernel driver / user library would run on
// the host CPU to use the accelerator. `AccelSession` is one user's handle.
// Its one submit/collect loop is the caller-clocked ticket (beginBatch /
// pollBatch, beginGcm / pollGcm); the synchronous block, mode and GCM calls
// are built on it: one attempt is one ticket, ticked until it is terminal
// or its watchdog expires, then retired.
//
// The driver is written for an imperfect device and an imperfect bus: every
// operation returns an `AccelResult` whose status distinguishes a security
// refusal (`Suppressed` — never retried) from transient failures
// (`Timeout`, `FaultAborted`, `Dropped` — retried with bounded backoff when
// the session is configured for it) and a deterministic refusal at the
// submit port (`Rejected`, e.g. a zeroized key slot). A retry reissues the
// whole ticket (go-back-N); the abandoned attempt's request ids are
// orphaned, so its late or duplicated responses are dropped and a retry can
// never double-deliver. Request ids come from one sequence per device, so
// no session ever credits another session's response.
//
// The mode helpers also document a real architectural point of pipelined
// engines: ECB/CTR submit one block per cycle and ride the full 51.2 Gbps
// pipeline, while CBC encryption is chained and pays the whole 30-cycle
// latency per block.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "aes/modes.h"

namespace aesifc::accel {

// Loads a key of any supported size through the tagged scratchpad path
// (configure keyBytes/8 cells, write the 64-bit words, expand into `slot`).
// Returns false if any step is refused.
bool loadKeyBytes(AesAccelerator& acc, unsigned user, unsigned slot,
                  unsigned cell_base, const std::vector<std::uint8_t>& key,
                  aes::KeySize ks, lattice::Conf key_conf);

// Convenience for the common AES-128 case.
bool loadKey128(AesAccelerator& acc, unsigned user, unsigned slot,
                unsigned cell_base, const std::vector<std::uint8_t>& key,
                lattice::Conf key_conf);

// Outcome of a driver operation. Every submitted request ends in exactly
// one of these — there is no silent-drop state.
enum class AccelStatus {
  Ok,           // all blocks completed and verified deliverable
  Suppressed,   // the device refused to declassify (security; NOT retryable)
  Timeout,      // watchdog expired with responses outstanding (retryable)
  FaultAborted, // squashed by the fail-secure fault path (retryable)
  Dropped,      // lost to overflow-buffer pressure (retryable)
  Rejected,     // refused at the submit port (e.g. zeroized key slot)
  AuthFailed,   // GCM open: tag mismatch — a verdict, NOT retryable
};

std::string toString(AccelStatus s);

// Retryable = transient device/bus condition; security refusals and
// deterministic submit rejections are final.
constexpr bool isRetryable(AccelStatus s) {
  return s == AccelStatus::Timeout || s == AccelStatus::FaultAborted ||
         s == AccelStatus::Dropped;
}

// Value-or-status result. Mirrors the std::optional surface the driver
// used to return (`has_value`, `operator*`, `operator->`, bool tests) so
// existing call sites read unchanged, plus `status()` for the failure kind.
template <typename T>
class AccelResult {
 public:
  AccelResult(AccelStatus st) : status_{st} {}  // NOLINT: implicit by design
  AccelResult(T v) : status_{AccelStatus::Ok}, value_{std::move(v)} {}

  AccelStatus status() const { return status_; }
  bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return has_value(); }
  const T& operator*() const { return *value_; }
  T& operator*() { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }
  const T& value() const { return value_.value(); }

 private:
  AccelStatus status_;
  std::optional<T> value_;
};

// Per-session robustness knobs for the synchronous calls. The defaults
// reproduce the historical behavior: one attempt, 4096-cycle watchdog, no
// retries.
struct SessionOptions {
  std::uint64_t timeout_cycles = 4096;  // watchdog per attempt
  unsigned max_retries = 0;       // extra attempts for retryable failures
  std::uint64_t backoff_cycles = 32;  // idle ticks before retry, doubles per attempt
};

// Terminal-outcome counters for one session. Every runBatch() verdict bumps
// exactly one field, so the sum equals the number of driver operations; a
// health monitor can difference two snapshots to get a window's error rate.
struct SessionTelemetry {
  std::uint64_t ok = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fault_aborts = 0;
  std::uint64_t drops = 0;
  std::uint64_t rejected = 0;
  std::uint64_t auth_failed = 0;  // GCM open verdicts (not device health)

  std::uint64_t operations() const {
    return ok + suppressed + timeouts + fault_aborts + drops + rejected +
           auth_failed;
  }
  // Transient-failure outcomes (the retryable statuses) — the numerator of
  // an error-budget rate. Suppressed/Rejected are deterministic verdicts,
  // not device health signals.
  std::uint64_t transientFailures() const {
    return timeouts + fault_aborts + drops;
  }
  SessionTelemetry& operator+=(const SessionTelemetry& o) {
    ok += o.ok;
    suppressed += o.suppressed;
    timeouts += o.timeouts;
    fault_aborts += o.fault_aborts;
    drops += o.drops;
    rejected += o.rejected;
    auth_failed += o.auth_failed;
    return *this;
  }
};

// Result of a successful GCM seal: ciphertext plus the authentication tag.
struct GcmSealed {
  std::vector<std::uint8_t> ciphertext;
  aes::Tag128 tag{};
};

class AccelSession {
 public:
  AccelSession(AesAccelerator& acc, unsigned user, unsigned key_slot,
               SessionOptions opts = {});

  // Single-block synchronous operations (tick until the response arrives).
  AccelResult<aes::Block> encryptBlock(const aes::Block& pt);
  AccelResult<aes::Block> decryptBlock(const aes::Block& ct);

  // Pipelined modes: one submission per cycle, all blocks in flight.
  AccelResult<aes::Bytes> ecbEncrypt(const aes::Bytes& data);
  AccelResult<aes::Bytes> ecbDecrypt(const aes::Bytes& data);
  AccelResult<aes::Bytes> ctrCrypt(const aes::Bytes& data,
                                   const aes::Iv& nonce);
  // CBC decryption is parallel (each block's chain input is ciphertext).
  AccelResult<aes::Bytes> cbcDecrypt(const aes::Bytes& data,
                                     const aes::Iv& iv);
  // CBC encryption is serial: each block waits for the previous one.
  AccelResult<aes::Bytes> cbcEncrypt(const aes::Bytes& data,
                                     const aes::Iv& iv);

  // --- Asynchronous batches (completion-driven, no internal clock) ---------
  // beginBatch submits the blocks and returns a ticket WITHOUT ticking the
  // device: the caller owns the clock and overlaps its own work (ring-DMA
  // ticks, other tenants, host compute) with the pipeline. pollBatch
  // consumes any completions that have arrived (no ticking) and reports
  // whether the batch reached a terminal state; finishBatch retires the
  // ticket and returns the verdict, optionally ticking up to
  // `max_wait_cycles` first. There is NO retry here: the first transient
  // failure (fault abort / drop) becomes the batch verdict and the caller
  // decides what to reissue (the synchronous helpers and the service
  // reissue the whole ticket). Several batches may be outstanding at once.
  std::uint64_t beginBatch(const std::vector<aes::Block>& blocks,
                           bool decrypt);
  bool pollBatch(std::uint64_t ticket);  // true once terminal (or unknown)
  AccelResult<std::vector<aes::Block>> finishBatch(
      std::uint64_t ticket, std::uint64_t max_wait_cycles = 0);
  // Abandon a ticket without a verdict: the caller is re-issuing the work
  // (go-back-N behind a failed block), so nothing is recorded in
  // telemetry() — an abandoned attempt says nothing about device health.
  // Late responses for it are dropped.
  void cancelBatch(std::uint64_t ticket);
  std::size_t asyncOutstanding() const { return async_batches_.size(); }

  // --- Asynchronous GCM ops (caller-clocked, like the batches above) ------
  // beginGcm hands one op (user, key slot and request id are filled in) to
  // the sequencer and returns a ticket — the op's request id — WITHOUT
  // ticking. While every sequencer op slot is busy the ticket waits and
  // pollGcm retries the submit: a busy device is backpressure, never a
  // verdict. pollGcm consumes GCM responses (no ticking) and reports
  // whether the op is terminal: its response arrived, the submit was
  // refused, or its watchdog — timeout_cycles plus two cycles per AES
  // block, counted from beginGcm — expired. finishGcm retires the ticket
  // and records the verdict; there is NO retry here. cancelGcm abandons a
  // ticket without a verdict (its late response is dropped).
  std::uint64_t beginGcm(GcmRequest req);
  bool pollGcm(std::uint64_t ticket);  // true once terminal (or unknown)
  // True until the op holds a sequencer slot (or was refused, or is gone).
  bool gcmWaitingForSlot(std::uint64_t ticket) const;
  AccelResult<GcmResponse> finishGcm(std::uint64_t ticket);
  void cancelGcm(std::uint64_t ticket);

  // On-device AEAD (SP 800-38D): the whole operation — CTR keystream, H,
  // GHASH, tag — runs on the accelerator under label enforcement; the host
  // never sees the hash subkey. Any IV length >= 1 byte (12 is the fast
  // path). `gcmOpen` returns AuthFailed on a tag mismatch (a verdict, not
  // retryable); transient faults retry like block operations. Built on the
  // GCM tickets above: one attempt is one ticket, clocked to its verdict.
  AccelResult<GcmSealed> gcmSeal(const std::vector<std::uint8_t>& plaintext,
                                 const std::vector<std::uint8_t>& aad,
                                 const std::vector<std::uint8_t>& iv);
  AccelResult<std::vector<std::uint8_t>> gcmOpen(
      const std::vector<std::uint8_t>& ciphertext,
      const std::vector<std::uint8_t>& aad, const aes::Tag128& tag,
      const std::vector<std::uint8_t>& iv);

  // Device cycles consumed by this session's synchronous calls.
  std::uint64_t cyclesUsed() const { return cycles_used_; }
  unsigned user() const { return user_; }
  // Status of the most recent operation and retry telemetry.
  AccelStatus lastStatus() const { return last_status_; }
  std::uint64_t retries() const { return retries_; }
  // Cumulative terminal-outcome counts (see SessionTelemetry).
  const SessionTelemetry& telemetry() const { return telemetry_; }
  // Retune the robustness knobs mid-session (a degraded-mode service
  // tightens the watchdog, a canary probe sets its own retry budget).
  void setOptions(const SessionOptions& opts) { opts_ = opts; }
  const SessionOptions& options() const { return opts_; }

 private:
  // Run `blocks` as one batch ticket per attempt, clocked until it is
  // terminal or its watchdog (timeout_cycles + one cycle per block)
  // expires; a transient verdict reissues the whole batch.
  AccelResult<std::vector<aes::Block>> runBatch(
      const std::vector<aes::Block>& blocks, bool decrypt);
  // Run one GCM op as one GCM ticket per attempt, clocked to its verdict.
  AccelResult<GcmResponse> runGcm(const GcmRequest& req);
  // The one retry loop of the synchronous calls: run `attempt` (which
  // returns a retired ticket's outcome, recording nothing), reissue it
  // after a doubling backoff while the outcome is transient and the
  // max_retries budget lasts, then record the final verdict once.
  template <typename Attempt>
  auto retrying(Attempt attempt) -> decltype(attempt());

  // One outstanding GCM op (beginGcm/pollGcm/finishGcm), keyed by req id.
  struct AsyncGcm {
    GcmRequest req;  // moved into the sequencer once a slot is free
    bool submitted = false;
    bool rejected = false;
    std::optional<GcmResponse> resp;
    std::uint64_t begin_cycle = 0;
    std::uint64_t budget = 0;  // watchdog, in cycles from begin_cycle
  };
  bool gcmTerminal(const AsyncGcm& g) const {
    return g.rejected || g.resp.has_value() ||
           acc_.cycle() - g.begin_cycle > g.budget;
  }
  void gcmSubmit(AsyncGcm& g);
  void gcmDrain();
  // Retire a ticket and map its outcome to a status, recording nothing.
  AccelResult<GcmResponse> retireGcm(std::uint64_t ticket);

  // One outstanding asynchronous batch (beginBatch/pollBatch/finishBatch).
  struct AsyncBatch {
    std::vector<aes::Block> out;  // one slot per block of the batch
    std::vector<char> state;  // 0 pending, 1 done, 2 suppressed
    std::size_t resolved = 0;
    bool any_suppressed = false;
    bool rejected = false;
    std::optional<AccelStatus> transient;  // first fault-abort/drop
  };
  bool asyncTerminal(const AsyncBatch& b) const {
    return b.rejected || b.transient.has_value() ||
           b.resolved == b.out.size();
  }
  // Remove a ticket, orphan its outstanding request ids and map its outcome
  // to a status, recording nothing (Rejected for an unknown ticket).
  AccelResult<std::vector<aes::Block>> retireBatch(std::uint64_t ticket);
  void asyncDrain();
  // Record one terminal verdict (cycles, last status, telemetry).
  AccelStatus finishVerdict(AccelStatus verdict, std::uint64_t start_cycle);

  AesAccelerator& acc_;
  unsigned user_;
  unsigned key_slot_;
  SessionOptions opts_;
  std::map<std::uint64_t, AsyncBatch> async_batches_;
  // req_id -> (ticket, block index) across every outstanding async batch.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>> async_order_;
  std::map<std::uint64_t, AsyncGcm> async_gcm_;
  std::vector<BlockResponse> drained_;  // asyncDrain's reused buffer
  std::uint64_t next_ticket_ = 1;
  std::uint64_t cycles_used_ = 0;
  std::uint64_t retries_ = 0;
  AccelStatus last_status_ = AccelStatus::Ok;
  SessionTelemetry telemetry_;
};

}  // namespace aesifc::accel
