#pragma once
// Top-level accelerator (Fig. 4): AXI-like host interface with per-user
// queues, arbiter, key scratchpad + round-key RAM, configuration registers,
// debug peripheral, the pipelined AES datapath, and — in Protected mode —
// the runtime enforcement the paper adds: per-stage security tags, tag
// checks on the scratchpad / debug port / config registers, the meet-gated
// stall rule with an overflow output buffer (Fig. 8), and nonmalleable
// declassification of ciphertext at the pipeline exit (Sections 3.2.1-2).
//
// The same class implements both the unprotected baseline and the protected
// design (the paper derives the protected design from the baseline with a
// ~70-line delta; here the delta is the SecurityMode checks).

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accel/config_regs.h"
#include "accel/gcm_sequencer.h"
#include "accel/ghash_unit.h"
#include "accel/key_store.h"
#include "accel/pipeline.h"
#include "accel/types.h"
#include "lattice/tag.h"

namespace aesifc::accel {

struct AcceleratorConfig {
  SecurityMode mode = SecurityMode::Protected;
  unsigned max_rounds = 10;        // 10 => 30-stage AES-128 pipeline
  unsigned out_buffer_depth = 32;  // protected-mode overflow buffer
  bool coarse_grained = false;     // drain pipeline between users (Section 1)
  // Fold the tags of blocks waiting at the input into the Fig. 8 stall
  // meet (a granted stall also delays their acceptance). True is our
  // strengthened rule; false is the paper's stage-only meet — kept as an
  // ablation knob that re-opens an acceptance-delay side channel
  // (see bench_ablation).
  bool meet_includes_inputs = true;
  // Fail-secure fault hardening: parity on stage data/tag registers, the
  // scratchpad and its tag array, round-key slots and config registers; a
  // mismatch squashes the affected block (tags only ever fail upward) and a
  // background scrub pass sweeps idle state every cycle. Costs nothing when
  // no faults occur; off reproduces the unhardened design for comparison.
  bool fault_hardening = true;
  // Ring-buffer cap on the security event log (unbounded growth otherwise
  // under long-running traffic); oldest entries are evicted and counted in
  // eventsOverflowed(). Per-kind eventCount() stays exact regardless.
  unsigned event_log_cap = 4096;
};

class AesAccelerator {
 public:
  explicit AesAccelerator(AcceleratorConfig cfg);

  SecurityMode mode() const { return cfg_.mode; }
  const AcceleratorConfig& config() const { return cfg_; }

  // --- Users ---------------------------------------------------------------
  // Registers a principal; returns its user id. The supervisor should be
  // registered like any other user (with Principal::supervisor()).
  unsigned addUser(Principal p);
  const Principal& principal(unsigned user) const;
  // Number of registered principals (descriptor validation bound: a DMA
  // descriptor naming a user id at or past this count is malformed).
  unsigned userCount() const { return static_cast<unsigned>(users_.size()); }

  // --- Key path (Fig. 5) ----------------------------------------------------
  // Arbiter-side cell allocation: retags `count` cells at `base` with the
  // user's label before the user stores its key.
  void configureKeyCells(unsigned user, unsigned base, unsigned count);
  // One 64-bit store into the scratchpad; tag-checked in Protected mode.
  bool writeKeyCell(unsigned user, unsigned cell, std::uint64_t value);
  // Expand the key material in cells [base, base + keyBytes/8) into a
  // round-key RAM slot. `key_conf` is the confidentiality of the key itself
  // (ck); pass Conf::top() for the master key.
  bool loadKey(unsigned user, unsigned slot, unsigned cell_base,
               aes::KeySize ks, lattice::Conf key_conf);

  // True while any in-flight pipeline block references `slot` (key updates
  // and zeroization must wait for this to clear).
  bool keySlotBusy(unsigned slot) const;

  // Key zeroization: destroys a round-key slot. A destructive write, so it
  // requires the requester's integrity to dominate the owner's (the owner
  // itself or the supervisor); refused while blocks using the slot are
  // still in flight. Baseline mode skips the integrity check.
  bool clearKey(unsigned user, unsigned slot);

  const KeyScratchpad& scratchpad() const { return scratchpad_; }
  const RoundKeyRam& roundKeys() const { return round_keys_; }

  // The 8-bit hardware tag (4 conf + 4 integ, Section 4) of a pipeline
  // stage under the SoC palette; nullopt if the stage is empty or its label
  // is outside the palette.
  std::optional<lattice::HwTag> stageHwTag(unsigned stage) const;

  // --- Config registers (Section 3.2.4) --------------------------------------
  std::uint32_t readConfig(const std::string& name) const;
  bool writeConfig(unsigned user, const std::string& name, std::uint32_t v);

  // --- Debug peripheral (Section 3.1, attack of [10]) -------------------------
  // Reads the raw state held in pipeline stage `stage`. Requires
  // debug_enable; tag-checked against the reader in Protected mode.
  std::optional<aes::Block> debugReadStage(unsigned user, unsigned stage);

  // --- Data path --------------------------------------------------------------
  // Enqueue one block. Returns false if the key slot is unusable (invalid,
  // or needs more rounds than the pipeline has).
  bool submit(BlockRequest req);
  // Batch submit: enqueue a contiguous run of requests (the arbiter still
  // accepts at most one per cycle — this fills the input queue so the
  // pipeline can run back-to-back). Stops at the first refusal; returns
  // the number actually enqueued.
  std::size_t submitBatch(const std::vector<BlockRequest>& reqs);
  void setReceiverReady(unsigned user, bool ready);
  std::optional<BlockResponse> fetchOutput(unsigned user);
  // Batch drain: append every response currently queued for `user` to
  // `out`; returns the number drained.
  std::size_t fetchOutputs(unsigned user, std::vector<BlockResponse>& out);
  // Head of the user's output queue without consuming it (the MMIO window's
  // DATA_OUT registers mirror this).
  const BlockResponse* peekOutput(unsigned user) const;
  std::size_t pendingInputs(unsigned user) const;
  std::size_t pendingOutputs(unsigned user) const;

  // --- AEAD path (GCM sequencer + GHASH unit) --------------------------------
  // Enqueue one authenticated-encryption operation (seal or open). The
  // sequencer runs it end-to-end on the device: H and the CTR keystream
  // through the AES pipe, the digest through the tagged GHASH unit, and a
  // single nonmalleable declassification when the result is released.
  bool submitGcm(GcmRequest req);
  std::optional<GcmResponse> fetchGcm(unsigned user);
  std::size_t pendingGcm(unsigned user) const { return gcm_.pending(user); }
  const GhashUnit& ghash() const { return ghash_; }
  const GcmSequencer& gcm() const { return gcm_; }

  // --- Clock -----------------------------------------------------------------
  void tick();
  void run(unsigned cycles);
  // Called at the end of every tick — between clock edges, after this
  // cycle's outputs are queued but before host logic can fetch them. Lets
  // an environment model (fault injector, monitor) act on device state and
  // on freshly delivered responses even when a driver session owns the
  // clock. Pass nullptr to clear.
  void setTickHook(std::function<void()> hook) {
    tick_hook_ = std::move(hook);
  }
  std::uint64_t cycle() const { return cycle_; }
  const AesPipeline& pipeline() const { return pipeline_; }

  // --- Fault injection (campaign hooks) ------------------------------------
  // Flip one bit at a hardware site, modeling a single-event upset; parity
  // bits are deliberately NOT updated. `index` selects the stage / cell /
  // slot / register (register names are indexed via the config-register
  // name table); for RoundKey, `bit` encodes round*128 + byte*8 + bit.
  // Returns false when the target does not exist or holds no state.
  bool injectFault(FaultSite site, unsigned index, unsigned bit);
  // Host-interface perturbations: replay or lose the response at the head
  // of a user's output queue. Return false when the queue is empty.
  bool injectDuplicateOutput(unsigned user);
  bool injectDropOutput(unsigned user);

  // --- Telemetry ----------------------------------------------------------
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;   // delivered to an output queue
    std::uint64_t suppressed = 0;  // declassification refused
    std::uint64_t stalled_cycles = 0;
    std::uint64_t denied_stalls = 0;
    std::uint64_t buffered = 0;
    std::uint64_t dropped = 0;  // overflow buffer full
    std::uint64_t faults_detected = 0;   // parity mismatches, point of use
    std::uint64_t faults_recovered = 0;  // restored by the scrub pass
    std::uint64_t fault_aborted = 0;     // blocks squashed fail-secure
    std::uint64_t retries = 0;           // driver-reported resubmissions
    // AEAD path (GCM sequencer).
    std::uint64_t gcm_ops = 0;           // operations accepted
    std::uint64_t gcm_ok = 0;            // completed and released
    std::uint64_t gcm_suppressed = 0;    // digest declassification refused
    std::uint64_t gcm_auth_failed = 0;   // open verdicts (tag mismatch)
    std::uint64_t gcm_fault_aborted = 0; // ops killed by the fail-secure path
  };
  const Stats& stats() const { return stats_; }
  // Zero the counters (long campaigns reset between phases); the cycle
  // counter, event log, and device state are untouched.
  void resetStats() { stats_ = Stats{}; }
  // Driver-side hook: a session retried a failed request.
  void noteRetry() { ++stats_.retries; }

  // Host-software entry into the security event ring: the service layer
  // records its health-state transitions alongside the hardware's own
  // events so one log tells the whole incident story in cycle order.
  void noteServiceEvent(unsigned user, std::string detail) {
    recordEvent(SecurityEventKind::ServiceHealth, user, std::move(detail));
  }
  // Host-software entry for the tenant-migration audit kinds (and any other
  // host-originated incident): the pool stamps the same Begun/KeyZeroized/
  // Committed triple into both shards' rings through this port.
  void noteHostEvent(SecurityEventKind kind, unsigned user,
                     std::string detail) {
    recordEvent(kind, user, std::move(detail));
  }

  const std::deque<SecurityEvent>& events() const { return events_; }
  std::size_t eventCount(SecurityEventKind k) const;
  std::uint64_t eventsOverflowed() const { return events_overflowed_; }
  // Detections/recoveries per hardware fault site (campaign reconciliation).
  const std::array<std::uint64_t, kHwFaultSites>& faultsDetectedBySite() const {
    return faults_by_site_;
  }

 private:
  friend class GcmSequencer;  // drives the datapaths on the op's behalf
  friend class AccelSession;  // numbers its requests from next_req_id_

  struct PendingOutput {
    BlockResponse resp;
    Label tag;
  };

  void recordEvent(SecurityEventKind kind, unsigned user, std::string detail);
  std::optional<StageSlot> arbiterPick();
  void routeCompleted(StageSlot slot, bool to_buffer);
  void drainBuffer();

  // --- Fail-secure machinery -------------------------------------------------
  bool hardened() const { return cfg_.fault_hardening; }
  void noteFault(FaultSite site, bool scrubbed, unsigned user,
                 std::string detail);
  // Deliver a fault-abort completion record so the request still terminates
  // in a definite outcome (never a silent drop).
  void deliverAbort(const StageSlot& slot);
  // Zeroize a round-key slot and squash every in-flight block referencing
  // it (their remaining rounds would otherwise read zeroed keys). Returns
  // the number of squashed blocks.
  unsigned zeroizeSlotSquash(unsigned slot);
  // Parity sweep: all stage and scratchpad-tag comparators run every cycle
  // (parallel hardware); scratchpad cells, round-key slots and config
  // registers are visited round-robin, one site per cycle.
  void scrubTick();

  AcceleratorConfig cfg_;
  std::vector<Principal> users_;
  KeyScratchpad scratchpad_;
  RoundKeyRam round_keys_;
  ConfigRegisters config_regs_;
  AesPipeline pipeline_;
  GhashUnit ghash_;
  GcmSequencer gcm_;

  std::vector<std::deque<StageSlot>> input_queues_;
  std::vector<std::deque<BlockResponse>> output_queues_;
  std::vector<bool> receiver_ready_;
  std::deque<PendingOutput> overflow_buffer_;

  unsigned rr_next_ = 0;      // round-robin pointer
  unsigned coarse_owner_ = 0; // current owner in coarse-grained mode
  bool coarse_active_ = false;

  std::uint64_t cycle_ = 0;
  // Every AccelSession on this device numbers its requests from this one
  // sequence, so a late response can never match another session's request.
  std::uint64_t next_req_id_ = 1;
  Stats stats_;
  std::deque<SecurityEvent> events_;  // ring buffer, capped by event_log_cap
  std::uint64_t events_overflowed_ = 0;
  std::array<std::size_t, kSecurityEventKinds> event_counts_{};
  std::array<std::uint64_t, kHwFaultSites> faults_by_site_{};
  unsigned scrub_next_ = 0;  // round-robin pointer of the slow scrub ring
  std::function<void()> tick_hook_;
};

}  // namespace aesifc::accel
