#pragma once
// Multi-tenant service front end over the accelerator driver — the layer
// that keeps the *service* alive when the device goes unhealthy or tenants
// overload it (the Fig. 2 SoC serving mutually distrusting users at cloud
// traffic levels).
//
// Four cooperating mechanisms:
//
//  * Pipelined issue: blocks and AEAD ops from any mix of tenants ride the
//    live pipe together (the paper's fine-grain sharing, Sec. 4). Each
//    block, and each whole GCM op, is one ticket of the session's
//    caller-clocked async API; the service owns the clock, keeps up to
//    pipe-depth + overflow-buffer blocks and kGcmOps GCM ops in flight per
//    engine (both bounds come from the device), and settles verdicts in
//    per-tenant submission order as work exits. The per-stage tags and the
//    Fig. 8 meet-gated stall are what make the interleaving safe, so no
//    drain separates tenants, runs or ops.
//
//  * Admission control: per tenant a bounded submission queue and a fair
//    per-round service quota; a global watermark applies backpressure when
//    the sum of queues grows past it. Overflowing tenants shed their own
//    oldest request (ShedOldest) or bounce the new one (RejectNew) — never
//    another tenant's traffic, so overload cannot become cross-tenant
//    denial of service.
//
//  * Circuit breaker: a HealthMonitor watches an error-budget window over
//    the drivers' RobustnessStats-style telemetry. When the device is
//    Quarantined the service fails over to the golden software AES — but
//    every fallback block first re-checks the tenant's (conf, integ) label
//    via soc::degradedReleaseDecision, the same Eq. 1 declassification the
//    tagged pipeline applies at its exit. Degraded mode can therefore never
//    release a ciphertext the hardware would have suppressed.
//
//  * Probation: quarantine is left only through canary probes — a known-
//    answer block per tenant key slot, re-provisioned first if fail-secure
//    zeroization destroyed the slot — so traffic returns to hardware only
//    after the hardware demonstrably computes correct AES again.
//
// Every health transition is recorded in the accelerator's security event
// ring (SecurityEventKind::ServiceHealth), putting service-level incidents
// on the same cycle timeline as the hardware's own fault events.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "aes/gcm.h"
#include "aes/key_schedule.h"
#include "soc/health.h"
#include "soc/metrics.h"

namespace aesifc::soc {

// What to evict when a tenant overruns its own queue.
enum class OverflowPolicy { RejectNew, ShedOldest };

struct ServiceConfig {
  OverflowPolicy overflow = OverflowPolicy::ShedOldest;
  // Global watermark: new admissions are refused (backpressure to the
  // caller) while the total queued across tenants is at or above this.
  std::size_t global_high_watermark = 64;
  // Blocks (and AEAD ops) issued per tenant per scheduling round (fair
  // share). See pump() for the round contract.
  unsigned quota_per_round = 4;
  // Service-level retry budget per request: a request whose hardware
  // attempt ends in a transient failure (fault abort, drop, watchdog expiry)
  // or a submit refusal is re-queued at the front this many times (it rides
  // over to the fallback path if the breaker trips meanwhile). The service
  // is the only owner of block and AEAD retry: the pipelined issue path
  // makes one device attempt per issue, with no retry inside the driver.
  unsigned max_requeues = 1;
  // Device cycles charged per software-fallback block, ticked on the
  // accelerator so quarantine residency and background scrubbing advance
  // while traffic is off the hardware.
  unsigned fallback_cycles_per_block = 40;
  HealthConfig health;
  // Per-block watchdog of the Healthy hardware path (an AEAD op's watchdog
  // is it plus two cycles per AES block)…
  std::uint64_t healthy_timeout_cycles = 1024;
  // …and the tightened Degraded one (a sick device wastes less of
  // everyone's cycle budget per failure).
  std::uint64_t degraded_timeout_cycles = 256;
  // Canary probe options (probation must not hang on a wedged device).
  accel::SessionOptions canary_opts{.timeout_cycles = 512,
                                    .max_retries = 1,
                                    .backoff_cycles = 8};
};

// One tenant as the service sees it: an accelerator principal plus the key
// material the service provisioned for it (which is what makes both the
// software fallback and canary re-provisioning possible).
struct TenantSpec {
  unsigned user = 0;         // accelerator user id (already addUser'ed)
  unsigned key_slot = 0;     // round-key RAM slot
  unsigned cell_base = 0;    // scratchpad cells used to (re)load the key
  std::vector<std::uint8_t> key;  // raw AES-128 key bytes
  lattice::Conf key_conf{};  // ck of the provisioned key
  std::size_t queue_depth = 16;
  // AEAD operations queue separately (one GCM op is one scheduling unit,
  // not one block), with their own depth bound.
  std::size_t aead_queue_depth = 8;
};

enum class ServedBy { Hardware, SoftwareFallback, None };

enum class CompletionStatus {
  Ok,
  Suppressed,    // label policy refused the release (hardware OR fallback)
  TimedOut,      // transient budget exhausted on a wedged device
  FaultAborted,  // fail-secure squash survived all requeues
  Dropped,       // overflow-buffer loss survived all requeues
  Rejected,      // deterministic submit refusal (e.g. zeroized slot)
  Shed,          // evicted by the tenant's own ShedOldest admission policy
  AuthFailed,    // GCM open: tag mismatch — a message verdict, never retried
};

std::string toString(CompletionStatus s);
std::string toString(ServedBy s);

struct Completion {
  std::uint64_t ticket = 0;
  unsigned tenant = 0;
  CompletionStatus status = CompletionStatus::Ok;
  ServedBy served_by = ServedBy::None;
  aes::Block data{};
  std::uint64_t submit_cycle = 0;
  std::uint64_t complete_cycle = 0;
};

// Terminal record for one AEAD (GCM) operation.
struct AeadCompletion {
  std::uint64_t ticket = 0;
  unsigned tenant = 0;
  CompletionStatus status = CompletionStatus::Ok;
  ServedBy served_by = ServedBy::None;
  std::vector<std::uint8_t> data;  // ciphertext (seal) or plaintext (open)
  aes::Tag128 tag{};               // auth tag (seal only)
  std::uint64_t submit_cycle = 0;
  std::uint64_t complete_cycle = 0;
};

// Why an offered block was not queued.
enum class AdmitError { QueueFull, Backpressure, TenantRetired };

struct SubmitResult {
  bool admitted = false;
  std::uint64_t ticket = 0;  // valid when admitted (and for shed records)
  AdmitError error = AdmitError::QueueFull;
};

// Aggregate service counters (surfaced next to the leakage/perf metrics).
struct ServiceStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed_hw = 0;
  std::uint64_t completed_fallback = 0;
  std::uint64_t fallback_suppressed = 0;  // label check refused in degraded mode
  std::uint64_t hw_transient_failures = 0;
  std::uint64_t requeues = 0;
  std::uint64_t canary_rounds = 0;
  std::uint64_t canary_failures = 0;
  std::uint64_t key_reprovisions = 0;
  // AEAD (GCM) traffic — one op may be many blocks but is one queue unit.
  std::uint64_t aead_offered = 0;
  std::uint64_t aead_admitted = 0;
  std::uint64_t aead_completed_hw = 0;
  std::uint64_t aead_completed_fallback = 0;
  std::uint64_t aead_auth_failed = 0;  // tag-mismatch verdicts (not health)
  // Requests that reached a serve path for a retired (migrated-away)
  // tenant — i.e. would have executed under a stale or zeroized key had the
  // guard not refused them. The elastic pool's core safety invariant is
  // that this stays 0: migration drains and deactivates before it zeroizes,
  // so no request ever spans the key handover.
  std::uint64_t wrong_key_uses = 0;

  std::string toJson() const;

  // Aggregate counters across shards of an engine pool (or across runs).
  ServiceStats& operator+=(const ServiceStats& o);
};

class AccelService {
 public:
  AccelService(accel::AesAccelerator& acc, ServiceConfig cfg);

  // Provisions the tenant's key into its slot (throws on refusal — a
  // legitimate setup step must not fail silently) and registers its queue.
  // Returns the tenant index used by submit()/fetch(). One active tenant
  // per accelerator user: two would share the user's device output queue
  // while both have blocks in flight.
  unsigned addTenant(const TenantSpec& spec);

  // Non-throwing variant for callers that can degrade gracefully (the
  // elastic pool's migration path: a refused provisioning at the target
  // must leave the source untouched, not unwind the stack). Returns the
  // tenant index, or nullopt when the device refuses the key load or the
  // user already backs an active tenant.
  std::optional<unsigned> tryAddTenant(const TenantSpec& spec);

  // Retire a tenant: future submits are refused (AdmitError::TenantRetired)
  // and any request that still reaches a serve path is refused and counted
  // in stats().wrong_key_uses instead of executing under a key that is
  // about to be (or already is) zeroized. Queued work should be drained
  // first; already-delivered completions remain fetchable.
  void deactivateTenant(unsigned tenant);
  bool tenantActive(unsigned tenant) const {
    return tenant_active_.at(tenant) != 0;
  }
  const TenantSpec& tenantSpec(unsigned tenant) const {
    return tenants_.at(tenant);
  }

  // Pump until this tenant's queues are empty — in-flight blocks settled,
  // and none of its blocks left in the device's input queue — or the cycle
  // budget is spent. Returns true when the tenant is fully drained (the
  // migration barrier).
  bool drainTenant(unsigned tenant, std::uint64_t max_device_cycles);

  // Hard breaker trip from outside the error-budget window (the pool-level
  // fault campaign and the supervisor's tests use this to model an incident
  // the window would take several samples to see).
  void forceQuarantine(const std::string& reason);

  // Offer one block. Admission control may refuse it (result.admitted ==
  // false) or, under ShedOldest, evict the tenant's oldest request still
  // waiting to issue (which then surfaces as a Shed completion). The
  // tenant's queue_depth bounds waiting requests; blocks already in the
  // device are bounded by the engine's in-flight cap instead.
  SubmitResult submit(unsigned tenant, const aes::Block& data,
                      bool decrypt = false);

  // Pop the tenant's next completion, oldest first.
  std::optional<Completion> fetch(unsigned tenant);

  // Offer one AEAD operation (whole-message GCM seal/open). Admission uses
  // the same global watermark as blocks plus the tenant's own AEAD queue
  // depth, which bounds ops waiting to issue (ShedOldest evicts the oldest
  // of those); one op is one quota unit in pump(), issued ahead of the
  // block queue so a long message cannot be starved by block traffic.
  SubmitResult submitSeal(unsigned tenant,
                          const std::vector<std::uint8_t>& plaintext,
                          const std::vector<std::uint8_t>& aad,
                          const std::vector<std::uint8_t>& iv);
  SubmitResult submitOpen(unsigned tenant,
                          const std::vector<std::uint8_t>& ciphertext,
                          const std::vector<std::uint8_t>& aad,
                          const aes::Tag128& tag,
                          const std::vector<std::uint8_t>& iv);
  std::optional<AeadCompletion> fetchAead(unsigned tenant);
  // AEAD ops admitted but not yet settled (waiting, in the device, or shed
  // behind older ops in the device).
  std::size_t aeadQueued(unsigned tenant) const {
    return aead_.at(tenant).unsettled();
  }

  // One scheduling round. The round contract:
  //  1. one idle tick (scheduling overhead; keeps the clock and quarantine
  //     residency moving when every queue is empty), then settle whatever
  //     exited;
  //  2. canary probes when probation opens;
  //  3. per tenant, round-robin: up to quota_per_round units — AEAD ops
  //     first, then blocks. On the hardware path both are issued into the
  //     live pipe and not waited on to finish: after each AEAD op the
  //     service ticks only until that op's AES blocks have ENTERED the
  //     pipe, so the next op overlaps its tail and ops never time-share
  //     the pipe.
  //     At most kGcmOps ops and pipeline().depth() + out_buffer_depth
  //     blocks are in flight per engine (derived from the device, so there
  //     is no knob). On the fallback path both are served in software;
  //  4. tick until this round's blocks have ENTERED the pipe.
  // Verdicts settle in per-tenant submission order as work exits — in this
  // round or a later one. A head that ends FaultAborted, Dropped, refused
  // at submit, or past its watchdog (the session's timeout_cycles; plus
  // two cycles per AES block for an AEAD op) goes back to the queue front
  // together with everything behind it (go-back-N), so completion order is
  // kept and each ticket gets exactly one verdict. AuthFailed and
  // Suppressed are terminal. Returns the number of requests resolved this
  // round.
  unsigned pump();

  // Pump until every queue is empty (in-flight work settled) or the
  // device-cycle budget is spent.
  void runUntilIdle(std::uint64_t max_device_cycles);

  HealthState health() const { return monitor_.state(); }
  const HealthMonitor& monitor() const { return monitor_; }
  const ServiceStats& stats() const { return stats_; }
  // Blocks admitted but not yet settled: waiting, in the device, or shed
  // but still ordered behind older blocks in the device.
  std::size_t queued(unsigned tenant) const {
    return blocks_.at(tenant).unsettled();
  }
  std::size_t totalQueued() const;
  std::uint64_t completedOf(unsigned tenant) const {
    return completed_per_tenant_.at(tenant);
  }
  const accel::AccelSession& session(unsigned tenant) const {
    return sessions_.at(tenant);
  }

 private:
  // What every queued request carries, block or AEAD op.
  struct Pending {
    std::uint64_t ticket = 0;
    std::uint64_t submit_cycle = 0;
    unsigned requeues = 0;
    std::uint64_t session_ticket = 0;  // current device attempt, if in flight
  };
  struct Request : Pending {
    aes::Block data{};
    bool decrypt = false;
    std::uint64_t issue_cycle = 0;  // the block watchdog counts from here
  };
  struct AeadRequest : Pending {
    accel::GcmRequest op;  // seal/open, IV, AAD, data, expected tag
  };
  // One tenant's queue of one request kind, oldest first: the first
  // `inflight` requests are in the device, the rest wait to issue. `shed`
  // holds ShedOldest victims whose Shed verdict waits for the older
  // requests still in the queue to settle.
  template <typename R>
  struct Lane {
    std::deque<R> q;
    std::size_t inflight = 0;
    std::vector<R> shed;
    std::size_t waiting() const { return q.size() - inflight; }
    std::size_t unsettled() const { return q.size() + shed.size(); }
  };

  void logTransitions();
  void applyStateOptions();
  bool hardwarePath() const;
  std::size_t inflightCap() const;
  template <typename R>
  static std::size_t inflightOf(const std::vector<Lane<R>>& lanes);
  // Issue the tenant's next waiting block into the pipe (no ticking).
  void issueBlock(unsigned tenant);
  // Issue the tenant's next waiting AEAD op and tick until its AES blocks
  // have entered the pipe.
  void issueAead(unsigned tenant);
  // Settle every tenant's in-flight heads that have exited (no ticking).
  void collect();
  void collectBlocks(unsigned tenant);
  void collectAead(unsigned tenant);
  void tickAndCollect();
  // Tick until the tenant (or every tenant) has nothing in flight — before
  // fallback serving or a synchronous session call (canaries), whose drain
  // would strand async verdicts.
  void settleTenant(unsigned tenant);
  void settleAll();
  // ShedOldest: move the tenant's oldest waiting request to the shed list.
  template <typename R>
  void shedOldest(unsigned tenant, Lane<R>& lane);
  // Retire the settled head, then release the Shed verdicts behind it.
  template <typename R>
  void popHead(unsigned tenant, Lane<R>& lane);
  // Go-back-N: cancel the tenant's in-flight attempts and apply the retry
  // policy to the failed head (`st`); the rest wait at the queue front.
  template <typename R>
  void goBack(unsigned tenant, Lane<R>& lane, accel::AccelStatus st);
  // Emit the Shed verdicts no older queued request is still ahead of; call
  // after every head pop.
  template <typename R>
  void releaseShed(unsigned tenant, Lane<R>& lane);
  // Retry policy for a failed hardware attempt (transient, or refused at
  // submit): true when the request may ride again, its requeue charged;
  // false when `st` becomes its verdict.
  bool retryAfter(unsigned tenant, accel::AccelStatus st, unsigned& requeues);
  // Fallback path (or refusal, for a retired tenant) for the queue head.
  template <typename R>
  void serveOne(unsigned tenant, Lane<R>& lane);
  void serveFallback(unsigned tenant, const Request& req);
  void serveFallback(unsigned tenant, const AeadRequest& req);
  void cancel(unsigned tenant, const Request& req);
  void cancel(unsigned tenant, const AeadRequest& req);
  void complete(unsigned tenant, const Request& req, CompletionStatus st,
                ServedBy by, const aes::Block& data = {});
  void complete(unsigned tenant, const AeadRequest& req, CompletionStatus st,
                ServedBy by, std::vector<std::uint8_t> data = {},
                const aes::Tag128& tag = {});
  SubmitResult submitAead(unsigned tenant, AeadRequest req);
  void sampleWindowIfDue();
  void runCanaries();
  bool reprovisionKey(unsigned tenant);

  accel::AesAccelerator& acc_;
  ServiceConfig cfg_;
  HealthMonitor monitor_;
  std::vector<TenantSpec> tenants_;
  std::vector<accel::AccelSession> sessions_;
  std::vector<aes::ExpandedKey> golden_;  // fallback + canary expectations
  std::vector<Lane<Request>> blocks_;  // per tenant
  std::vector<Lane<AeadRequest>> aead_;
  std::vector<std::deque<Completion>> completions_;
  std::vector<std::deque<AeadCompletion>> aead_completions_;
  std::vector<char> tenant_active_;  // 0 after deactivateTenant
  std::vector<std::uint64_t> completed_per_tenant_;
  ServiceStats stats_;
  std::uint64_t settled_ = 0;  // completions recorded (pump's return value)
  std::uint64_t next_ticket_ = 1;
  std::uint64_t window_start_cycle_ = 0;
  accel::SessionTelemetry window_base_;  // telemetry at last window sample
  std::size_t logged_transitions_ = 0;
  unsigned rr_next_ = 0;  // round-robin start tenant for fairness
};

}  // namespace aesifc::soc
