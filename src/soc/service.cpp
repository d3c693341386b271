#include "soc/service.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "aes/cipher.h"
#include "soc/policy_engine.h"

namespace aesifc::soc {

using accel::AccelStatus;

std::string toString(CompletionStatus s) {
  switch (s) {
    case CompletionStatus::Ok: return "ok";
    case CompletionStatus::Suppressed: return "suppressed";
    case CompletionStatus::TimedOut: return "timed-out";
    case CompletionStatus::FaultAborted: return "fault-aborted";
    case CompletionStatus::Dropped: return "dropped";
    case CompletionStatus::Rejected: return "rejected";
    case CompletionStatus::Shed: return "shed";
    case CompletionStatus::AuthFailed: return "auth-failed";
  }
  return "?";
}

std::string toString(ServedBy s) {
  switch (s) {
    case ServedBy::Hardware: return "hardware";
    case ServedBy::SoftwareFallback: return "software-fallback";
    case ServedBy::None: return "none";
  }
  return "?";
}

std::string ServiceStats::toJson() const {
  std::ostringstream os;
  os << "{\"offered\":" << offered << ",\"admitted\":" << admitted
     << ",\"rejected_queue_full\":" << rejected_queue_full
     << ",\"rejected_backpressure\":" << rejected_backpressure
     << ",\"shed\":" << shed << ",\"completed_hw\":" << completed_hw
     << ",\"completed_fallback\":" << completed_fallback
     << ",\"fallback_suppressed\":" << fallback_suppressed
     << ",\"hw_transient_failures\":" << hw_transient_failures
     << ",\"requeues\":" << requeues
     << ",\"canary_rounds\":" << canary_rounds
     << ",\"canary_failures\":" << canary_failures
     << ",\"key_reprovisions\":" << key_reprovisions
     << ",\"aead_offered\":" << aead_offered
     << ",\"aead_admitted\":" << aead_admitted
     << ",\"aead_completed_hw\":" << aead_completed_hw
     << ",\"aead_completed_fallback\":" << aead_completed_fallback
     << ",\"aead_auth_failed\":" << aead_auth_failed
     << ",\"wrong_key_uses\":" << wrong_key_uses << "}";
  return os.str();
}

ServiceStats& ServiceStats::operator+=(const ServiceStats& o) {
  offered += o.offered;
  admitted += o.admitted;
  rejected_queue_full += o.rejected_queue_full;
  rejected_backpressure += o.rejected_backpressure;
  shed += o.shed;
  completed_hw += o.completed_hw;
  completed_fallback += o.completed_fallback;
  fallback_suppressed += o.fallback_suppressed;
  hw_transient_failures += o.hw_transient_failures;
  requeues += o.requeues;
  canary_rounds += o.canary_rounds;
  canary_failures += o.canary_failures;
  key_reprovisions += o.key_reprovisions;
  aead_offered += o.aead_offered;
  aead_admitted += o.aead_admitted;
  aead_completed_hw += o.aead_completed_hw;
  aead_completed_fallback += o.aead_completed_fallback;
  aead_auth_failed += o.aead_auth_failed;
  wrong_key_uses += o.wrong_key_uses;
  return *this;
}

AccelService::AccelService(accel::AesAccelerator& acc, ServiceConfig cfg)
    : acc_{acc}, cfg_{cfg}, monitor_{cfg.health},
      window_start_cycle_{acc.cycle()} {}

unsigned AccelService::addTenant(const TenantSpec& spec) {
  const auto t = tryAddTenant(spec);
  if (!t.has_value()) {
    throw std::runtime_error("AccelService::addTenant: user " +
                             std::to_string(spec.user) +
                             " refused (key provisioning, or already a "
                             "tenant)");
  }
  return *t;
}

std::optional<unsigned> AccelService::tryAddTenant(const TenantSpec& spec) {
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    if (tenant_active_[t] && tenants_[t].user == spec.user) return std::nullopt;
  }
  if (!accel::loadKeyBytes(acc_, spec.user, spec.key_slot, spec.cell_base,
                           spec.key, aes::KeySize::Aes128, spec.key_conf)) {
    return std::nullopt;
  }
  const unsigned t = static_cast<unsigned>(tenants_.size());
  tenants_.push_back(spec);
  sessions_.emplace_back(
      acc_, spec.user, spec.key_slot,
      accel::SessionOptions{.timeout_cycles = cfg_.healthy_timeout_cycles});
  golden_.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
  blocks_.emplace_back();
  aead_.emplace_back();
  completions_.emplace_back();
  aead_completions_.emplace_back();
  tenant_active_.push_back(1);
  completed_per_tenant_.push_back(0);
  return t;
}

void AccelService::deactivateTenant(unsigned tenant) {
  tenant_active_.at(tenant) = 0;
}

bool AccelService::drainTenant(unsigned tenant, std::uint64_t max_device_cycles) {
  // An attempt cancelled by go-back-N may still sit in the device's input
  // queue after its request settled; the slot-quiesce barrier that follows
  // a drain only sees the pipe, so wait for the input queue too.
  auto drained = [&] {
    return blocks_.at(tenant).q.empty() && aead_.at(tenant).q.empty() &&
           acc_.pendingInputs(tenants_.at(tenant).user) == 0;
  };
  const std::uint64_t start = acc_.cycle();
  while (!drained() && acc_.cycle() - start < max_device_cycles) pump();
  return drained();
}

void AccelService::forceQuarantine(const std::string& reason) {
  monitor_.forceQuarantine(acc_.cycle(), reason);
  logTransitions();
  applyStateOptions();
}

std::size_t AccelService::totalQueued() const {
  std::size_t n = 0;
  for (const auto& l : blocks_) n += l.unsettled();
  for (const auto& l : aead_) n += l.unsettled();
  return n;
}

template <typename R>
void AccelService::shedOldest(unsigned tenant, Lane<R>& lane) {
  // The tenant trades its own stalest waiting request for the fresh one;
  // the evicted ticket still resolves (as Shed), never vanishes. Requests
  // already in the device are not eligible, and the Shed verdict waits for
  // them, to keep completion order.
  const auto oldest =
      lane.q.begin() + static_cast<std::ptrdiff_t>(lane.inflight);
  ++stats_.shed;
  lane.shed.push_back(std::move(*oldest));
  lane.q.erase(oldest);
  releaseShed(tenant, lane);
}

SubmitResult AccelService::submit(unsigned tenant, const aes::Block& data,
                                  bool decrypt) {
  ++stats_.offered;
  auto& lane = blocks_.at(tenant);

  // A retired tenant's key is zeroized (or owned by another shard now);
  // nothing may be queued behind it.
  if (!tenant_active_.at(tenant)) {
    return {false, 0, AdmitError::TenantRetired};
  }

  // Global watermark first: when the whole service is saturated, shedding a
  // tenant's own queue would not relieve the pressure — push back on the
  // caller instead.
  if (totalQueued() >= cfg_.global_high_watermark) {
    ++stats_.rejected_backpressure;
    return {false, 0, AdmitError::Backpressure};
  }

  if (lane.waiting() >= tenants_[tenant].queue_depth) {
    if (cfg_.overflow == OverflowPolicy::RejectNew) {
      ++stats_.rejected_queue_full;
      return {false, 0, AdmitError::QueueFull};
    }
    shedOldest(tenant, lane);
  }

  Request req;
  req.ticket = next_ticket_++;
  req.data = data;
  req.decrypt = decrypt;
  req.submit_cycle = acc_.cycle();
  lane.q.push_back(req);
  ++stats_.admitted;
  return {true, req.ticket, AdmitError::QueueFull};
}

std::optional<Completion> AccelService::fetch(unsigned tenant) {
  auto& c = completions_.at(tenant);
  if (c.empty()) return std::nullopt;
  Completion out = std::move(c.front());
  c.pop_front();
  return out;
}

void AccelService::complete(unsigned tenant, const Request& req,
                            CompletionStatus st, ServedBy by,
                            const aes::Block& data) {
  Completion c;
  c.ticket = req.ticket;
  c.tenant = tenant;
  c.status = st;
  c.served_by = by;
  c.data = data;
  c.submit_cycle = req.submit_cycle;
  c.complete_cycle = acc_.cycle();
  completions_.at(tenant).push_back(std::move(c));
  ++settled_;
  if (st == CompletionStatus::Ok) ++completed_per_tenant_.at(tenant);
}

SubmitResult AccelService::submitAead(unsigned tenant, AeadRequest req) {
  ++stats_.offered;
  ++stats_.aead_offered;
  auto& lane = aead_.at(tenant);
  if (!tenant_active_.at(tenant)) {
    return {false, 0, AdmitError::TenantRetired};
  }
  if (totalQueued() >= cfg_.global_high_watermark) {
    ++stats_.rejected_backpressure;
    return {false, 0, AdmitError::Backpressure};
  }
  if (lane.waiting() >= tenants_[tenant].aead_queue_depth) {
    if (cfg_.overflow == OverflowPolicy::RejectNew) {
      ++stats_.rejected_queue_full;
      return {false, 0, AdmitError::QueueFull};
    }
    shedOldest(tenant, lane);
  }
  req.ticket = next_ticket_++;
  req.submit_cycle = acc_.cycle();
  const std::uint64_t ticket = req.ticket;
  lane.q.push_back(std::move(req));
  ++stats_.admitted;
  ++stats_.aead_admitted;
  return {true, ticket, AdmitError::QueueFull};
}

SubmitResult AccelService::submitSeal(unsigned tenant,
                                      const std::vector<std::uint8_t>& plaintext,
                                      const std::vector<std::uint8_t>& aad,
                                      const std::vector<std::uint8_t>& iv) {
  AeadRequest req;
  req.op.open = false;
  req.op.iv = iv;
  req.op.aad = aad;
  req.op.data = plaintext;
  return submitAead(tenant, std::move(req));
}

SubmitResult AccelService::submitOpen(unsigned tenant,
                                      const std::vector<std::uint8_t>& ciphertext,
                                      const std::vector<std::uint8_t>& aad,
                                      const aes::Tag128& tag,
                                      const std::vector<std::uint8_t>& iv) {
  AeadRequest req;
  req.op.open = true;
  req.op.iv = iv;
  req.op.aad = aad;
  req.op.data = ciphertext;
  req.op.tag = tag;
  return submitAead(tenant, std::move(req));
}

std::optional<AeadCompletion> AccelService::fetchAead(unsigned tenant) {
  auto& c = aead_completions_.at(tenant);
  if (c.empty()) return std::nullopt;
  AeadCompletion out = std::move(c.front());
  c.pop_front();
  return out;
}

void AccelService::complete(unsigned tenant, const AeadRequest& req,
                            CompletionStatus st, ServedBy by,
                            std::vector<std::uint8_t> data,
                            const aes::Tag128& tag) {
  AeadCompletion c;
  c.ticket = req.ticket;
  c.tenant = tenant;
  c.status = st;
  c.served_by = by;
  c.data = std::move(data);
  c.tag = tag;
  c.submit_cycle = req.submit_cycle;
  c.complete_cycle = acc_.cycle();
  aead_completions_.at(tenant).push_back(std::move(c));
  ++settled_;
  if (st == CompletionStatus::Ok) ++completed_per_tenant_.at(tenant);
}

void AccelService::logTransitions() {
  const auto& ts = monitor_.transitions();
  for (; logged_transitions_ < ts.size(); ++logged_transitions_) {
    const auto& t = ts[logged_transitions_];
    acc_.noteServiceEvent(0, toString(t.from) + " -> " + toString(t.to) +
                                 ": " + t.reason);
  }
}

void AccelService::applyStateOptions() {
  const accel::SessionOptions opts{
      .timeout_cycles = monitor_.state() == HealthState::Degraded
                            ? cfg_.degraded_timeout_cycles
                            : cfg_.healthy_timeout_cycles};
  for (auto& s : sessions_) s.setOptions(opts);
}

bool AccelService::reprovisionKey(unsigned tenant) {
  // Never resurrect a retired tenant's key: after migration the slot is
  // zeroized on purpose, and re-installing it here would silently undo the
  // handover's security argument.
  if (!tenant_active_[tenant]) return false;
  const auto& spec = tenants_[tenant];
  if (!accel::loadKeyBytes(acc_, spec.user, spec.key_slot, spec.cell_base,
                           spec.key, aes::KeySize::Aes128, spec.key_conf)) {
    return false;
  }
  ++stats_.key_reprovisions;
  return true;
}

// Device cycles charged per software-fallback block, ticked on the
// accelerator so quarantine residency and background scrubbing advance
// while traffic is off the hardware.
constexpr unsigned kFallbackCyclesPerBlock = 40;

void AccelService::serveFallback(unsigned tenant, const Request& req) {
  // The breaker is open: compute in software, but release under exactly the
  // declassification rule the tagged pipeline applies at its exit. A label
  // the hardware would suppress stays suppressed — degraded mode must never
  // become a policy bypass.
  const auto& spec = tenants_[tenant];
  const auto decision = degradedReleaseDecision(
      acc_.principal(spec.user), spec.key_conf);
  // Model the software path's cost on the shared clock so quarantine
  // residency and the background scrub keep advancing.
  acc_.run(kFallbackCyclesPerBlock);
  if (!decision.allowed) {
    ++stats_.fallback_suppressed;
    complete(tenant, req, CompletionStatus::Suppressed,
             ServedBy::SoftwareFallback);
    return;
  }
  const aes::Block out = req.decrypt
                             ? aes::decryptBlock(req.data, golden_[tenant])
                             : aes::encryptBlock(req.data, golden_[tenant]);
  ++stats_.completed_fallback;
  complete(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback, out);
}

namespace {

CompletionStatus failureVerdict(AccelStatus st) {
  switch (st) {
    case AccelStatus::Rejected: return CompletionStatus::Rejected;
    case AccelStatus::FaultAborted: return CompletionStatus::FaultAborted;
    case AccelStatus::Dropped: return CompletionStatus::Dropped;
    default: return CompletionStatus::TimedOut;
  }
}

}  // namespace

bool AccelService::hardwarePath() const {
  const HealthState st = monitor_.state();
  return st == HealthState::Healthy || st == HealthState::Degraded;
}

std::size_t AccelService::inflightCap() const {
  // Enough to keep every stage busy plus the overflow buffer the Fig. 8
  // stall rule parks exits in; more would only queue at the device input.
  return acc_.pipeline().depth() + acc_.config().out_buffer_depth;
}

template <typename R>
std::size_t AccelService::inflightOf(const std::vector<Lane<R>>& lanes) {
  std::size_t n = 0;
  for (const auto& l : lanes) n += l.inflight;
  return n;
}

void AccelService::issueBlock(unsigned tenant) {
  auto& lane = blocks_[tenant];
  Request& req = lane.q[lane.inflight];
  req.session_ticket = sessions_[tenant].beginBatch({req.data}, req.decrypt);
  req.issue_cycle = acc_.cycle();
  ++lane.inflight;
}

void AccelService::issueAead(unsigned tenant) {
  auto& lane = aead_[tenant];
  auto& session = sessions_[tenant];
  const std::uint64_t ticket = session.beginGcm(lane.q[lane.inflight].op);
  lane.q[lane.inflight].session_ticket = ticket;
  ++lane.inflight;
  // The round contract, per op: tick until the op holds a sequencer slot
  // and its AES blocks (H, E(K, J0), keystream) have entered the pipe. The
  // next op then overlaps this one's tail, and no op's issue is stretched
  // by the ops queued behind it. Bounded by the op's watchdog.
  const unsigned user = tenants_[tenant].user;
  while (!session.pollGcm(ticket) &&
         (session.gcmWaitingForSlot(ticket) || acc_.gcm().issuing() ||
          acc_.pendingInputs(user) > 0)) {
    tickAndCollect();
  }
}

void AccelService::collect() {
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    collectBlocks(t);
    collectAead(t);
  }
}

void AccelService::collectBlocks(unsigned t) {
  auto& lane = blocks_[t];
  auto& session = sessions_[t];
  while (lane.inflight > 0) {
    Request& head = lane.q.front();
    if (!session.pollBatch(head.session_ticket)) {
      // Exits settle in order, so only the head can hold the tenant up:
      // past its watchdog it is abandoned (a Timeout health verdict).
      const std::uint64_t age = acc_.cycle() - head.issue_cycle;
      if (age > session.options().timeout_cycles)
        goBack(t, lane, session.finishBatch(head.session_ticket).status());
      break;
    }
    const auto r = session.finishBatch(head.session_ticket);
    if (r.status() == AccelStatus::Ok ||
        r.status() == AccelStatus::Suppressed) {
      const bool ok = r.has_value();
      if (ok) ++stats_.completed_hw;
      complete(t, head,
               ok ? CompletionStatus::Ok : CompletionStatus::Suppressed,
               ServedBy::Hardware, ok ? (*r)[0] : aes::Block{});
      popHead(t, lane);
      continue;
    }
    goBack(t, lane, r.status());
  }
}

void AccelService::collectAead(unsigned t) {
  auto& lane = aead_[t];
  auto& session = sessions_[t];
  while (lane.inflight > 0) {
    AeadRequest& head = lane.q.front();
    // The ticket's own watchdog makes a lost or wedged op terminal.
    if (!session.pollGcm(head.session_ticket)) break;
    auto r = session.finishGcm(head.session_ticket);
    switch (r.status()) {
      case AccelStatus::Ok:
        ++stats_.aead_completed_hw;
        complete(t, head, CompletionStatus::Ok, ServedBy::Hardware,
                 std::move(r->data), r->tag);
        break;
      case AccelStatus::Suppressed:
        complete(t, head, CompletionStatus::Suppressed, ServedBy::Hardware);
        break;
      case AccelStatus::AuthFailed:
        // A tag mismatch is a verdict about the message, not about device
        // health: terminal, never requeued, never failed over to software.
        ++stats_.aead_auth_failed;
        complete(t, head, CompletionStatus::AuthFailed, ServedBy::Hardware);
        break;
      default:
        goBack(t, lane, r.status());
        continue;
    }
    popHead(t, lane);
  }
}

template <typename R>
void AccelService::popHead(unsigned tenant, Lane<R>& lane) {
  lane.q.pop_front();
  --lane.inflight;
  releaseShed(tenant, lane);
}

void AccelService::cancel(unsigned tenant, const Request& req) {
  sessions_[tenant].cancelBatch(req.session_ticket);
}

void AccelService::cancel(unsigned tenant, const AeadRequest& req) {
  sessions_[tenant].cancelGcm(req.session_ticket);
}

template <typename R>
void AccelService::goBack(unsigned tenant, Lane<R>& lane, AccelStatus st) {
  // The head's attempt is already retired; every attempt behind it is
  // abandoned and will be re-issued in order.
  for (std::size_t i = 1; i < lane.inflight; ++i) cancel(tenant, lane.q[i]);
  lane.inflight = 0;

  // A retried head stays at the front: per-tenant order is preserved, and
  // if the breaker trips before the next round the fallback serves it.
  if (retryAfter(tenant, st, lane.q.front().requeues)) return;
  complete(tenant, lane.q.front(), failureVerdict(st), ServedBy::Hardware);
  lane.q.pop_front();
  releaseShed(tenant, lane);
}

template <typename R>
void AccelService::releaseShed(unsigned tenant, Lane<R>& lane) {
  auto& shed = lane.shed;
  std::size_t n = 0;
  while (n < shed.size() &&
         (lane.q.empty() || lane.q.front().ticket > shed[n].ticket)) {
    complete(tenant, shed[n], CompletionStatus::Shed, ServedBy::None);
    ++n;
  }
  shed.erase(shed.begin(), shed.begin() + static_cast<std::ptrdiff_t>(n));
}

bool AccelService::retryAfter(unsigned tenant, AccelStatus st,
                              unsigned& requeues) {
  if (st != AccelStatus::Rejected) ++stats_.hw_transient_failures;
  if (requeues >= cfg_.max_requeues) return false;
  // A submit refusal is typically a fail-secure zeroized slot: the request
  // rides again only if the key can be re-provisioned.
  if (st == AccelStatus::Rejected && !reprovisionKey(tenant)) return false;
  ++requeues;
  ++stats_.requeues;
  return true;
}

void AccelService::tickAndCollect() {
  acc_.tick();
  collect();
}

void AccelService::settleTenant(unsigned tenant) {
  // Terminates: an unexited head goes back to the queue at its watchdog.
  while (blocks_[tenant].inflight > 0 || aead_[tenant].inflight > 0)
    tickAndCollect();
}

void AccelService::settleAll() {
  while (inflightOf(blocks_) > 0 || inflightOf(aead_) > 0) tickAndCollect();
}

void AccelService::serveFallback(unsigned tenant, const AeadRequest& req) {
  // Same contract as the block fallback, lifted to a whole message: the
  // golden software GCM computes the answer, but release still passes the
  // Eq. 1 declassification check, and the shared clock is charged per block
  // so quarantine residency reflects the real work.
  const auto& spec = tenants_[tenant];
  const auto& op = req.op;
  const auto decision =
      degradedReleaseDecision(acc_.principal(spec.user), spec.key_conf);
  const std::uint64_t blocks = (op.data.size() + 15) / 16 +
                               (op.aad.size() + 15) / 16 +
                               (op.iv.size() + 15) / 16 + 2;  // + J0, tag
  acc_.run(kFallbackCyclesPerBlock * blocks);
  if (!decision.allowed) {
    ++stats_.fallback_suppressed;
    complete(tenant, req, CompletionStatus::Suppressed,
             ServedBy::SoftwareFallback);
    return;
  }
  if (op.open) {
    auto pt = aes::gcmDecrypt(op.data, op.aad, op.tag, golden_[tenant], op.iv);
    if (!pt.has_value()) {
      ++stats_.aead_auth_failed;
      complete(tenant, req, CompletionStatus::AuthFailed,
               ServedBy::SoftwareFallback);
      return;
    }
    ++stats_.aead_completed_fallback;
    complete(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback,
             std::move(*pt));
    return;
  }
  auto r = aes::gcmEncrypt(op.data, op.aad, golden_[tenant], op.iv);
  ++stats_.aead_completed_fallback;
  complete(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback,
           std::move(r.ciphertext), r.tag);
}

template <typename R>
void AccelService::serveOne(unsigned tenant, Lane<R>& lane) {
  // In-flight work settles first so completions keep submission order.
  settleTenant(tenant);
  if (lane.q.empty()) return;  // the settle resolved the rest of the queue
  R req = std::move(lane.q.front());
  lane.q.pop_front();
  if (!tenant_active_[tenant]) {
    // A request surfaced for a retired tenant: executing it would use a
    // stale or zeroized key. Refuse, and count the near-miss — the elastic
    // pool's invariant is that this counter stays 0.
    ++stats_.wrong_key_uses;
    complete(tenant, req, CompletionStatus::Rejected, ServedBy::None);
  } else {
    serveFallback(tenant, req);
  }
  releaseShed(tenant, lane);
}

void AccelService::sampleWindowIfDue() {
  if (acc_.cycle() < window_start_cycle_ + cfg_.health.window_cycles) return;
  accel::SessionTelemetry now;
  for (const auto& s : sessions_) now += s.telemetry();
  accel::SessionTelemetry d = now;
  d.ok -= window_base_.ok;
  d.suppressed -= window_base_.suppressed;
  d.timeouts -= window_base_.timeouts;
  d.fault_aborts -= window_base_.fault_aborts;
  d.drops -= window_base_.drops;
  d.rejected -= window_base_.rejected;
  d.auth_failed -= window_base_.auth_failed;

  RobustnessStats w;
  w.timeouts = d.timeouts;
  w.fault_aborts = d.fault_aborts;
  w.drops = d.drops;
  const HealthState before = monitor_.state();
  // Deterministic refusals (rejected, suppressed) say nothing about device
  // health — counting them would dilute the transient rate exactly when the
  // service is churning through key reprovisions. The denominator is only
  // the verdicts a healthy device would have completed. Auth-tag mismatches
  // are likewise message verdicts, not device health, and stay out of both
  // numerator and denominator.
  const std::uint64_t ops = d.ok + d.timeouts + d.fault_aborts + d.drops;
  monitor_.onWindow(w, ops, d.ok, acc_.cycle());
  window_start_cycle_ = acc_.cycle();
  window_base_ = now;
  if (monitor_.state() != before) {
    logTransitions();
    applyStateOptions();
  }
}

void AccelService::runCanaries() {
  ++stats_.canary_rounds;
  bool all_ok = !tenants_.empty();
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    // Retired tenants have no key on this shard (zeroized at migration);
    // probing them would re-provision a key that must stay gone.
    if (!tenant_active_[t]) continue;
    const auto& spec = tenants_[t];
    // Fail-secure zeroization may have destroyed the slot while the device
    // was sick; a canary round re-provisions before probing.
    if (!acc_.roundKeys().valid(spec.key_slot) && !reprovisionKey(t)) {
      all_ok = false;
      continue;
    }
    aes::Block pt;
    for (unsigned i = 0; i < 16; ++i)
      pt[i] = static_cast<std::uint8_t>(i ^ (t * 0x11));
    auto& session = sessions_[t];
    session.setOptions(cfg_.canary_opts);
    const auto got = session.encryptBlock(pt);
    // A tenant whose label forbids release to itself (the master-key
    // pattern) can never show the probe its ciphertext: healthy hardware
    // suppresses it. For such a tenant the expected canary verdict IS
    // suppression — anything else (timeout, abort, wrong data) still fails.
    const bool release_allowed =
        degradedReleaseDecision(acc_.principal(spec.user), spec.key_conf)
            .allowed;
    if (release_allowed) {
      const aes::Block want = aes::encryptBlock(pt, golden_[t]);
      if (!got.has_value() || *got != want) all_ok = false;
    } else if (got.has_value() ||
               got.status() != accel::AccelStatus::Suppressed) {
      all_ok = false;
    }
  }
  if (!all_ok) ++stats_.canary_failures;
  monitor_.onCanaryVerdict(all_ok, acc_.cycle());
  logTransitions();
  applyStateOptions();
}

unsigned AccelService::pump() {
  const std::uint64_t settled_before = settled_;
  if (monitor_.state() == HealthState::Quarantined &&
      monitor_.tryBeginProbation(acc_.cycle())) {
    logTransitions();
    settleAll();  // canaries are synchronous session calls
    runCanaries();
  }

  const unsigned n = static_cast<unsigned>(tenants_.size());
  const unsigned quota = cfg_.quota_per_round;
  std::vector<unsigned> served(n, 0);  // quota units used, per tenant
  for (unsigned k = 0; k < n; ++k) {
    const unsigned t = (rr_next_ + k) % n;
    auto& ops = aead_[t];
    auto& blocks = blocks_[t];
    if (hardwarePath() && tenant_active_[t]) {
      // Blocks first, from the quota a unit per issuable AEAD op leaves:
      // they enter the pipe while the AEAD pass below ticks.
      const std::size_t held = std::min<std::size_t>(
          {quota, ops.waiting(), accel::kGcmOps - inflightOf(aead_)});
      for (; served[t] + held < quota && blocks.waiting() > 0 &&
             inflightOf(blocks_) < inflightCap();
           ++served[t])
        issueBlock(t);
    } else {
      for (; served[t] < quota && !ops.q.empty(); ++served[t])
        serveOne(t, ops);
      for (; served[t] < quota && !blocks.q.empty(); ++served[t])
        serveOne(t, blocks);
    }
  }
  // Then AEAD, shortest op (fewest payload blocks: public traffic shape)
  // first across tenants; ops the kGcmOps cap passed over go first, oldest
  // first, so none waits forever behind short ones (round contract, step 2).
  while (hardwarePath()) {
    const bool capped = inflightOf(aead_) >= accel::kGcmOps;
    unsigned pick = n;
    std::pair<std::uint64_t, std::size_t> first{};  // (passed over, blocks)
    for (unsigned k = 0; k < n; ++k) {
      const unsigned t = (rr_next_ + k) % n;
      auto& ops = aead_[t];
      if (!tenant_active_[t] || served[t] >= quota || ops.waiting() == 0)
        continue;
      if (capped && ops.passed_over == 0) ops.passed_over = acc_.cycle() + 1;
      const std::pair<std::uint64_t, std::size_t> key{
          ops.passed_over ? ops.passed_over : UINT64_MAX,
          (ops.q[ops.inflight].op.data.size() + 15) / 16};
      if (pick == n || key < first) {
        pick = t;
        first = key;
      }
    }
    if (pick == n || capped) break;
    aead_[pick].passed_over = 0;
    issueAead(pick);
    ++served[pick];
  }
  if (n) rr_next_ = (rr_next_ + 1) % n;

  // Tick at least once, so the clock and quarantine residency move even when
  // every queue is empty, and until this round's blocks have entered the
  // pipe. Bounded: a wedged pipe trips the head watchdogs, which take the
  // blocks back.
  auto waitingAtInput = [&] {
    for (unsigned t = 0; t < n; ++t) {
      if (blocks_[t].inflight > 0 && acc_.pendingInputs(tenants_[t].user) > 0)
        return true;
    }
    return false;
  };
  do tickAndCollect(); while (waitingAtInput());

  sampleWindowIfDue();
  return static_cast<unsigned>(settled_ - settled_before);
}

void AccelService::runUntilIdle(std::uint64_t max_device_cycles) {
  const std::uint64_t start = acc_.cycle();
  while (totalQueued() > 0 && acc_.cycle() - start < max_device_cycles) {
    pump();
  }
  logTransitions();
}

}  // namespace aesifc::soc
