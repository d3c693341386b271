#include "soc/service.h"

#include <sstream>
#include <stdexcept>

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
  sessions_.emplace_back(acc_, spec.user, spec.key_slot, cfg_.healthy_opts);
  golden_.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
  queues_.emplace_back();
  inflight_.push_back(0);
  shed_.emplace_back();
  completions_.emplace_back();
  aead_queues_.emplace_back();
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
    return queues_.at(tenant).empty() && aead_queues_.at(tenant).empty() &&
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
  for (const auto& q : queues_) n += q.size();
  for (const auto& q : shed_) n += q.size();
  for (const auto& q : aead_queues_) n += q.size();
  return n;
}

SubmitResult AccelService::submit(unsigned tenant, const aes::Block& data,
                                  bool decrypt) {
  ++stats_.offered;
  auto& q = queues_.at(tenant);

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

  const std::size_t waiting = q.size() - inflight_.at(tenant);
  if (waiting >= tenants_[tenant].queue_depth) {
    if (cfg_.overflow == OverflowPolicy::RejectNew) {
      ++stats_.rejected_queue_full;
      return {false, 0, AdmitError::QueueFull};
    }
    // ShedOldest: the tenant trades its own stalest waiting request for the
    // fresh one; the evicted ticket still resolves (as Shed), never
    // vanishes. Blocks already in the device are not eligible.
    const auto oldest =
        q.begin() + static_cast<std::ptrdiff_t>(inflight_[tenant]);
    ++stats_.shed;
    // Its verdict still waits for the older blocks in flight, to keep
    // completion order.
    shed_[tenant].push_back(std::move(*oldest));
    q.erase(oldest);
    releaseShed(tenant);
  }

  Request req;
  req.ticket = next_ticket_++;
  req.data = data;
  req.decrypt = decrypt;
  req.submit_cycle = acc_.cycle();
  q.push_back(req);
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
  auto& q = aead_queues_.at(tenant);
  if (!tenant_active_.at(tenant)) {
    return {false, 0, AdmitError::TenantRetired};
  }
  if (totalQueued() >= cfg_.global_high_watermark) {
    ++stats_.rejected_backpressure;
    return {false, 0, AdmitError::Backpressure};
  }
  if (q.size() >= tenants_[tenant].aead_queue_depth) {
    if (cfg_.overflow == OverflowPolicy::RejectNew) {
      ++stats_.rejected_queue_full;
      return {false, 0, AdmitError::QueueFull};
    }
    AeadRequest victim = std::move(q.front());
    q.pop_front();
    ++stats_.shed;
    completeAead(tenant, victim, CompletionStatus::Shed, ServedBy::None, {},
                 aes::Tag128{});
  }
  req.ticket = next_ticket_++;
  req.submit_cycle = acc_.cycle();
  const std::uint64_t ticket = req.ticket;
  q.push_back(std::move(req));
  ++stats_.admitted;
  ++stats_.aead_admitted;
  return {true, ticket, AdmitError::QueueFull};
}

SubmitResult AccelService::submitSeal(unsigned tenant,
                                      const std::vector<std::uint8_t>& plaintext,
                                      const std::vector<std::uint8_t>& aad,
                                      const std::vector<std::uint8_t>& iv) {
  AeadRequest req;
  req.open = false;
  req.iv = iv;
  req.aad = aad;
  req.data = plaintext;
  return submitAead(tenant, std::move(req));
}

SubmitResult AccelService::submitOpen(unsigned tenant,
                                      const std::vector<std::uint8_t>& ciphertext,
                                      const std::vector<std::uint8_t>& aad,
                                      const aes::Tag128& tag,
                                      const std::vector<std::uint8_t>& iv) {
  AeadRequest req;
  req.open = true;
  req.iv = iv;
  req.aad = aad;
  req.data = ciphertext;
  req.tag = tag;
  return submitAead(tenant, std::move(req));
}

std::optional<AeadCompletion> AccelService::fetchAead(unsigned tenant) {
  auto& c = aead_completions_.at(tenant);
  if (c.empty()) return std::nullopt;
  AeadCompletion out = std::move(c.front());
  c.pop_front();
  return out;
}

void AccelService::completeAead(unsigned tenant, const AeadRequest& req,
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
  const auto& opts = monitor_.state() == HealthState::Degraded
                         ? cfg_.degraded_opts
                         : cfg_.healthy_opts;
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
  acc_.run(cfg_.fallback_cycles_per_block);
  if (!decision.allowed) {
    ++stats_.fallback_suppressed;
    complete(tenant, req, CompletionStatus::Suppressed,
             ServedBy::SoftwareFallback, aes::Block{});
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

void AccelService::issue(unsigned tenant) {
  Request& req = queues_[tenant][inflight_[tenant]];
  req.session_ticket = sessions_[tenant].beginBatch({req.data}, req.decrypt);
  req.issue_cycle = acc_.cycle();
  ++inflight_[tenant];
  ++inflight_total_;
}

void AccelService::collect() {
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    auto& q = queues_[t];
    auto& session = sessions_[t];
    while (inflight_[t] > 0) {
      Request& head = q.front();
      if (!session.pollBatch(head.session_ticket)) {
        // Exits settle in order, so only the head can hold the tenant up:
        // past its watchdog it is abandoned (a Timeout health verdict).
        const std::uint64_t age = acc_.cycle() - head.issue_cycle;
        if (age > session.options().timeout_cycles)
          goBack(t, session.finishBatch(head.session_ticket).status());
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
        q.pop_front();
        --inflight_[t];
        --inflight_total_;
        releaseShed(t);
        continue;
      }
      goBack(t, r.status());
    }
  }
}

void AccelService::goBack(unsigned tenant, AccelStatus st) {
  auto& q = queues_[tenant];
  // The head's attempt is already retired; every attempt behind it is
  // abandoned and will be re-issued in order.
  for (std::size_t i = 1; i < inflight_[tenant]; ++i)
    sessions_[tenant].cancelBatch(q[i].session_ticket);
  inflight_total_ -= inflight_[tenant];
  inflight_[tenant] = 0;

  // A retried head stays at the front: per-tenant order is preserved, and
  // if the breaker trips before the next round the fallback serves it.
  if (retryAfter(tenant, st, q.front().requeues)) return;
  complete(tenant, q.front(), failureVerdict(st), ServedBy::Hardware,
           aes::Block{});
  q.pop_front();
  releaseShed(tenant);
}

void AccelService::releaseShed(unsigned tenant) {
  auto& shed = shed_[tenant];
  const auto& q = queues_[tenant];
  std::size_t n = 0;
  while (n < shed.size() &&
         (q.empty() || q.front().ticket > shed[n].ticket)) {
    complete(tenant, shed[n], CompletionStatus::Shed, ServedBy::None,
             aes::Block{});
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
  while (inflight_[tenant] > 0) tickAndCollect();
}

void AccelService::settleAll() {
  while (inflight_total_ > 0) tickAndCollect();
}

void AccelService::serveAeadFallback(unsigned tenant, const AeadRequest& req) {
  // Same contract as serveFallback, lifted to a whole message: the golden
  // software GCM computes the answer, but release still passes the Eq. 1
  // declassification check, and the shared clock is charged per block so
  // quarantine residency reflects the real work.
  const auto& spec = tenants_[tenant];
  const auto decision =
      degradedReleaseDecision(acc_.principal(spec.user), spec.key_conf);
  const std::uint64_t blocks = (req.data.size() + 15) / 16 +
                               (req.aad.size() + 15) / 16 +
                               (req.iv.size() + 15) / 16 + 2;  // + J0, tag
  acc_.run(cfg_.fallback_cycles_per_block * blocks);
  if (!decision.allowed) {
    ++stats_.fallback_suppressed;
    completeAead(tenant, req, CompletionStatus::Suppressed,
                 ServedBy::SoftwareFallback, {}, aes::Tag128{});
    return;
  }
  if (req.open) {
    auto pt = aes::gcmDecrypt(req.data, req.aad, req.tag, golden_[tenant],
                              req.iv);
    if (!pt.has_value()) {
      ++stats_.aead_auth_failed;
      completeAead(tenant, req, CompletionStatus::AuthFailed,
                   ServedBy::SoftwareFallback, {}, aes::Tag128{});
      return;
    }
    ++stats_.aead_completed_fallback;
    completeAead(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback,
                 std::move(*pt), aes::Tag128{});
    return;
  }
  auto r = aes::gcmEncrypt(req.data, req.aad, golden_[tenant], req.iv);
  ++stats_.aead_completed_fallback;
  completeAead(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback,
               std::move(r.ciphertext), r.tag);
}

void AccelService::serveAeadHardware(unsigned tenant, AeadRequest req) {
  auto& session = sessions_[tenant];
  AccelStatus st;
  std::vector<std::uint8_t> out;
  aes::Tag128 tag{};
  if (req.open) {
    auto r = session.gcmOpen(req.data, req.aad, req.tag, req.iv);
    st = r.status();
    if (r.has_value()) out = std::move(*r);
  } else {
    auto r = session.gcmSeal(req.data, req.aad, req.iv);
    st = r.status();
    if (r.has_value()) {
      out = std::move(r->ciphertext);
      tag = r->tag;
    }
  }
  switch (st) {
    case AccelStatus::Ok:
      ++stats_.aead_completed_hw;
      completeAead(tenant, req, CompletionStatus::Ok, ServedBy::Hardware,
                   std::move(out), tag);
      return;
    case AccelStatus::Suppressed:
      completeAead(tenant, req, CompletionStatus::Suppressed,
                   ServedBy::Hardware, {}, aes::Tag128{});
      return;
    case AccelStatus::AuthFailed:
      // A tag mismatch is a verdict about the message, not about device
      // health: terminal, never requeued, never failed over to software.
      ++stats_.aead_auth_failed;
      completeAead(tenant, req, CompletionStatus::AuthFailed,
                   ServedBy::Hardware, {}, aes::Tag128{});
      return;
    default:
      break;
  }
  if (retryAfter(tenant, st, req.requeues)) {
    aead_queues_[tenant].push_front(std::move(req));
    return;
  }
  completeAead(tenant, req, failureVerdict(st), ServedBy::Hardware, {},
               aes::Tag128{});
}

void AccelService::serveAead(unsigned tenant, AeadRequest req) {
  if (!tenant_active_[tenant]) {
    // A request surfaced for a retired tenant: executing it would use a
    // stale or zeroized key. Refuse, and count the near-miss — the elastic
    // pool's invariant is that this counter stays 0.
    ++stats_.wrong_key_uses;
    completeAead(tenant, req, CompletionStatus::Rejected, ServedBy::None, {},
                 aes::Tag128{});
    return;
  }
  if (hardwarePath()) {
    settleTenant(tenant);
    serveAeadHardware(tenant, std::move(req));
  } else {
    serveAeadFallback(tenant, req);
  }
}

void AccelService::serveOne(unsigned tenant) {
  // In-flight blocks settle first so completions keep submission order.
  settleTenant(tenant);
  auto& q = queues_[tenant];
  if (q.empty()) return;  // the settle resolved the rest of the queue
  Request req = std::move(q.front());
  q.pop_front();
  if (!tenant_active_[tenant]) {
    ++stats_.wrong_key_uses;
    complete(tenant, req, CompletionStatus::Rejected, ServedBy::None,
             aes::Block{});
  } else {
    serveFallback(tenant, req);
  }
  releaseShed(tenant);
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
  // One idle cycle per round models scheduling overhead and, crucially,
  // keeps the device clock (and quarantine residency) moving even when all
  // queues are empty.
  tickAndCollect();

  if (monitor_.state() == HealthState::Quarantined &&
      monitor_.tryBeginProbation(acc_.cycle())) {
    logTransitions();
    settleAll();  // canaries are synchronous session calls
    runCanaries();
  }

  const unsigned n = static_cast<unsigned>(tenants_.size());
  for (unsigned k = 0; k < n; ++k) {
    const unsigned t = (rr_next_ + k) % n;
    unsigned served = 0;
    // AEAD first: one whole GCM op is one quota unit, and serving it ahead
    // of the block queue keeps a long message from starving behind blocks.
    while (served < cfg_.quota_per_round && !aead_queues_[t].empty()) {
      AeadRequest areq = std::move(aead_queues_[t].front());
      aead_queues_[t].pop_front();
      serveAead(t, std::move(areq));
      ++served;
    }
    auto& q = queues_[t];
    if (hardwarePath() && tenant_active_[t]) {
      for (; served < cfg_.quota_per_round && inflight_[t] < q.size() &&
             inflight_total_ < inflightCap();
           ++served) {
        issue(t);
      }
    } else {
      for (; served < cfg_.quota_per_round && !q.empty(); ++served)
        serveOne(t);
    }
  }
  if (n) rr_next_ = (rr_next_ + 1) % n;

  // Tick until this round's blocks have entered the pipe. Bounded: a wedged
  // pipe trips the head watchdogs, which take the blocks back.
  auto waitingAtInput = [&] {
    for (unsigned t = 0; t < n; ++t) {
      if (inflight_[t] > 0 && acc_.pendingInputs(tenants_[t].user) > 0)
        return true;
    }
    return false;
  };
  while (waitingAtInput()) tickAndCollect();

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
