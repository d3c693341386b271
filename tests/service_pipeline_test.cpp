// Pipelined cross-tenant issue in AccelService: fail-live ordering and
// recovery (go-back-N on a failed head, exactly one verdict per ticket,
// within a stated cycle bound), health telemetry that ignores abandoned
// attempts, barriers (drain, migration, canaries) that see blocks and
// AEAD ops still inside the device, and shortest-first AEAD issue across
// tenants.

#include <gtest/gtest.h>

#include <algorithm>

#include "aes/cipher.h"
#include "aes/gcm.h"
#include "soc/pool.h"
#include "soc/service.h"

namespace aesifc::soc {
namespace {

using accel::AccelSession;
using accel::AesAccelerator;
using accel::FaultSite;
using lattice::Conf;
using lattice::Principal;

std::vector<std::uint8_t> keyOf(unsigned tenant) {
  std::vector<std::uint8_t> k(16);
  for (unsigned i = 0; i < 16; ++i)
    k[i] = static_cast<std::uint8_t>(0x52 + 11 * tenant + i);
  return k;
}

aes::Block blockOf(unsigned tenant, unsigned i) {
  aes::Block b;
  for (unsigned j = 0; j < 16; ++j)
    b[j] = static_cast<std::uint8_t>(tenant * 0x31 + i * 7 + j);
  return b;
}

std::vector<std::uint8_t> bytesOf(unsigned tenant, unsigned i,
                                  std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t j = 0; j < n; ++j)
    v[j] = static_cast<std::uint8_t>(tenant * 0x3d + i * 13 + j);
  return v;
}

std::vector<std::uint8_t> ivOf(unsigned tenant, unsigned i) {
  return bytesOf(tenant + 7, i, 12);
}

struct Rig {
  AesAccelerator acc{accel::AcceleratorConfig{}};
  AccelService svc;
  std::vector<unsigned> tenants;
  std::vector<unsigned> users;
  std::vector<aes::ExpandedKey> golden;

  Rig(unsigned n, ServiceConfig cfg, std::size_t queue_depth = 16,
      std::size_t aead_queue_depth = 8)
      : svc{acc, cfg} {
    acc.addUser(Principal::supervisor());
    for (unsigned t = 0; t < n; ++t) {
      users.push_back(
          acc.addUser(Principal::user("t" + std::to_string(t), t + 1)));
      TenantSpec spec;
      spec.user = users.back();
      spec.key_slot = t + 1;
      spec.cell_base = 2 * t;
      spec.key = keyOf(t);
      spec.key_conf = Conf::category(t + 1);
      spec.queue_depth = queue_depth;
      spec.aead_queue_depth = aead_queue_depth;
      tenants.push_back(svc.addTenant(spec));
      golden.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
    }
  }
};

// One tenant's closed loop: tickets in submission order, and what they
// resolved to.
struct Stream {
  std::vector<std::uint64_t> tickets;
  std::vector<aes::Block> inputs;
  std::vector<Completion> verdicts;
};

// Fault aborts (stage parity squash), lost responses (the head's watchdog
// fires) and duplicated responses, injected while several tenants' blocks
// share the pipe. Every ticket must resolve exactly once, in submission
// order, never with wrong data, and within the stated bound.
TEST(ServicePipeline, FaultAbortsAndDropsMidWindowKeepOneVerdictPerTicket) {
  ServiceConfig cfg;
  cfg.healthy_timeout_cycles = 128;
  cfg.degraded_timeout_cycles = 128;
  constexpr unsigned kTenants = 3, kBlocks = 64, kWindow = 8;
  Rig r{kTenants, cfg};

  unsigned aborts = 0, drops = 0, dups = 0;
  bool drop_armed = false, dup_armed = false;
  r.acc.setTickHook([&] {
    const std::uint64_t c = r.acc.cycle();
    if (c % 37 == 0) {
      for (unsigned s = 0; s < r.acc.pipeline().depth(); ++s) {
        const unsigned stage = (s + static_cast<unsigned>(c)) %
                               r.acc.pipeline().depth();
        if (!r.acc.pipeline().stage(stage).valid) continue;
        if (r.acc.injectFault(FaultSite::StageData, stage, c % 128)) ++aborts;
        break;
      }
    }
    // Every 89 (61) cycles arm a lost (duplicated) response; it hits the
    // next response any tenant receives.
    drop_armed |= c % 89 == 0;
    dup_armed |= c % 61 == 0;
    for (const unsigned u : r.users) {
      if (drop_armed && r.acc.injectDropOutput(u)) {
        drop_armed = false;
        ++drops;
      }
      if (dup_armed && r.acc.injectDuplicateOutput(u)) {
        dup_armed = false;
        ++dups;
      }
    }
  });

  std::vector<Stream> st(kTenants);
  std::uint64_t guard = 0;
  auto outstanding = [&](unsigned t) {
    return st[t].tickets.size() - st[t].verdicts.size();
  };
  while (guard++ < 20000) {
    bool done = true;
    for (unsigned t = 0; t < kTenants; ++t) {
      while (st[t].tickets.size() < kBlocks && outstanding(t) < kWindow) {
        const aes::Block in =
            blockOf(t, static_cast<unsigned>(st[t].tickets.size()));
        const auto sr = r.svc.submit(r.tenants[t], in);
        ASSERT_TRUE(sr.admitted);
        st[t].tickets.push_back(sr.ticket);
        st[t].inputs.push_back(in);
      }
      done &= st[t].verdicts.size() == kBlocks;
    }
    if (done) break;
    r.svc.pump();
    for (unsigned t = 0; t < kTenants; ++t)
      while (auto c = r.svc.fetch(r.tenants[t])) st[t].verdicts.push_back(*c);
  }
  r.acc.setTickHook(nullptr);
  EXPECT_GT(aborts, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);

  // Stated bound: a block waits behind at most kWindow - 1 older blocks of
  // its tenant; each of those (and the block itself) can cost at most
  // (max_requeues + 1) attempts, and an attempt lasts at most one watchdog
  // plus an in-flight cap's worth of issue and exit.
  const std::uint64_t cap =
      r.acc.pipeline().depth() + r.acc.config().out_buffer_depth;
  const std::uint64_t bound = kWindow * (cfg.max_requeues + 1) *
                              (cfg.healthy_timeout_cycles + 2 * cap);
  unsigned ok = 0;
  for (unsigned t = 0; t < kTenants; ++t) {
    ASSERT_EQ(st[t].verdicts.size(), kBlocks) << "tenant " << t;
    for (unsigned i = 0; i < kBlocks; ++i) {
      const Completion& c = st[t].verdicts[i];
      // Exactly one verdict per ticket, surfacing in submission order.
      EXPECT_EQ(c.ticket, st[t].tickets[i]) << "tenant " << t << " op " << i;
      EXPECT_LE(c.complete_cycle - c.submit_cycle, bound);
      if (c.status == CompletionStatus::Ok) {
        ++ok;
        EXPECT_EQ(c.data, aes::encryptBlock(st[t].inputs[i], r.golden[t]));
      } else {
        EXPECT_EQ(c.data, aes::Block{}) << "non-Ok verdict released data";
      }
    }
    EXPECT_FALSE(r.svc.fetch(r.tenants[t]).has_value());
  }
  EXPECT_GT(ok, kTenants * kBlocks / 2);
  EXPECT_EQ(r.svc.totalQueued(), 0u);
}

// An abandoned attempt (a block behind a failed head) is re-issued, not
// judged: session telemetry holds exactly one verdict per finished attempt.
TEST(ServicePipeline, AbandonedAttemptsAreNotHealthVerdicts) {
  ServiceConfig cfg;
  cfg.quota_per_round = 16;
  Rig r{1, cfg};
  for (unsigned i = 0; i < 16; ++i)
    ASSERT_TRUE(r.svc.submit(0, blockOf(0, i)).admitted);
  // Squash the oldest block once every block has entered the pipe: the
  // other 15 are in flight behind it and go back with it.
  bool fired = false;
  r.acc.setTickHook([&] {
    const unsigned last = r.acc.pipeline().depth() - 1;
    if (!fired && r.acc.pendingInputs(r.users[0]) == 0 &&
        r.acc.pipeline().stage(last).valid) {
      fired = r.acc.injectFault(FaultSite::StageData, last, 3);
    }
  });
  r.svc.runUntilIdle(1u << 16);
  r.acc.setTickHook(nullptr);
  ASSERT_TRUE(fired);

  unsigned n = 0;
  while (auto c = r.svc.fetch(0)) {
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    EXPECT_EQ(c->data, aes::encryptBlock(blockOf(0, n), r.golden[0]));
    ++n;
  }
  EXPECT_EQ(n, 16u);
  const auto& tel = r.svc.session(0).telemetry();
  EXPECT_EQ(tel.ok, 16u);
  EXPECT_EQ(tel.fault_aborts, 1u);  // the head, and only the head
  EXPECT_EQ(tel.timeouts, 0u);
  EXPECT_EQ(r.svc.stats().hw_transient_failures, 1u);
  EXPECT_EQ(r.svc.stats().requeues, 1u);
}

TEST(ServicePipeline, CancelledTicketRecordsNoTelemetry) {
  AesAccelerator acc{accel::AcceleratorConfig{}};
  const unsigned u = acc.addUser(Principal::user("a", 1));
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, keyOf(0), Conf::category(1)));
  AccelSession s{acc, u, 1};
  const auto keep = s.beginBatch({blockOf(0, 0)}, false);
  const auto drop = s.beginBatch({blockOf(0, 1)}, false);
  s.cancelBatch(drop);
  const auto res = s.finishBatch(keep, 1000);
  ASSERT_TRUE(res.has_value());
  acc.run(64);  // the cancelled block's late response arrives...
  EXPECT_TRUE(s.pollBatch(drop));  // ...and is dropped: the ticket is gone
  EXPECT_EQ(s.asyncOutstanding(), 0u);
  EXPECT_EQ(s.telemetry().operations(), 1u);
  EXPECT_EQ(s.telemetry().ok, 1u);
}

// totalQueued / drainTenant / runUntilIdle see blocks inside the device.
TEST(ServicePipeline, BarriersCountInFlightBlocks) {
  ServiceConfig cfg;
  cfg.quota_per_round = 8;
  Rig r{2, cfg};
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(r.svc.submit(0, blockOf(0, i)).admitted);
    ASSERT_TRUE(r.svc.submit(1, blockOf(1, i)).admitted);
  }
  r.svc.pump();  // issues everything; nothing has exited yet
  EXPECT_EQ(r.svc.totalQueued(), 16u);
  EXPECT_EQ(r.svc.queued(0), 8u);
  EXPECT_FALSE(r.svc.fetch(0).has_value());
  ASSERT_TRUE(r.svc.drainTenant(0, 1u << 12));
  EXPECT_EQ(r.svc.queued(0), 0u);
  unsigned n = 0;
  while (r.svc.fetch(0)) ++n;
  EXPECT_EQ(n, 8u);
  r.svc.runUntilIdle(1u << 12);
  EXPECT_EQ(r.svc.totalQueued(), 0u);
}

// ShedOldest evicts the oldest request still waiting to issue; its Shed
// verdict surfaces after the older blocks in flight, never ahead of them.
TEST(ServicePipeline, ShedVerdictKeepsOrderBehindInFlightBlocks) {
  ServiceConfig cfg;
  cfg.quota_per_round = 4;
  Rig r{1, cfg};  // queue depth 16 waiting requests
  std::vector<std::uint64_t> tickets;
  for (unsigned i = 0; i < 24; ++i) {
    const auto sr = r.svc.submit(0, blockOf(0, i));
    ASSERT_TRUE(sr.admitted);
    tickets.push_back(sr.ticket);
    if (i == 15) r.svc.pump();  // blocks 0-3 in flight, 4-15 waiting
  }
  // The last four offers overflow the 16-deep waiting queue: blocks 4-7
  // are shed.
  EXPECT_EQ(r.svc.stats().shed, 4u);
  EXPECT_FALSE(r.svc.fetch(0).has_value());  // nothing jumps the queue
  r.svc.runUntilIdle(1u << 14);
  for (unsigned i = 0; i < 24; ++i) {
    auto c = r.svc.fetch(0);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->ticket, tickets[i]);
    EXPECT_EQ(c->status, i >= 4 && i < 8 ? CompletionStatus::Shed
                                         : CompletionStatus::Ok);
  }
  EXPECT_EQ(r.svc.totalQueued(), 0u);
}

// Two tenants on one accelerator user would share its device output queue
// while both have blocks in flight; the service refuses the second.
TEST(ServicePipeline, SecondTenantOnOneUserIsRefused) {
  Rig r{1, ServiceConfig{}};
  TenantSpec spec = r.svc.tenantSpec(0);
  spec.key_slot = 5;
  EXPECT_FALSE(r.svc.tryAddTenant(spec).has_value());
  r.svc.deactivateTenant(0);
  EXPECT_TRUE(r.svc.tryAddTenant(spec).has_value());  // the user is free
}

// Probation canaries are synchronous session calls; in-flight blocks must
// settle first or the canary's drain would strand their verdicts.
TEST(ServicePipeline, CanariesRunOnlyAfterInFlightBlocksSettle) {
  ServiceConfig cfg;
  cfg.quota_per_round = 8;
  cfg.health.quarantine_residency_cycles = 0;
  Rig r{2, cfg};
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(r.svc.submit(0, blockOf(0, i)).admitted);
    ASSERT_TRUE(r.svc.submit(1, blockOf(1, i)).admitted);
  }
  r.svc.pump();
  ASSERT_EQ(r.svc.totalQueued(), 16u);
  r.svc.forceQuarantine("test: trip with blocks in flight");
  r.svc.runUntilIdle(1u << 14);
  EXPECT_GE(r.svc.stats().canary_rounds, 1u);
  // No block was stranded and recovered by its watchdog: each settled on
  // its first attempt.
  EXPECT_EQ(r.svc.stats().hw_transient_failures, 0u);
  for (unsigned t = 0; t < 2; ++t) {
    unsigned n = 0;
    while (auto c = r.svc.fetch(t)) {
      EXPECT_EQ(c->status, CompletionStatus::Ok);
      EXPECT_EQ(c->served_by, ServedBy::Hardware);
      EXPECT_EQ(c->data, aes::encryptBlock(blockOf(t, n), r.golden[t]));
      ++n;
    }
    EXPECT_EQ(n, 8u) << "tenant " << t;
  }
}

// When the breaker opens with blocks in flight, those settle on hardware
// first and the software fallback takes over behind them, in order.
TEST(ServicePipeline, FallbackTakesOverBehindInFlightBlocks) {
  ServiceConfig cfg;
  cfg.health.quarantine_residency_cycles = 1ull << 40;
  Rig r{1, cfg};
  std::vector<std::uint64_t> tickets;
  for (unsigned i = 0; i < 16; ++i)
    tickets.push_back(r.svc.submit(0, blockOf(0, i)).ticket);
  r.svc.pump();  // quota 4: blocks 0-3 in flight
  r.svc.forceQuarantine("test: trip with blocks in flight");
  r.svc.runUntilIdle(1u << 14);
  for (unsigned i = 0; i < 16; ++i) {
    auto c = r.svc.fetch(0);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->ticket, tickets[i]);
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    EXPECT_EQ(c->served_by, i < 4 ? ServedBy::Hardware
                                  : ServedBy::SoftwareFallback);
    EXPECT_EQ(c->data, aes::encryptBlock(blockOf(0, i), r.golden[0]));
  }
  EXPECT_FALSE(r.svc.fetch(0).has_value());
}

// A go-back-N leaves the cancelled attempts in the device; if the rest of
// the queue is then served in software, those attempts can outlive every
// request. The drain barrier must wait until none is left at the input.
TEST(ServicePipeline, DrainWaitsForCancelledAttemptsAtDeviceInput) {
  ServiceConfig cfg;
  cfg.quota_per_round = 40;
  cfg.max_requeues = 0;
  cfg.healthy_timeout_cycles = 64;
  cfg.health.quarantine_residency_cycles = 1ull << 40;
  Rig r{1, cfg, /*queue_depth=*/40};
  for (unsigned i = 0; i < 40; ++i)
    ASSERT_TRUE(r.svc.submit(0, blockOf(0, i)).admitted);
  // The tenant stops reading: the granted stall freezes the pipe with 30
  // of its blocks inside and the rest at the device input.
  r.acc.setReceiverReady(r.users[0], false);
  r.svc.pump();  // the head's watchdog fires: TimedOut, the rest go back
  r.svc.forceQuarantine("test: software serves the rest");
  EXPECT_FALSE(r.svc.drainTenant(0, 4096));  // the queue empties, but...
  EXPECT_EQ(r.svc.queued(0), 0u);
  EXPECT_GT(r.acc.pendingInputs(r.users[0]), 0u);  // ...the device is not
  r.acc.setReceiverReady(r.users[0], true);
  EXPECT_TRUE(r.svc.drainTenant(0, 4096));
  EXPECT_EQ(r.acc.pendingInputs(r.users[0]), 0u);
  unsigned n = 0;
  while (auto c = r.svc.fetch(0)) {
    EXPECT_EQ(c->status, n == 0 ? CompletionStatus::TimedOut
                                : CompletionStatus::Ok);
    ++n;
  }
  EXPECT_EQ(n, 40u);
}

// migrateTenant while the tenant's blocks still sit in the device input
// queue: the drain barrier waits them out, so the source slot is zeroized
// only after the last of them has left the pipe.
TEST(ServicePipeline, MigrationWaitsOutBlocksInDeviceInputQueue) {
  PoolConfig cfg;
  cfg.shards = 2;
  cfg.service.quota_per_round = 48;
  cfg.service.healthy_timeout_cycles = 64;
  EnginePool pool{cfg};
  PoolTenantSpec spec;
  spec.name = "mover";
  spec.category = 3;
  spec.key = keyOf(3);
  spec.queue_depth = 48;
  const unsigned id = pool.addTenant(spec).tenant;
  const unsigned src = pool.shardOf(id);
  const unsigned dst = 1 - src;
  auto& eng = pool.shardEngine(src);
  const unsigned user = 1;  // the shard supervisor is user 0
  ASSERT_EQ(eng.principal(user).name, "mover");

  std::vector<aes::Block> in;
  for (unsigned i = 0; i < 48; ++i) {
    in.push_back(blockOf(3, i));
    ASSERT_TRUE(pool.submit(id, in.back()).admitted);
  }
  // The tenant stops reading: the meet-gated stall is granted (only its
  // own blocks are in flight) and freezes the pipe, so the blocks past the
  // first pipe-full back up at the device input until the head's watchdog
  // takes them all back.
  eng.setReceiverReady(user, false);
  pool.pump();
  ASSERT_GT(eng.pendingInputs(user), 0u);
  eng.setReceiverReady(user, true);

  const auto m = pool.migrateTenant(id, dst);
  ASSERT_TRUE(m.moved) << toString(m.error);
  EXPECT_EQ(eng.pendingInputs(user), 0u);
  for (unsigned s = 0; s < pool.shards(); ++s)
    EXPECT_EQ(pool.shardService(s).stats().wrong_key_uses, 0u);

  const auto golden = aes::expandKey(keyOf(3), aes::KeySize::Aes128);
  for (unsigned i = 0; i < 48; ++i) {
    auto c = pool.fetch(id);
    ASSERT_TRUE(c.has_value()) << "completion " << i << " stranded";
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    EXPECT_EQ(c->data, aes::encryptBlock(in[i], golden));
  }
  EXPECT_FALSE(pool.fetch(id).has_value());
  // Traffic continues at the target.
  ASSERT_TRUE(pool.submit(id, in[0]).admitted);
  pool.runUntilIdle(1u << 12);
  auto c = pool.fetch(id);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->data, aes::encryptBlock(in[0], golden));
}

// --- AEAD ops through the live pipe -------------------------------------------

// One tenant's AEAD stream: tickets in submission order, what was offered,
// and what each ticket resolved to.
struct AeadStream {
  std::vector<std::uint64_t> tickets;
  std::vector<std::vector<std::uint8_t>> plaintexts;
  std::vector<AeadCompletion> verdicts;
};

// Seal `ops` messages of `bytes` per tenant, `window` outstanding at a time,
// pumping until every ticket has a verdict.
std::vector<AeadStream> sealStreams(Rig& r, unsigned ops, std::size_t bytes,
                                    unsigned window) {
  std::vector<AeadStream> st(r.tenants.size());
  for (unsigned guard = 0; guard < 20000; ++guard) {
    bool done = true;
    for (unsigned t = 0; t < st.size(); ++t) {
      auto& s = st[t];
      while (s.tickets.size() < ops &&
             s.tickets.size() - s.verdicts.size() < window) {
        const unsigned i = static_cast<unsigned>(s.tickets.size());
        s.plaintexts.push_back(bytesOf(t, i, bytes));
        const auto sr =
            r.svc.submitSeal(r.tenants[t], s.plaintexts.back(), {}, ivOf(t, i));
        EXPECT_TRUE(sr.admitted);
        s.tickets.push_back(sr.ticket);
      }
      done &= s.verdicts.size() == ops;
    }
    if (done) break;
    r.svc.pump();
    for (unsigned t = 0; t < st.size(); ++t)
      while (auto c = r.svc.fetchAead(r.tenants[t])) st[t].verdicts.push_back(*c);
  }
  return st;
}

// Every ticket resolved exactly once, in submission order; an Ok seal is
// bit-identical to aes::gcmEncrypt and nothing else releases data or a tag.
void expectSealVerdicts(const Rig& r, const std::vector<AeadStream>& st) {
  for (unsigned t = 0; t < st.size(); ++t) {
    ASSERT_EQ(st[t].verdicts.size(), st[t].tickets.size()) << "tenant " << t;
    for (unsigned i = 0; i < st[t].tickets.size(); ++i) {
      const AeadCompletion& c = st[t].verdicts[i];
      EXPECT_EQ(c.ticket, st[t].tickets[i]) << "tenant " << t << " op " << i;
      if (c.status == CompletionStatus::Ok) {
        const auto want =
            aes::gcmEncrypt(st[t].plaintexts[i], {}, r.golden[t], ivOf(t, i));
        EXPECT_EQ(c.data, want.ciphertext) << "tenant " << t << " op " << i;
        EXPECT_EQ(c.tag, want.tag) << "tenant " << t << " op " << i;
      } else {
        EXPECT_TRUE(c.data.empty());
        EXPECT_EQ(c.tag, aes::Tag128{});
      }
    }
  }
}

// A fault abort on the oldest op while younger ops of the same tenant are
// in flight behind it: the head and everything behind it go back to the
// queue front (go-back-N), each ticket still resolves exactly once, in
// order, and no wrong ciphertext or tag is ever released.
TEST(ServicePipeline, AeadFaultAbortOnHeadGoesBackN) {
  ServiceConfig cfg;
  cfg.quota_per_round = 4;
  Rig r{2, cfg};
  // Squash the block at the pipe exit once both tenants have ops in the
  // device: ops enter the pipe in FIFO order, so the exiting internal
  // block belongs to the oldest op still in the pipe.
  bool fired = false;
  r.acc.setTickHook([&] {
    const unsigned last = r.acc.pipeline().depth() - 1;
    const auto& s = r.acc.pipeline().stage(last);
    if (!fired && s.valid && s.gcm_internal && s.user == r.users[0] &&
        r.acc.gcm().activeOps() >= 3) {
      fired = r.acc.injectFault(FaultSite::StageData, last, 5);
    }
  });
  const auto st = sealStreams(r, 8, 64, 4);
  r.acc.setTickHook(nullptr);
  ASSERT_TRUE(fired);
  expectSealVerdicts(r, st);
  for (unsigned t = 0; t < 2; ++t) {
    for (const auto& c : st[t].verdicts) {
      EXPECT_EQ(c.status, CompletionStatus::Ok);
      EXPECT_EQ(c.served_by, ServedBy::Hardware);
    }
  }
  // Only the head is charged; the ops behind it were cancelled, not judged,
  // and the device ran them again.
  const auto& tel = r.svc.session(0).telemetry();
  EXPECT_EQ(tel.fault_aborts, 1u);
  EXPECT_EQ(tel.ok, 8u);
  EXPECT_EQ(r.svc.stats().requeues, 1u);
  EXPECT_EQ(r.svc.stats().hw_transient_failures, 1u);
  EXPECT_GT(r.acc.stats().gcm_ops, 16u + 1u);
  EXPECT_EQ(r.svc.totalQueued(), 0u);
}

// AuthFailed is a verdict about the message: it settles in order with the
// ops around it, is never requeued, and never reaches the health window —
// a run of nothing but tampered opens leaves the breaker closed.
TEST(ServicePipeline, AeadAuthFailedSettlesInOrderOutsideHealth) {
  ServiceConfig cfg;
  cfg.health.window_cycles = 64;
  cfg.health.min_window_ops = 1;
  Rig r{1, cfg};
  const auto sealed =
      aes::gcmEncrypt(bytesOf(0, 0, 48), {}, r.golden[0], ivOf(0, 0));
  std::vector<std::uint64_t> tickets;
  std::vector<bool> tampered;
  for (unsigned i = 0; i < 24; ++i) {
    aes::Tag128 tag = sealed.tag;
    const bool bad = i % 4 != 3;  // mostly forged
    if (bad) tag[i % 16] ^= 0x80;
    const auto sr =
        r.svc.submitOpen(0, sealed.ciphertext, {}, tag, ivOf(0, 0));
    ASSERT_TRUE(sr.admitted);
    tickets.push_back(sr.ticket);
    tampered.push_back(bad);
    // Settle each wave of 8 so the waiting queue stays under its depth.
    if (i % 8 == 7) r.svc.runUntilIdle(1u << 14);
  }
  for (unsigned i = 0; i < 24; ++i) {
    const auto c = r.svc.fetchAead(0);
    ASSERT_TRUE(c.has_value()) << "op " << i;
    EXPECT_EQ(c->ticket, tickets[i]);
    if (tampered[i]) {
      EXPECT_EQ(c->status, CompletionStatus::AuthFailed) << "op " << i;
      EXPECT_TRUE(c->data.empty());
    } else {
      EXPECT_EQ(c->status, CompletionStatus::Ok) << "op " << i;
      EXPECT_EQ(c->data, bytesOf(0, 0, 48));
    }
  }
  EXPECT_EQ(r.svc.stats().aead_auth_failed, 18u);
  EXPECT_EQ(r.svc.stats().requeues, 0u);
  EXPECT_EQ(r.svc.stats().hw_transient_failures, 0u);
  EXPECT_EQ(r.svc.session(0).telemetry().auth_failed, 18u);
  EXPECT_EQ(r.svc.health(), HealthState::Healthy);
  EXPECT_TRUE(r.svc.monitor().transitions().empty());
}

// ShedOldest evicts the oldest AEAD op still waiting to issue; its Shed
// verdict surfaces after the older op in flight, never ahead of it.
TEST(ServicePipeline, AeadShedVerdictKeepsOrderBehindInFlightOps) {
  ServiceConfig cfg;
  cfg.quota_per_round = 1;
  Rig r{1, cfg, 16, /*aead_queue_depth=*/2};
  std::vector<std::uint64_t> tickets;
  auto seal = [&](unsigned i) {
    const auto sr = r.svc.submitSeal(0, bytesOf(0, i, 64), {}, ivOf(0, i));
    ASSERT_TRUE(sr.admitted);
    tickets.push_back(sr.ticket);
  };
  seal(0);
  seal(1);
  r.svc.pump();  // op 0 in flight, op 1 waiting
  seal(2);
  seal(3);  // two waiting: op 1 is shed
  EXPECT_EQ(r.svc.stats().shed, 1u);
  EXPECT_FALSE(r.svc.fetchAead(0).has_value());  // nothing jumps op 0
  r.svc.runUntilIdle(1u << 14);
  for (unsigned i = 0; i < 4; ++i) {
    const auto c = r.svc.fetchAead(0);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->ticket, tickets[i]);
    EXPECT_EQ(c->status,
              i == 1 ? CompletionStatus::Shed : CompletionStatus::Ok);
  }
  EXPECT_EQ(r.svc.totalQueued(), 0u);
}

// A lost GCM response: the op's watchdog (timeout_cycles + 2 per AES block)
// turns the silence into a typed TimedOut verdict, within that bound, and
// the op behind it is re-issued and completes.
TEST(ServicePipeline, AeadWatchdogExpiryIsTypedTimedOut) {
  ServiceConfig cfg;
  cfg.max_requeues = 0;
  cfg.healthy_timeout_cycles = 200;
  Rig r{1, cfg};
  // The environment loses the first GCM response the tenant is sent.
  bool lost = false;
  r.acc.setTickHook([&] {
    if (!lost && r.acc.pendingGcm(r.users[0]) > 0)
      lost = r.acc.fetchGcm(r.users[0]).has_value();
  });
  const auto st = sealStreams(r, 3, 160, 3);
  r.acc.setTickHook(nullptr);
  ASSERT_TRUE(lost);
  expectSealVerdicts(r, st);
  const auto& v = st[0].verdicts;
  EXPECT_EQ(v[0].status, CompletionStatus::TimedOut);
  EXPECT_EQ(v[0].served_by, ServedBy::Hardware);
  const std::uint64_t blocks = 160 / 16 + 1;  // data + IV
  EXPECT_LE(v[0].complete_cycle - v[0].submit_cycle,
            cfg.healthy_timeout_cycles + 2 * blocks + 2);
  EXPECT_EQ(v[1].status, CompletionStatus::Ok);
  EXPECT_EQ(v[2].status, CompletionStatus::Ok);
  EXPECT_EQ(r.svc.session(0).telemetry().timeouts, 1u);
}

// A busy sequencer is backpressure, not a refusal: with every op slot held
// by another user's ops, the service's op waits for a slot instead of
// failing as Rejected — which would re-provision the tenant's key and abort
// every op in flight on its slot.
TEST(ServicePipeline, AeadWaitsForABusySequencerWithoutReprovisioning) {
  Rig r{1, ServiceConfig{}};
  const unsigned direct =
      r.acc.addUser(Principal::user("direct", 9));
  ASSERT_TRUE(accel::loadKey128(r.acc, direct, 5, 4, keyOf(9),
                                Conf::category(9)));
  AccelSession s{r.acc, direct, 5};
  std::vector<std::uint64_t> held;
  for (unsigned i = 0; i < accel::kGcmOps; ++i) {
    accel::GcmRequest op;
    op.iv = ivOf(9, i);
    op.data = bytesOf(9, i, 256);
    held.push_back(s.beginGcm(op));
  }
  ASSERT_EQ(r.acc.gcm().activeOps(), accel::kGcmOps);

  ASSERT_TRUE(r.svc.submitSeal(0, bytesOf(0, 0, 64), {}, ivOf(0, 0)).admitted);
  r.svc.runUntilIdle(1u << 14);
  const auto c = r.svc.fetchAead(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Ok);
  EXPECT_EQ(c->data, aes::gcmEncrypt(bytesOf(0, 0, 64), {}, r.golden[0],
                                     ivOf(0, 0))
                         .ciphertext);
  EXPECT_EQ(r.svc.stats().key_reprovisions, 0u);
  EXPECT_EQ(r.svc.stats().requeues, 0u);

  // The direct tickets were clocked by the service; they finish correctly.
  const auto golden = aes::expandKey(keyOf(9), aes::KeySize::Aes128);
  for (unsigned i = 0; i < accel::kGcmOps; ++i) {
    ASSERT_TRUE(s.pollGcm(held[i]));
    const auto got = s.finishGcm(held[i]);
    ASSERT_TRUE(got.has_value()) << accel::toString(got.status());
    const auto want = aes::gcmEncrypt(bytesOf(9, i, 256), {}, golden, ivOf(9, i));
    EXPECT_EQ(got->data, want.ciphertext);
    EXPECT_EQ(got->tag, want.tag);
  }
}

// Migration with AEAD ops in flight: the drain barrier settles them (and
// the slot-quiesce barrier waits out the device), so no op ever runs under
// the zeroized key.
TEST(ServicePipeline, MigrationWithAeadOpsInFlight) {
  PoolConfig cfg;
  cfg.shards = 2;
  EnginePool pool{cfg};
  PoolTenantSpec spec;
  spec.name = "mover";
  spec.category = 3;
  spec.key = keyOf(3);
  const unsigned id = pool.addTenant(spec).tenant;
  const unsigned dst = 1 - pool.shardOf(id);
  const auto golden = aes::expandKey(keyOf(3), aes::KeySize::Aes128);

  std::vector<std::size_t> sizes{16384, 64, 1024, 64};
  for (unsigned i = 0; i < sizes.size(); ++i)
    ASSERT_TRUE(
        pool.submitSeal(id, bytesOf(3, i, sizes[i]), {}, ivOf(3, i)).admitted);
  pool.pump();  // the 16 KiB op has entered the pipe; the rest follow
  ASSERT_GT(pool.shardService(pool.shardOf(id)).aeadQueued(0), 0u);

  const auto m = pool.migrateTenant(id, dst);
  ASSERT_TRUE(m.moved) << toString(m.error);
  for (unsigned s = 0; s < pool.shards(); ++s)
    EXPECT_EQ(pool.shardService(s).stats().wrong_key_uses, 0u);
  for (unsigned i = 0; i < sizes.size(); ++i) {
    const auto c = pool.fetchAead(id);
    ASSERT_TRUE(c.has_value()) << "op " << i << " stranded";
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    const auto want = aes::gcmEncrypt(bytesOf(3, i, sizes[i]), {}, golden,
                                      ivOf(3, i));
    EXPECT_EQ(c->data, want.ciphertext);
    EXPECT_EQ(c->tag, want.tag);
  }
  // Traffic continues at the target.
  ASSERT_TRUE(pool.submitSeal(id, bytesOf(3, 9, 32), {}, ivOf(3, 9)).admitted);
  pool.runUntilIdle(1u << 14);
  const auto c = pool.fetchAead(id);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Ok);
  EXPECT_EQ(pool.shardOf(id), dst);
}

// Mixed traffic: a 16 KiB seal no longer holds the engine while it runs.
// Another tenant's blocks keep completing inside the seal's span (from its
// submission to its verdict), because the seal's tail overlaps their issue.
TEST(ServicePipeline, BlocksCompleteWhileALargeSealIsInFlight) {
  Rig r{2, ServiceConfig{}};
  const auto pt = bytesOf(0, 0, 16384);
  ASSERT_TRUE(r.svc.submitSeal(0, pt, {}, ivOf(0, 0)).admitted);
  std::vector<Completion> blocks;
  unsigned offered = 0;
  std::optional<AeadCompletion> seal;
  for (unsigned guard = 0; guard < 4096 && (!seal || blocks.size() < 64);
       ++guard) {
    while (offered < 64 && offered - blocks.size() < 8)
      ASSERT_TRUE(r.svc.submit(1, blockOf(1, offered++)).admitted);
    r.svc.pump();
    while (auto c = r.svc.fetch(1)) blocks.push_back(*c);
    if (auto c = r.svc.fetchAead(0)) seal = *c;
  }
  ASSERT_TRUE(seal.has_value());
  EXPECT_EQ(seal->status, CompletionStatus::Ok);
  EXPECT_EQ(seal->data, aes::gcmEncrypt(pt, {}, r.golden[0], ivOf(0, 0))
                            .ciphertext);
  ASSERT_EQ(blocks.size(), 64u);
  unsigned inside = 0;
  for (unsigned i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].status, CompletionStatus::Ok);
    EXPECT_EQ(blocks[i].data, aes::encryptBlock(blockOf(1, i), r.golden[1]));
    if (blocks[i].complete_cycle >= seal->submit_cycle &&
        blocks[i].complete_cycle < seal->complete_cycle)
      ++inside;
  }
  EXPECT_GT(inside, 0u);
}

// --- Shortest-first AEAD issue across tenants -------------------------------

// Cycles an op's issue holds the pipe input: its payload blocks plus
// E(K, J0) (back-to-back 64 B seals enter 5 cycles apart).
std::uint64_t issueCycles(std::size_t bytes) { return (bytes + 15) / 16 + 1; }

std::uint64_t sealTicket(Rig& r, unsigned t, unsigned i, std::size_t bytes) {
  const auto sr = r.svc.submitSeal(r.tenants[t], bytesOf(t, i, bytes), {},
                                   ivOf(t, i));
  EXPECT_TRUE(sr.admitted);
  return sr.ticket;
}

// A key's first op also derives its hash subkey H = E(K, 0^128) and holds
// issue until H is back. One seal per tenant on its own session, clocked
// outside the service (so the round-robin start stays at tenant 0), leaves
// every H cached: the cycle bounds below are the steady state.
void warmHashKeys(Rig& r) {
  for (unsigned t = 0; t < r.tenants.size(); ++t) {
    AccelSession s{r.acc, r.users[t], t + 1};
    ASSERT_TRUE(s.gcmSeal(bytesOf(t, 99, 16), {}, ivOf(t, 99)).has_value());
  }
}

// Submission to verdict of one seal of `bytes` on an idle device: its
// issue plus the 37-cycle drain bound (pipe drain, GHASH tail, finalize),
// so 42 cycles for 64 B and 1062 for 16 KiB.
std::uint64_t loneSealCycles(std::size_t bytes) {
  Rig r{1, ServiceConfig{}};
  warmHashKeys(r);
  sealTicket(r, 0, 0, bytes);
  r.svc.runUntilIdle(1u << 15);
  const auto c = r.svc.fetchAead(0);
  EXPECT_TRUE(c.has_value() && c->status == CompletionStatus::Ok);
  return c ? c->complete_cycle - c->submit_cycle : 0;
}

void expectSealed(const Rig& r, const AeadCompletion& c, unsigned t,
                  unsigned i, std::size_t bytes) {
  EXPECT_EQ(c.status, CompletionStatus::Ok);
  EXPECT_EQ(c.served_by, ServedBy::Hardware);
  const auto want = aes::gcmEncrypt(bytesOf(t, i, bytes), {}, r.golden[t],
                                    ivOf(t, i));
  EXPECT_EQ(c.data, want.ciphertext);
  EXPECT_EQ(c.tag, want.tag);
}

// Tenant 0 comes first in round-robin order, but tenant 1's 64 B seal puts
// fewer blocks into the pipe, so it issues first: it settles as fast as on
// an idle device instead of behind ~1025 cycles of tenant 0's keystream,
// and the 16 KiB seal pays only the small op's issue.
TEST(ServicePipeline, ShortSealSettlesBeforeAnotherTenantsLongSeal) {
  Rig r{2, ServiceConfig{}};
  warmHashKeys(r);
  sealTicket(r, 0, 0, 16384);
  sealTicket(r, 1, 0, 64);
  r.svc.runUntilIdle(1u << 15);
  const auto big = r.svc.fetchAead(0);
  const auto small = r.svc.fetchAead(1);
  ASSERT_TRUE(big.has_value() && small.has_value());
  expectSealed(r, *big, 0, 0, 16384);
  expectSealed(r, *small, 1, 0, 64);
  EXPECT_LT(small->complete_cycle, big->complete_cycle);
  EXPECT_LE(small->complete_cycle - small->submit_cycle, loneSealCycles(64));
  EXPECT_LE(big->complete_cycle - big->submit_cycle,
            issueCycles(64) + loneSealCycles(16384));
}

// No starvation by quota: tenant 1 keeps its AEAD queue full of 64 B
// seals, yet with the quota (4 ops), not the kGcmOps cap, ending each
// round's AEAD pass, tenant 0's 16 KiB seal still issues in the round it
// waits in, after at most a quota of each other tenant's ops, and settles
// within that bound.
TEST(ServicePipeline, LongSealIssuesInItsRoundWhileAnotherTenantFloods) {
  ServiceConfig cfg;
  constexpr unsigned kDepth = 8;
  Rig r{2, cfg, 16, kDepth};
  warmHashKeys(r);
  sealTicket(r, 0, 0, 16384);
  unsigned offered = 0;
  std::optional<AeadCompletion> big;
  std::vector<AeadCompletion> small;
  for (unsigned guard = 0; guard < 4096 && !big; ++guard) {
    while (offered - small.size() < kDepth) sealTicket(r, 1, offered++, 64);
    r.svc.pump();
    big = r.svc.fetchAead(0);
    while (auto c = r.svc.fetchAead(1)) small.push_back(*c);
  }
  ASSERT_TRUE(big.has_value());
  expectSealed(r, *big, 0, 0, 16384);
  const std::uint64_t others = cfg.quota_per_round * (r.tenants.size() - 1);
  EXPECT_LE(big->complete_cycle - big->submit_cycle,
            others * issueCycles(64) + loneSealCycles(16384));
  for (unsigned i = 0; i < small.size(); ++i)
    expectSealed(r, small[i], 1, i, 64);
}

// Per-tenant FIFO holds: only a tenant's next waiting op is a candidate, so
// tenant 0's 64 B seal queued behind its own 16 KiB seal settles after it,
// riding its tail, while tenant 1's 64 B seal goes first.
TEST(ServicePipeline, ATenantsOwnOpsKeepSubmissionOrder) {
  Rig r{2, ServiceConfig{}};
  warmHashKeys(r);
  const std::uint64_t t_big = sealTicket(r, 0, 0, 16384);
  const std::uint64_t t_small = sealTicket(r, 0, 1, 64);
  sealTicket(r, 1, 0, 64);
  r.svc.runUntilIdle(1u << 15);
  const auto big = r.svc.fetchAead(0);
  const auto small = r.svc.fetchAead(0);
  const auto other = r.svc.fetchAead(1);
  ASSERT_TRUE(big.has_value() && small.has_value() && other.has_value());
  EXPECT_EQ(big->ticket, t_big);
  EXPECT_EQ(small->ticket, t_small);
  expectSealed(r, *big, 0, 0, 16384);
  expectSealed(r, *small, 0, 1, 64);
  expectSealed(r, *other, 1, 0, 64);
  EXPECT_LT(other->complete_cycle, big->complete_cycle);
  EXPECT_LE(small->complete_cycle - big->complete_cycle, issueCycles(64));
}

// Equal sizes keep the round-robin order: six 64 B seals from three
// tenants, submitted after an empty round moved the round-robin start to
// tenant 1, issue (and so settle) tenant 1's, then 2's, then 0's.
TEST(ServicePipeline, EqualSizedOpsIssueInRoundRobinOrder) {
  constexpr unsigned kTenants = 3;
  Rig r{kTenants, ServiceConfig{}};
  warmHashKeys(r);
  r.svc.pump();  // empty: the next round starts at tenant 1
  for (unsigned t = 0; t < kTenants; ++t)
    for (unsigned i = 0; i < 2; ++i) sealTicket(r, t, i, 64);
  r.svc.runUntilIdle(1u << 14);
  std::vector<std::pair<std::uint64_t, unsigned>> settled;  // cycle, tenant
  for (unsigned t = 0; t < kTenants; ++t) {
    for (unsigned i = 0; i < 2; ++i) {
      const auto c = r.svc.fetchAead(r.tenants[t]);
      ASSERT_TRUE(c.has_value());
      expectSealed(r, *c, t, i, 64);
      settled.emplace_back(c->complete_cycle, t);
    }
  }
  std::sort(settled.begin(), settled.end());
  const std::vector<unsigned> want{1, 1, 2, 2, 0, 0};
  for (unsigned k = 0; k < want.size(); ++k)
    EXPECT_EQ(settled[k].second, want[k]) << "settled #" << k;
  // Back-to-back issue: each op's blocks enter right behind the previous's.
  for (unsigned k = 1; k < settled.size(); ++k)
    EXPECT_EQ(settled[k].first - settled[k - 1].first, issueCycles(64));
}

// No starvation under the kGcmOps cap: tenants 1 and 2 stream 16 B seals
// that take every sequencer slot, so the cap, not the queues, ends each
// round's AEAD pass, and tenant 0's 16 KiB seal is never the shortest
// candidate. Passed over by the cap in its first round, it goes ahead of
// every op passed over later: it issues when the first slot frees, one
// 16 B seal's latency after the round began, and settles a lone 16 KiB
// seal's latency after that.
TEST(ServicePipeline, LongSealIssuesWhileOtherTenantsHoldEveryOpSlot) {
  constexpr unsigned kTenants = 3;
  constexpr unsigned kDepth = 8;
  Rig r{kTenants, ServiceConfig{}, 16, kDepth};
  warmHashKeys(r);
  sealTicket(r, 0, 0, 16384);
  std::vector<unsigned> offered(kTenants, 0);
  std::vector<std::vector<AeadCompletion>> small(kTenants);
  std::optional<AeadCompletion> big;
  for (unsigned guard = 0; guard < 4096 && !big; ++guard) {
    for (unsigned t = 1; t < kTenants; ++t)
      while (offered[t] - small[t].size() < kDepth)
        sealTicket(r, t, offered[t]++, 16);
    r.svc.pump();
    big = r.svc.fetchAead(0);
    for (unsigned t = 1; t < kTenants; ++t)
      while (auto c = r.svc.fetchAead(t)) small[t].push_back(*c);
  }
  ASSERT_TRUE(big.has_value()) << "the 16 KiB seal never settled";
  expectSealed(r, *big, 0, 0, 16384);
  EXPECT_LE(big->complete_cycle - big->submit_cycle,
            loneSealCycles(16) + loneSealCycles(16384));
  for (unsigned t = 1; t < kTenants; ++t)
    for (unsigned i = 0; i < small[t].size(); ++i)
      expectSealed(r, small[t][i], t, i, 16);
}

// Mixed traffic: each tenant's blocks issue before the round's AEAD pass
// and enter the pipe while it ticks, so they never wait behind another
// tenant's 16 KiB seal, whichever tenant round-robin order puts first. The
// pipe input alternates between the two tenants, so block i enters within
// 2(i + 1) cycles and settles a pipe depth later.
TEST(ServicePipeline, BlocksDoNotWaitBehindAnotherTenantsLongSeal) {
  constexpr unsigned kBlocks = 4;  // one round's quota
  for (unsigned sealer = 0; sealer < 2; ++sealer) {
    Rig r{2, ServiceConfig{}};
    warmHashKeys(r);
    const unsigned blocker = 1 - sealer;
    sealTicket(r, sealer, 0, 16384);
    for (unsigned i = 0; i < kBlocks; ++i)
      ASSERT_TRUE(r.svc.submit(r.tenants[blocker], blockOf(blocker, i))
                      .admitted);
    r.svc.runUntilIdle(1u << 15);
    ASSERT_TRUE(r.svc.fetchAead(r.tenants[sealer]).has_value());
    for (unsigned i = 0; i < kBlocks; ++i) {
      const auto c = r.svc.fetch(r.tenants[blocker]);
      ASSERT_TRUE(c.has_value());
      EXPECT_EQ(c->status, CompletionStatus::Ok);
      EXPECT_EQ(c->data, aes::encryptBlock(blockOf(blocker, i),
                                           r.golden[blocker]));
      EXPECT_LE(c->complete_cycle - c->submit_cycle,
                r.acc.pipeline().depth() + 2 * (i + 1))
          << "sealer " << sealer << ", block " << i;
    }
  }
}

// The block pass holds a tenant's quota back only for AEAD ops a free
// kGcmOps slot could take. Tenant 0 keeps its AEAD queue full of 16 B
// seals, as tenants 1 and 2 do, and all three together keep every slot
// busy. Only the first round starts with free slots (and holds the blocks
// back for tenant 0's seals); every later round starts with the cap full
// and gives the blocks the whole quota, so after the first round (kGcmOps
// seal issues and its closing tick) the backlog streams as on an idle
// pipe: block i settles i + 1 + depth cycles later.
TEST(ServicePipeline, BlocksKeepTheQuotaWhileEveryOpSlotIsHeld) {
  constexpr unsigned kTenants = 3;
  constexpr unsigned kDepth = 8;
  constexpr unsigned kBlocks = 16;
  Rig r{kTenants, ServiceConfig{}, kBlocks, kDepth};
  warmHashKeys(r);
  for (unsigned i = 0; i < kBlocks; ++i)
    ASSERT_TRUE(r.svc.submit(r.tenants[0], blockOf(0, i)).admitted);
  std::vector<unsigned> offered(kTenants, 0);
  std::vector<unsigned> sealed(kTenants, 0);
  std::vector<Completion> blocks;
  for (unsigned guard = 0; guard < 4096 && blocks.size() < kBlocks;
       ++guard) {
    for (unsigned t = 0; t < kTenants; ++t)
      while (offered[t] - sealed[t] < kDepth)
        sealTicket(r, t, offered[t]++, 16);
    r.svc.pump();
    while (auto c = r.svc.fetch(r.tenants[0])) blocks.push_back(*c);
    for (unsigned t = 0; t < kTenants; ++t)
      while (auto c = r.svc.fetchAead(r.tenants[t]))
        expectSealed(r, *c, t, sealed[t]++, 16);
  }
  ASSERT_EQ(blocks.size(), kBlocks) << "the blocks never issued";
  for (unsigned i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(blocks[i].status, CompletionStatus::Ok);
    EXPECT_EQ(blocks[i].data, aes::encryptBlock(blockOf(0, i), r.golden[0]));
    EXPECT_LE(blocks[i].complete_cycle - blocks[i].submit_cycle,
              accel::kGcmOps * issueCycles(16) + 1 + (i + 1) +
                  r.acc.pipeline().depth())
        << "block " << i;
  }
}

// The round contract's clock: a round issues first and then ticks, at
// least once and until its blocks have entered the pipe. An empty round
// still moves the clock (quarantine residency depends on it) by exactly one
// cycle.
TEST(ServicePipeline, EmptyPumpAdvancesTheClockByOneCycle) {
  Rig r{2, ServiceConfig{}};
  for (unsigned i = 0; i < 3; ++i) {
    const std::uint64_t before = r.acc.cycle();
    EXPECT_EQ(r.svc.pump(), 0u);
    EXPECT_EQ(r.acc.cycle(), before + 1);
  }
}

// With the pipe idle, a round that issues one block from each of k tenants
// spends exactly k cycles: one block enters the pipe per cycle, and no
// cycle of the round is idle.
TEST(ServicePipeline, RoundOfKTenantBlocksCostsKCycles) {
  constexpr unsigned kTenants = 3;
  Rig r{kTenants, ServiceConfig{}};
  for (unsigned t = 0; t < kTenants; ++t)
    ASSERT_TRUE(r.svc.submit(r.tenants[t], blockOf(t, 0)).admitted);
  const std::uint64_t before = r.acc.cycle();
  r.svc.pump();
  EXPECT_EQ(r.acc.cycle() - before, kTenants);
}

// One tenant's backlog streams through the service at the session's rate:
// N blocks queued before the first round all resolve in exactly N + depth
// cycles (the pipe fill), however many quota_per_round rounds it takes.
TEST(ServicePipeline, BacklogResolvesInBlocksPlusPipeDepthCycles) {
  constexpr unsigned kBlocks = 48;
  Rig r{1, ServiceConfig{}, /*queue_depth=*/kBlocks};
  for (unsigned i = 0; i < kBlocks; ++i)
    ASSERT_TRUE(r.svc.submit(r.tenants[0], blockOf(0, i)).admitted);
  const std::uint64_t before = r.acc.cycle();
  std::vector<Completion> got;
  for (unsigned guard = 0; guard < 1000 && got.size() < kBlocks; ++guard) {
    r.svc.pump();
    while (auto c = r.svc.fetch(r.tenants[0])) got.push_back(*c);
  }
  ASSERT_EQ(got.size(), kBlocks);
  for (unsigned i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(got[i].status, CompletionStatus::Ok);
    EXPECT_EQ(got[i].data, aes::encryptBlock(blockOf(0, i), r.golden[0]));
  }
  EXPECT_EQ(r.acc.cycle() - before, kBlocks + r.acc.pipeline().depth());
}

}  // namespace
}  // namespace aesifc::soc
