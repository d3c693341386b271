// Pipelined cross-tenant issue in AccelService: fail-live ordering and
// recovery (go-back-N on a failed head, exactly one verdict per ticket,
// within a stated cycle bound), health telemetry that ignores abandoned
// attempts, and barriers (drain, migration, canaries) that see blocks
// still inside the device.

#include <gtest/gtest.h>

#include "aes/cipher.h"
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

struct Rig {
  AesAccelerator acc{accel::AcceleratorConfig{}};
  AccelService svc;
  std::vector<unsigned> tenants;
  std::vector<unsigned> users;
  std::vector<aes::ExpandedKey> golden;

  Rig(unsigned n, ServiceConfig cfg, std::size_t queue_depth = 16)
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
  cfg.healthy_opts.timeout_cycles = 128;
  cfg.degraded_opts.timeout_cycles = 128;
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
                              (cfg.healthy_opts.timeout_cycles + 2 * cap);
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
  cfg.healthy_opts.timeout_cycles = 64;
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
  cfg.service.healthy_opts.timeout_cycles = 64;
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

}  // namespace
}  // namespace aesifc::soc
