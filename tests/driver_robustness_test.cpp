// Driver failure-path tests: the watchdog turns a wedged device into a
// Timeout (never a hang, never a misreported security refusal), duplicated
// responses are consumed at most once, dropped responses are recovered by
// bounded retry without double delivery, a retry reissues the whole batch
// or GCM op, and non-retryable outcomes (Suppressed, Rejected) are final on
// the first attempt.

#include <gtest/gtest.h>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "aes/gcm.h"
#include "aes/modes.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Principal;

std::vector<std::uint8_t> testKey() {
  std::vector<std::uint8_t> k(16);
  for (unsigned i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(0xa0 + i);
  return k;
}

struct Rig {
  AesAccelerator acc;
  unsigned sup;
  unsigned alice;
  aes::ExpandedKey golden = aes::expandKey(testKey(), aes::KeySize::Aes128);

  explicit Rig(AcceleratorConfig cfg = {}) : acc{cfg} {
    sup = acc.addUser(Principal::supervisor());
    alice = acc.addUser(Principal::user("alice", 1));
    EXPECT_TRUE(loadKey128(acc, alice, 1, 0, testKey(), Conf::category(1)));
  }
};

TEST(DriverRobustness, ReceiverNeverReadyTimesOutInsteadOfHanging) {
  Rig r;
  r.acc.setReceiverReady(r.alice, false);
  SessionOptions opts;
  opts.timeout_cycles = 400;
  AccelSession s{r.acc, r.alice, 1, opts};
  const std::uint64_t before = r.acc.cycle();
  const auto res = s.encryptBlock(aes::Block{});
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(res.status(), AccelStatus::Timeout);  // not Suppressed
  EXPECT_EQ(s.retries(), 0u);
  // The watchdog bounded the wait.
  EXPECT_LE(r.acc.cycle() - before, 500u);
}

TEST(DriverRobustness, RetryAfterTimeoutDeliversExactlyOnce) {
  Rig r;
  r.acc.setReceiverReady(r.alice, false);
  SessionOptions opts;
  opts.timeout_cycles = 150;
  opts.max_retries = 2;
  opts.backoff_cycles = 8;
  AccelSession s{r.acc, r.alice, 1, opts};
  // The receiver recovers mid-call: the first attempt's response is then
  // delivered while the retry's duplicate request may also be in flight.
  r.acc.setTickHook([&] {
    if (r.acc.cycle() == 200) r.acc.setReceiverReady(r.alice, true);
  });
  aes::Block pt;
  for (auto& b : pt) b = 0x21;
  const auto res = s.encryptBlock(pt);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(*res, aes::encryptBlock(pt, r.golden));
  EXPECT_GE(s.retries(), 1u);
  EXPECT_EQ(s.lastStatus(), AccelStatus::Ok);
  r.acc.setTickHook(nullptr);
  // The abandoned duplicate must not contaminate the next operation.
  aes::Block pt2;
  for (auto& b : pt2) b = 0x22;
  const auto res2 = s.encryptBlock(pt2);
  ASSERT_TRUE(res2.has_value());
  EXPECT_EQ(*res2, aes::encryptBlock(pt2, r.golden));
}

TEST(DriverRobustness, DuplicatedResponseConsumedAtMostOnce) {
  Rig r;
  AccelSession s{r.acc, r.alice, 1};
  bool duplicated = false;
  r.acc.setTickHook([&] {
    if (!duplicated && r.acc.pendingOutputs(r.alice) > 0) {
      ASSERT_TRUE(r.acc.injectDuplicateOutput(r.alice));
      duplicated = true;
    }
  });
  aes::Block pt;
  for (auto& b : pt) b = 0x42;
  const auto ct = s.encryptBlock(pt);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(*ct, aes::encryptBlock(pt, r.golden));
  EXPECT_TRUE(duplicated);
  r.acc.setTickHook(nullptr);
  // The surviving duplicate is ignored by request id; the next operation
  // still pairs with its own response.
  const auto rt = s.decryptBlock(*ct);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(*rt, pt);
}

TEST(DriverRobustness, DroppedResponseRecoveredByRetryWithoutDuplicate) {
  Rig r;
  SessionOptions opts;
  opts.timeout_cycles = 120;
  opts.max_retries = 2;
  opts.backoff_cycles = 4;
  AccelSession s{r.acc, r.alice, 1, opts};
  unsigned drops = 0;
  r.acc.setTickHook([&] {
    if (drops == 0 && r.acc.pendingOutputs(r.alice) > 0) {
      ASSERT_TRUE(r.acc.injectDropOutput(r.alice));
      ++drops;
    }
  });
  aes::Block pt;
  for (auto& b : pt) b = 0x77;
  const auto ct = s.encryptBlock(pt);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(*ct, aes::encryptBlock(pt, r.golden));
  EXPECT_EQ(drops, 1u);
  EXPECT_GE(s.retries(), 1u);
  EXPECT_GE(r.acc.stats().retries, 1u);  // driver telemetry reached device
  r.acc.setTickHook(nullptr);
}

// Watchdog x duplicate-suppression interaction: the original response of a
// request whose watchdog already expired arrives only after the retry has
// completed — and is then ALSO duplicated by the bus. The late original must
// be consumed exactly once (credited to its request, the replayed copy and
// the retry's own response discarded as stale), and nothing may leak into a
// later request's result.
TEST(DriverRobustness, LateResponseAfterExpiredWatchdogAndCompletedRetry) {
  Rig r;
  SessionOptions opts;
  opts.timeout_cycles = 120;
  opts.max_retries = 2;
  opts.backoff_cycles = 8;
  AccelSession s{r.acc, r.alice, 1, opts};

  // Hold the receiver so attempt 1's response is parked in the device.
  r.acc.setReceiverReady(r.alice, false);
  bool reopened = false;
  bool duplicated = false;
  r.acc.setTickHook([&] {
    // Reopen mid-retry: attempt 1's watchdog has long expired and attempt 2
    // is in flight. The parked original then drains FIRST (per-user FIFO) —
    // i.e. it arrives after its own watchdog gave up on it.
    if (!reopened && r.acc.cycle() >= 170) {
      r.acc.setReceiverReady(r.alice, true);
      reopened = true;
    }
    // And the bus replays it once, so two copies of the late original plus
    // the retry's response are all live at the same time.
    if (reopened && !duplicated && r.acc.pendingOutputs(r.alice) > 0) {
      ASSERT_TRUE(r.acc.injectDuplicateOutput(r.alice));
      duplicated = true;
    }
  });

  aes::Block pt;
  for (auto& b : pt) b = 0x5a;
  const auto res = s.encryptBlock(pt);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(*res, aes::encryptBlock(pt, r.golden));
  EXPECT_TRUE(reopened);
  EXPECT_TRUE(duplicated);
  EXPECT_GE(s.retries(), 1u);
  EXPECT_EQ(s.lastStatus(), AccelStatus::Ok);
  r.acc.setTickHook(nullptr);

  // Surviving stale copies (the duplicate and/or the retry's response) must
  // not corrupt later traffic: run two more operations with distinct
  // plaintexts and check both against the golden model.
  aes::Block pt2, pt3;
  for (auto& b : pt2) b = 0x5b;
  for (auto& b : pt3) b = 0x5c;
  const auto res2 = s.encryptBlock(pt2);
  ASSERT_TRUE(res2.has_value());
  EXPECT_EQ(*res2, aes::encryptBlock(pt2, r.golden));
  const auto res3 = s.decryptBlock(*res2);
  ASSERT_TRUE(res3.has_value());
  EXPECT_EQ(*res3, pt2);
  EXPECT_NE(*res2, *res);  // sanity: distinct results, no cross-credit

  // Terminal-outcome telemetry: exactly the operations we ran, all Ok.
  EXPECT_EQ(s.telemetry().ok, 3u);
  EXPECT_EQ(s.telemetry().transientFailures(), 0u);
}

// A timed-out session leaves its requests parked in the device. Once the
// receiver is ready again they drain while a second session on the same
// device streams, and none may be credited to that session's blocks:
// request ids come from one per-device sequence, not per session.
TEST(DriverRobustness, TimedOutSessionsLateResponsesNeverReachTheNextSession) {
  Rig r;
  r.acc.setReceiverReady(r.alice, false);
  AccelSession a{r.acc, r.alice, 1,
                 SessionOptions{.timeout_cycles = 2016, .max_retries = 1,
                                .backoff_cycles = 32}};
  EXPECT_EQ(a.ecbEncrypt(aes::Bytes(64, 0x11)).status(), AccelStatus::Timeout);

  r.acc.setReceiverReady(r.alice, true);
  AccelSession b{r.acc, r.alice, 1};
  const aes::Bytes fresh(64, 0x22);
  const auto res = b.ecbEncrypt(fresh);
  ASSERT_TRUE(res.has_value()) << toString(res.status());
  EXPECT_EQ(*res, aes::ecbEncrypt(fresh, r.golden));
}

// Overflow-drops exactly one of Alice's responses mid-stream. There is no
// overflow buffer, so in the one cycle her receiver is not ready while
// Eve's block (an incomparable label) is in the pipe, the Fig. 8 stall is
// denied and Alice's completion in the last stage becomes a `dropped`
// record.
struct DropRig : Rig {
  unsigned eve;

  DropRig()
      : Rig{[] {
          AcceleratorConfig c;
          c.out_buffer_depth = 0;
          return c;
        }()} {
    eve = acc.addUser(Principal::user("eve", 2));
    EXPECT_TRUE(loadKey128(acc, eve, 2, 2, testKey(), Conf::category(2)));
  }

  void dropOneMidStream() {
    acc.setTickHook([this, step = 0]() mutable {
      if (step == 0 && acc.pendingOutputs(alice) > 0) {
        BlockRequest req;  // Alice's stream is flowing: Eve joins it
        req.req_id = 0xe7e;
        req.user = eve;
        req.key_slot = 2;
        ASSERT_TRUE(acc.submit(req));
        step = 1;
      } else if (step == 1 && acc.pendingInputs(eve) == 0) {
        acc.setReceiverReady(alice, false);
        step = 2;
      } else if (step == 2) {
        acc.setReceiverReady(alice, true);
        step = 3;
      }
    });
  }
};

aes::Bytes message32(std::uint8_t seed) {
  aes::Bytes m(32 * 16);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = static_cast<std::uint8_t>(seed + 7 * i);
  return m;
}

TEST(DriverRobustness, DropMidBatchReissuesTheWholeBatchOnce) {
  DropRig r;
  SessionOptions opts;
  opts.max_retries = 1;
  AccelSession s{r.acc, r.alice, 1, opts};
  r.dropOneMidStream();
  const auto msg = message32(0x10);
  const auto ct = s.ecbEncrypt(msg);
  r.acc.setTickHook(nullptr);
  EXPECT_EQ(r.acc.stats().dropped, 1u);
  ASSERT_TRUE(ct.has_value()) << toString(ct.status());
  EXPECT_EQ(*ct, aes::ecbEncrypt(msg, r.golden));
  EXPECT_EQ(s.retries(), 1u);
  EXPECT_EQ(s.telemetry().ok, 1u);
  EXPECT_EQ(s.telemetry().transientFailures(), 0u);
  // The abandoned attempt's late responses never reach the next call.
  const auto msg2 = message32(0x90);
  const auto ct2 = s.ecbEncrypt(msg2);
  ASSERT_TRUE(ct2.has_value());
  EXPECT_EQ(*ct2, aes::ecbEncrypt(msg2, r.golden));
}

TEST(DriverRobustness, DropMidBatchIsTheVerdictWithoutRetryBudget) {
  DropRig r;
  AccelSession s{r.acc, r.alice, 1};  // max_retries = 0
  r.dropOneMidStream();
  const auto ct = s.ecbEncrypt(message32(0x10));
  r.acc.setTickHook(nullptr);
  EXPECT_EQ(ct.status(), AccelStatus::Dropped);
  EXPECT_EQ(s.telemetry().drops, 1u);
  EXPECT_EQ(s.telemetry().operations(), 1u);
  EXPECT_EQ(s.retries(), 0u);
}

// Squash the first AES block of a synchronous GCM seal in the last stage.
AccelResult<GcmSealed> sealWithOneStageFault(Rig& r, AccelSession& s,
                                             const std::vector<std::uint8_t>& pt,
                                             const std::vector<std::uint8_t>& aad,
                                             const std::vector<std::uint8_t>& iv) {
  bool fired = false;
  r.acc.setTickHook([&] {
    const unsigned last = r.acc.pipeline().depth() - 1;
    if (!fired && r.acc.pipeline().stage(last).valid)
      fired = r.acc.injectFault(FaultSite::StageData, last, 3);
  });
  auto sealed = s.gcmSeal(pt, aad, iv);
  r.acc.setTickHook(nullptr);
  EXPECT_TRUE(fired);
  return sealed;
}

TEST(DriverRobustness, FaultAbortedGcmSealIsReissuedWhole) {
  const std::vector<std::uint8_t> pt(64, 0x5e), aad(8, 0xa1), iv(12, 0x07);
  {
    Rig r;
    AccelSession s{r.acc, r.alice, 1};  // max_retries = 0
    const auto sealed = sealWithOneStageFault(r, s, pt, aad, iv);
    EXPECT_EQ(sealed.status(), AccelStatus::FaultAborted);
    EXPECT_EQ(s.telemetry().fault_aborts, 1u);
  }
  Rig r;
  SessionOptions opts;
  opts.max_retries = 1;
  AccelSession s{r.acc, r.alice, 1, opts};
  const auto sealed = sealWithOneStageFault(r, s, pt, aad, iv);
  ASSERT_TRUE(sealed.has_value()) << toString(sealed.status());
  const auto want = aes::gcmEncrypt(pt, aad, r.golden, iv);
  EXPECT_EQ(sealed->ciphertext, want.ciphertext);
  EXPECT_EQ(sealed->tag, want.tag);
  EXPECT_EQ(s.retries(), 1u);
  EXPECT_EQ(s.telemetry().ok, 1u);
  EXPECT_EQ(s.telemetry().transientFailures(), 0u);
}

TEST(DriverRobustness, SuppressionIsFinalAndNeverRetried) {
  Rig r;
  // The supervisor provisions the master key (ck = top): a regular user's
  // result can then never be declassified to the output port.
  ASSERT_TRUE(
      loadKeyBytes(r.acc, r.sup, 5, 4, testKey(), aes::KeySize::Aes128,
                   Conf::top()));
  SessionOptions opts;
  opts.max_retries = 3;  // must NOT be spent on a security refusal
  AccelSession s{r.acc, r.alice, 5, opts};
  const auto res = s.encryptBlock(aes::Block{});
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(res.status(), AccelStatus::Suppressed);
  EXPECT_EQ(s.retries(), 0u);
  EXPECT_FALSE(isRetryable(res.status()));
}

TEST(DriverRobustness, InvalidKeySlotRejectedImmediately) {
  Rig r;
  SessionOptions opts;
  opts.max_retries = 3;
  AccelSession s{r.acc, r.alice, 6, opts};  // slot 6 was never loaded
  const std::uint64_t before = r.acc.cycle();
  const auto res = s.encryptBlock(aes::Block{});
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(res.status(), AccelStatus::Rejected);
  EXPECT_EQ(s.retries(), 0u);
  EXPECT_LE(r.acc.cycle() - before, 2u);  // no watchdog wait, no backoff
}

TEST(DriverRobustness, StatusNamesAreStable) {
  EXPECT_EQ(toString(AccelStatus::Ok), "ok");
  EXPECT_EQ(toString(AccelStatus::Suppressed), "suppressed");
  EXPECT_EQ(toString(AccelStatus::Timeout), "timeout");
  EXPECT_EQ(toString(AccelStatus::FaultAborted), "fault-aborted");
  EXPECT_EQ(toString(AccelStatus::Dropped), "dropped");
  EXPECT_EQ(toString(AccelStatus::Rejected), "rejected");
  EXPECT_TRUE(isRetryable(AccelStatus::Timeout));
  EXPECT_FALSE(isRetryable(AccelStatus::Suppressed));
  EXPECT_FALSE(isRetryable(AccelStatus::Rejected));
}

}  // namespace
}  // namespace aesifc::accel
