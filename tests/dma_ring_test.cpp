// Descriptor-ring data path: protocol round-trips, validation of the ring
// as untrusted input, fail-secure recovery, and the seeded ring fault
// campaign's invariants (no wrong-plaintext release, no cross-label write,
// no unrequested write) on the hardened engine — with the unhardened engine
// as the demonstrably-vulnerable control.

#include "soc/dma.h"

#include <gtest/gtest.h>

#include <memory>

#include "accel/driver.h"
#include "accel/key_store.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/attacks.h"
#include "soc/service.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using lattice::Conf;
using lattice::Label;
using lattice::Principal;

// One accelerator + one ring channel with alice's pages around it and a
// labeled victim region for eve. Rings at [0, 0x1000), alice data at
// [0x1000, 0x4000), eve at [0x4000, 0x5000).
struct RingBench {
  AesAccelerator acc;
  unsigned alice = 0, eve = 0;
  std::vector<std::uint8_t> alice_key;
  HostMemory mem{64 * 1024};
  DmaRingEngine eng;
  DmaRingConfig rc;
  unsigned ch = 0;
  std::unique_ptr<DmaRingDriver> drv;

  explicit RingBench(SecurityMode mode = SecurityMode::Protected,
                     bool hardened = true, unsigned comp_slots = 8,
                     unsigned max_chain = 64)
      : acc{AcceleratorConfig{mode, 10, 64, false}},
        eng{acc, mem, hardened} {
    alice = acc.addUser(Principal::user("alice", 1));
    eve = acc.addUser(Principal::user("eve", 2));
    Rng rng{0x5eed};
    alice_key.resize(16);
    for (auto& b : alice_key) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_TRUE(accel::loadKey128(acc, alice, 1, 0, alice_key,
                                  acc.principal(alice).authority.c));
    rc.desc_base = 0x0000;
    rc.desc_slots = 8;
    rc.chain_base = 0x400;
    rc.chain_slots = 16;
    rc.comp_base = 0x800;
    rc.comp_slots = comp_slots;
    rc.max_chain = max_chain;
    rc.watchdog_cycles = 256;
    ch = eng.addChannel(rc);
    drv = std::make_unique<DmaRingDriver>(eng, mem, ch, rc);
    const Label al = acc.principal(alice).authority;
    mem.setPageLabel(0x0000, 0x1000, al);  // rings + chain arena
    mem.setPageLabel(0x1000, 0x3000, al);  // alice src/dst staging
    mem.setPageLabel(0x4000, 0x1000, acc.principal(eve).authority);
  }

  std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint64_t seed) {
    Rng rng{seed};
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
    return v;
  }

  aes::ExpandedKey key() const {
    return aes::expandKey(alice_key, aes::KeySize::Aes128);
  }

  DmaDescriptor desc(DmaMode mode, std::size_t src, std::size_t dst,
                     std::size_t len) const {
    DmaDescriptor d;
    d.user = alice;
    d.key_slot = 1;
    d.mode = mode;
    d.src = src;
    d.dst = dst;
    d.len = len;
    return d;
  }

  const DmaCompletion* run(const std::vector<DmaDescriptor>& segs,
                           std::uint64_t budget = 8192) {
    const auto seq = drv->submitChain(segs);
    EXPECT_TRUE(seq.has_value());
    if (!seq) return nullptr;
    return drv->wait(*seq, budget);
  }
};

constexpr SecurityMode kBothModes[] = {SecurityMode::Baseline,
                                       SecurityMode::Protected};

TEST(DmaRing, EcbChainMatchesSoftware) {
  for (const SecurityMode mode : kBothModes) {
    RingBench b{mode};
    const auto msg = b.randomBytes(3 * 160, 7);
    b.mem.writeBytes(0x1000, msg);
    // Three scatter segments into one contiguous destination.
    std::vector<DmaDescriptor> segs{
        b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 160),
        b.desc(DmaMode::EcbEncrypt, 0x10a0, 0x20a0, 160),
        b.desc(DmaMode::EcbEncrypt, 0x1140, 0x2140, 160)};
    const auto* c = b.run(segs);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
    EXPECT_EQ(c->blocks, 30u);
    EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()),
              aes::ecbEncrypt(msg, b.key()));
    EXPECT_EQ(b.eng.stats().segments_fetched, 2u);  // two continuations

    // And decrypt it back in place through the same ring.
    const auto* d =
        b.run({b.desc(DmaMode::EcbDecrypt, 0x2000, 0x2000, msg.size())});
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->status, DmaError::None) << toString(d->status);
    EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()), msg);
  }
}

TEST(DmaRing, CtrChainContinuesCounterAcrossSegments) {
  for (const SecurityMode mode : kBothModes) {
    RingBench b{mode};
    const auto msg = b.randomBytes(400, 9);  // not block-aligned: CTR tail
    b.mem.writeBytes(0x1000, msg);
    aes::Iv nonce{};
    for (std::size_t i = 0; i < nonce.size(); ++i)
      nonce[i] = static_cast<std::uint8_t>(0xC0 + i);
    std::vector<DmaDescriptor> segs{
        b.desc(DmaMode::CtrCrypt, 0x1000, 0x2000, 256),
        b.desc(DmaMode::CtrCrypt, 0x1100, 0x2100, 144)};
    std::copy(nonce.begin(), nonce.end(), segs[0].ctr_iv.begin());
    const auto* c = b.run(segs);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
    EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()),
              aes::ctrCrypt(msg, b.key(), nonce));
  }
}

TEST(DmaRing, LabelRefusalsAreTypedAndWriteNothing) {
  RingBench b;
  b.mem.writeBytes(0x4000, b.randomBytes(64, 3));  // eve's data
  const auto eve_before = b.mem.readBytes(0x4000, 0x1000);

  // Alice's descriptor naming eve's page as source: SrcPageDenied.
  const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, 0x4000, 0x2000, 64)});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::SrcPageDenied);

  // ...and as destination: DstPageDenied, and eve's bytes never move.
  b.mem.writeBytes(0x1000, b.randomBytes(64, 4));
  const auto* d = b.run({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x4000, 64)});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, DmaError::DstPageDenied);
  EXPECT_EQ(b.mem.readBytes(0x4000, 0x1000), eve_before);
  EXPECT_EQ(b.eng.stats().cross_label_writes, 0u);
}

TEST(DmaRing, RingPageDeniedWhenRingLabelExcludesUser) {
  // The completion ring sits on eve's pages: alice's transfer must be
  // refused before anything executes — the engine may not read a ring the
  // user cannot see nor write completions the user may not write.
  RingBench b;
  b.mem.setPageLabel(b.rc.comp_base, b.rc.comp_slots * kCompBytes,
                     b.acc.principal(b.eve).authority);
  b.mem.writeBytes(0x1000, b.randomBytes(64, 5));
  const auto seq = b.drv->submitChain(
      {b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64)});
  ASSERT_TRUE(seq.has_value());
  const auto* c = b.drv->wait(*seq, 2048);
  // No completion can legally be delivered on that ring.
  EXPECT_EQ(c, nullptr);
  EXPECT_GE(b.eng.stats().by_error[static_cast<unsigned>(
                DmaError::RingPageDenied)],
            1u);
  EXPECT_EQ(b.eng.stats().completed_ok, 0u);
}

TEST(DmaRing, ChecksumMismatchRefused) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 6));
  const auto d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
  writeRingDescriptor(b.mem, b.rc.desc_base, d, 0, /*seq=*/9,
                      b.eng.generation(b.ch), /*owned=*/true);
  b.mem.write32(b.rc.desc_base + 4,
                b.mem.read32(b.rc.desc_base + 4) ^ 0x10000);  // corrupt
  b.eng.doorbell(b.ch);
  for (unsigned i = 0; i < 64; ++i) b.eng.tick();
  EXPECT_EQ(
      b.eng.stats().by_error[static_cast<unsigned>(DmaError::BadChecksum)],
      1u);
  EXPECT_EQ(b.eng.stats().checksum_rejects, 1u);
  EXPECT_EQ(b.eng.stats().completed_ok, 0u);
}

TEST(DmaRing, StructurallyInvalidDescriptorsRefused) {
  struct Case {
    unsigned offset;
    std::uint64_t value;
    DmaError want;
  };
  const Case cases[] = {
      {8, 7, DmaError::BadDescriptor},            // mode out of range
      {10, 99, DmaError::BadDescriptor},          // user out of range
      {12, accel::kRoundKeySlots, DmaError::BadDescriptor},
      {16, 1u << 20, DmaError::BadRange},         // src outside memory
      {16, SIZE_MAX - 32, DmaError::BadRange},    // src + len wraps
      {32, 0, DmaError::BadRange},                // zero length
      {24, 0x1020, DmaError::OverlapDenied},      // dst overlaps src
      {32, 24, DmaError::UnalignedLength},        // ECB len % 16 != 0
      {40, 0x900, DmaError::OobNextPointer},      // next outside arena
  };
  for (const SecurityMode mode : kBothModes) {
    for (const auto& tc : cases) {
      RingBench b{mode};
      b.mem.writeBytes(0x1000, b.randomBytes(64, 8));
      const auto data_before = b.mem.readBytes(0x1000, 0x4000);
      const auto seq =
          b.drv->submit(b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64));
      ASSERT_TRUE(seq.has_value());
      // Overwrite one field before the engine fetches the descriptor, then
      // re-seal the checksum: structure, not the checksum, must catch these.
      if (tc.offset == 10 || tc.offset == 12) {
        b.mem.write32(b.rc.desc_base + 8,
                      b.mem.read32(b.rc.desc_base + 8) & 0xffffu);
        b.mem.write8(b.rc.desc_base + tc.offset,
                     static_cast<std::uint8_t>(tc.value));
        b.mem.write8(b.rc.desc_base + tc.offset + 1,
                     static_cast<std::uint8_t>(tc.value >> 8));
      } else if (tc.offset == 8) {
        b.mem.write8(b.rc.desc_base + 8, static_cast<std::uint8_t>(tc.value));
      } else {
        b.mem.write64(b.rc.desc_base + tc.offset, tc.value);
      }
      b.mem.write32(b.rc.desc_base + 4,
                    ringChecksum(b.mem, b.rc.desc_base + 8, kDescBytes - 8));
      // The refusal answers the submit: its completion carries the head's
      // seq, so the future resolves and nothing is left outstanding.
      const auto* c = b.drv->wait(*seq, 256);
      ASSERT_NE(c, nullptr) << "field offset " << tc.offset
                            << ": the future never resolved";
      EXPECT_EQ(c->status, tc.want)
          << "field offset " << tc.offset << ": " << toString(c->status);
      EXPECT_EQ(b.drv->outstanding(), 0u);
      EXPECT_EQ(b.drv->duplicateCompletions(), 0u);
      EXPECT_EQ(b.eng.stats().by_error[static_cast<unsigned>(tc.want)], 1u)
          << "field offset " << tc.offset << " expected " << toString(tc.want);
      EXPECT_EQ(b.eng.stats().completed_ok, 0u);
      EXPECT_EQ(b.mem.readBytes(0x1000, 0x4000), data_before);
    }
  }
}

TEST(DmaRing, ChainLoopAndChainTooLongRefused) {
  {
    RingBench b;
    b.mem.writeBytes(0x1000, b.randomBytes(128, 10));
    std::vector<DmaDescriptor> segs{
        b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64),
        b.desc(DmaMode::EcbEncrypt, 0x1040, 0x2040, 64)};
    const auto seq = b.drv->submitChain(segs);
    ASSERT_TRUE(seq.has_value());
    // Redirect the continuation's next-pointer at itself (checksum kept
    // valid — a malicious ring, not a corrupted one).
    const std::uint64_t cont = b.mem.read64(b.rc.desc_base + 40);
    ASSERT_NE(cont, 0u);
    b.mem.write64(cont + 40, cont);
    b.mem.write32(cont + 4, ringChecksum(b.mem, cont + 8, kDescBytes - 8));
    const auto* c = b.drv->wait(*seq, 4096);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::ChainLoop) << toString(c->status);
  }
  {
    RingBench b{SecurityMode::Protected, /*hardened=*/true, /*comp_slots=*/8,
                /*max_chain=*/2};
    b.mem.writeBytes(0x1000, b.randomBytes(192, 11));
    std::vector<DmaDescriptor> segs{
        b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64),
        b.desc(DmaMode::EcbEncrypt, 0x1040, 0x2040, 64),
        b.desc(DmaMode::EcbEncrypt, 0x1080, 0x2080, 64)};
    const auto* c = b.run(segs, 4096);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::ChainTooLong) << toString(c->status);
  }
}

TEST(DmaRing, TornOwnershipCaughtBeforeRelease) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(256, 12));
  const auto dst_before = b.mem.readBytes(0x2000, 256);
  const auto seq =
      b.drv->submitChain({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 256)});
  ASSERT_TRUE(seq.has_value());
  for (unsigned i = 0; i < 4; ++i) b.eng.tick();  // latch completes
  // Host violates the protocol: reclaims the descriptor mid-execution.
  b.mem.write32(b.rc.desc_base,
                static_cast<std::uint32_t>(b.eng.generation(b.ch)) << 16);
  const auto* c = b.drv->wait(*seq, 8192);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::TornOwnership) << toString(c->status);
  EXPECT_GE(b.eng.stats().torn_ownership, 1u);
  // Fail-secure: nothing was released into the destination.
  EXPECT_EQ(b.mem.readBytes(0x2000, 256), dst_before);
}

TEST(DmaRing, StaleGenerationRefusedAfterRingReset) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 13));
  const auto d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
  const std::uint16_t old_gen = b.eng.generation(b.ch);
  b.eng.ringReset(b.ch);  // generation bumps; slot cursors rewind
  writeRingDescriptor(b.mem, b.rc.desc_base, d, 0, 3, old_gen, true);
  b.eng.doorbell(b.ch);
  for (unsigned i = 0; i < 64; ++i) b.eng.tick();
  EXPECT_GE(b.eng.stats().stale_generation, 1u);
  EXPECT_EQ(b.eng.stats().completed_ok, 0u);
}

TEST(DmaRing, CompletionOverflowParksHardenedEngine) {
  RingBench b{SecurityMode::Protected, /*hardened=*/true,
              /*comp_slots=*/2};
  b.drv->setAutoPoll(false);  // host stops consuming completions
  b.mem.writeBytes(0x1000, b.randomBytes(4 * 64, 14));
  std::vector<std::uint16_t> seqs;
  for (unsigned i = 0; i < 4; ++i) {
    const auto s = b.drv->submitChain({b.desc(
        DmaMode::EcbEncrypt, 0x1000 + i * 64, 0x2000 + i * 64, 64)});
    ASSERT_TRUE(s.has_value());
    seqs.push_back(*s);
  }
  for (unsigned i = 0; i < 4096; ++i) b.eng.tick();
  // The third transfer found no free completion slot: the channel parks
  // (backpressure) instead of overwriting an unconsumed record.
  EXPECT_TRUE(b.eng.channelStalled(b.ch));
  EXPECT_GT(b.eng.stats().comp_stall_cycles, 0u);
  EXPECT_EQ(b.eng.stats().comp_overflow_drops, 0u);
  // Host resumes: every transfer resolves exactly once, none lost.
  b.drv->setAutoPoll(true);
  for (unsigned i = 0; i < 4096 && !b.eng.idle(); ++i) {
    b.eng.tick();
    b.drv->poll();
  }
  b.drv->poll();
  const auto ek = b.key();
  for (unsigned i = 0; i < 4; ++i) {
    const auto* c = b.drv->result(seqs[i]);
    ASSERT_NE(c, nullptr) << "transfer " << i << " unresolved";
    EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
    const auto in = b.mem.readBytes(0x1000 + i * 64, 64);
    EXPECT_EQ(b.mem.readBytes(0x2000 + i * 64, 64), aes::ecbEncrypt(in, ek));
  }
  EXPECT_EQ(b.drv->duplicateCompletions(), 0u);
  EXPECT_EQ(b.eng.stats().comp_overflow_drops, 0u);
}

TEST(DmaRing, WatchdogRecoversStalledRingExactlyOnce) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(128, 15));
  b.acc.setReceiverReady(b.alice, false);  // output port wedged
  const auto seq =
      b.drv->submitChain({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 128)});
  ASSERT_TRUE(seq.has_value());
  for (unsigned i = 0; i < 2 * 256 + 64; ++i) b.eng.tick();
  EXPECT_GE(b.eng.stats().watchdog_fires, 1u);  // quiesce -> resync fired
  b.acc.setReceiverReady(b.alice, true);
  const auto* c = b.drv->wait(*seq, 16384);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_GE(b.eng.stats().recoveries, 1u);
  // Idempotent resubmit: the recovery re-ran the descriptor, yet exactly
  // one completion was delivered and the output is written exactly once.
  EXPECT_EQ(b.eng.stats().completed_ok, 1u);
  EXPECT_EQ(b.drv->duplicateCompletions(), 0u);
  const auto in = b.mem.readBytes(0x1000, 128);
  EXPECT_EQ(b.mem.readBytes(0x2000, 128), aes::ecbEncrypt(in, b.key()));
}

// --- Fail-live: the ring's own verdicts arrive within a stated bound ---------

TEST(DmaRing, UnloadedKeySlotResolvesRejected) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 17));
  const auto dst_before = b.mem.readBytes(0x2000, 64);
  auto d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
  d.key_slot = 2;  // never loaded
  const std::uint64_t start = b.acc.cycle();
  const auto* c = b.run({d});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::Rejected) << toString(c->status);
  // Doorbell and fetch, then the 33 refused submits after which the engine
  // stops asking: no watchdog period is spent on a port that says no.
  EXPECT_LE(b.acc.cycle() - start, 1 + b.rc.fetch_cycles + 33u);
  EXPECT_EQ(b.mem.readBytes(0x2000, 64), dst_before);
}

TEST(DmaRing, ReceiverNeverReadyResolvesRingStalledWithinWatchdogBound) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 18));
  const auto dst_before = b.mem.readBytes(0x2000, 64);
  b.acc.setReceiverReady(b.alice, false);  // output port wedged for good
  const std::uint64_t start = b.acc.cycle();
  const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64)});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::RingStalled) << toString(c->status);
  // The first attempt and every resubmit each get one watchdog period.
  const std::uint64_t bound = (b.rc.max_resubmits + 1) *
                                  (b.rc.watchdog_cycles + 1) +
                              1 + b.rc.fetch_cycles;
  EXPECT_LE(b.acc.cycle() - start, bound);
  EXPECT_EQ(b.eng.stats().watchdog_fires, b.rc.max_resubmits + 1u);
  EXPECT_EQ(b.mem.readBytes(0x2000, 64), dst_before);
}

// --- Per-descriptor cases in both security modes -----------------------------

struct DmaFixture : ::testing::TestWithParam<SecurityMode> {
  RingBench b{GetParam()};
};

TEST_P(DmaFixture, EcbDescriptorMatchesSoftware) {
  const auto msg = b.randomBytes(512, 11);
  b.mem.writeBytes(0x1000, msg);
  const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 512)});
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_EQ(c->blocks, 32u);
  EXPECT_EQ(b.mem.readBytes(0x2000, 512), aes::ecbEncrypt(msg, b.key()));

  // Decrypt it back in place.
  const auto* d = b.run({b.desc(DmaMode::EcbDecrypt, 0x2000, 0x2000, 512)});
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->status, DmaError::None) << toString(d->status);
  EXPECT_EQ(b.mem.readBytes(0x2000, 512), msg);
}

TEST_P(DmaFixture, CtrDescriptorIsInvolutive) {
  const auto msg = b.randomBytes(200, 12);  // not block aligned: fine for CTR
  b.mem.writeBytes(0x1100, msg);
  auto d = b.desc(DmaMode::CtrCrypt, 0x1100, 0x1400, 200);
  aes::Iv nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = d.ctr_iv[i] = static_cast<std::uint8_t>(0x5a + 3 * i);
  const auto* c = b.run({d});
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_EQ(b.mem.readBytes(0x1400, 200), aes::ctrCrypt(msg, b.key(), nonce));

  d.src = 0x1400;
  d.dst = 0x1600;
  const auto* inv = b.run({d});
  ASSERT_NE(inv, nullptr);
  ASSERT_EQ(inv->status, DmaError::None) << toString(inv->status);
  EXPECT_EQ(b.mem.readBytes(0x1600, 200), msg);
}

// An out-of-range user or key slot is refused before the engine latches the
// sequence number, so its completion reaches no future; those two fields are
// rows of StructurallyInvalidDescriptorsRefused instead.
TEST_P(DmaFixture, RejectsBadDescriptors) {
  auto verdict = [&](std::size_t src, std::size_t len) {
    const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, src, 0x2000, len)});
    return c != nullptr ? c->status : DmaError::None;
  };
  EXPECT_EQ(verdict(0x1000, 0), DmaError::BadRange);
  EXPECT_EQ(verdict(0x1000, b.mem.size()), DmaError::BadRange);
  EXPECT_EQ(verdict(0x1000, 24), DmaError::UnalignedLength);
}

TEST_P(DmaFixture, RefusalsNeverPartiallyWrite) {
  b.mem.writeBytes(0x1100, b.randomBytes(128, 21));
  const auto snapshot = b.mem.readBytes(0x1000, 0x4000);
  auto verdict = [&](std::size_t src, std::size_t dst, std::size_t len) {
    const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, src, dst, len)});
    EXPECT_EQ(b.mem.readBytes(0x1000, 0x4000), snapshot);
    return c != nullptr ? c->status : DmaError::None;
  };
  // Overlaps [0x1100, 0x1180) but is not exactly in place.
  EXPECT_EQ(verdict(0x1100, 0x1140, 128), DmaError::OverlapDenied);
  EXPECT_EQ(verdict(0x1100, 0x1300, 120), DmaError::UnalignedLength);
  EXPECT_EQ(verdict(0x1100, b.mem.size() - 64, 128), DmaError::BadRange);
  EXPECT_EQ(verdict(SIZE_MAX - 32, 0x1300, 128), DmaError::BadRange);

  // Exact in-place (src == dst) stays allowed: buffered writeback makes it
  // well-defined.
  const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, 0x1100, 0x1100, 128)});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
}

TEST_P(DmaFixture, CtrOverlapRefusedPartialAllowedExact) {
  b.mem.writeBytes(0x1000, b.randomBytes(100, 22));
  // CTR tolerates an unaligned length, not a partial overlap.
  const auto* c = b.run({b.desc(DmaMode::CtrCrypt, 0x1000, 0x1010, 100)});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::OverlapDenied) << toString(c->status);
  const auto* d = b.run({b.desc(DmaMode::CtrCrypt, 0x1000, 0x1000, 100)});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, DmaError::None) << toString(d->status);
}

TEST_P(DmaFixture, StreamsAtPipelineRate) {
  // 128 blocks through one descriptor: one block per cycle plus the fetch,
  // the pipe fill and the completion write, well under 2 cycles per block.
  b.mem.writeBytes(0x1000, b.randomBytes(128 * 16, 13));
  const std::uint64_t start = b.acc.cycle();
  const auto* c =
      b.run({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 128 * 16)});
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->status, DmaError::None) << toString(c->status);
  ASSERT_EQ(c->blocks, 128u);
  EXPECT_LT(static_cast<double>(b.acc.cycle() - start) / c->blocks, 2.0);
}

INSTANTIATE_TEST_SUITE_P(BothModes, DmaFixture,
                         ::testing::ValuesIn(kBothModes));

TEST(DmaRing, ToctouDstRewriteBlockedByLatchOnHardenedOnly) {
  // Mid-flight the "host" rewrites the published descriptor's dst to point
  // into eve's pages (checksum re-sealed). The hardened engine executed
  // from its latched shadow copy and never re-reads the ring; the
  // unhardened engine re-reads dst at writeback and leaks.
  for (const bool hardened : {true, false}) {
    RingBench b{SecurityMode::Protected, hardened};
    const auto eve_before = b.mem.readBytes(0x4000, 0x1000);
    b.mem.writeBytes(0x1000, b.randomBytes(256, 16));
    const auto seq = b.drv->submitChain(
        {b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 256)});
    ASSERT_TRUE(seq.has_value());
    for (unsigned i = 0; i < 4; ++i) b.eng.tick();
    b.mem.write64(b.rc.desc_base + 24, 0x4000);  // dst -> eve
    b.mem.write32(b.rc.desc_base + 4,
                  ringChecksum(b.mem, b.rc.desc_base + 8, kDescBytes - 8));
    b.drv->wait(*seq, 8192);
    if (hardened) {
      EXPECT_EQ(b.eng.stats().cross_label_writes, 0u);
      EXPECT_EQ(b.mem.readBytes(0x4000, 0x1000), eve_before);
      // The transfer itself lands at the latched (legitimate) destination.
      const auto in = b.mem.readBytes(0x1000, 256);
      EXPECT_EQ(b.mem.readBytes(0x2000, 256), aes::ecbEncrypt(in, b.key()));
    } else {
      EXPECT_GE(b.eng.stats().cross_label_writes, 1u);
      EXPECT_NE(b.mem.readBytes(0x4000, 0x1000), eve_before);
    }
  }
}

TEST(DmaRing, FinishedDescriptorReplayRefusedOnHardenedOnly) {
  // Once the ring wraps, the engine's next poll lands on a descriptor it
  // has already handed back. One bit flip that sets OWNED again must not
  // re-run it: the hardened handback inverts the checksum, so the replay is
  // refused and the old destination keeps its bytes. The unhardened engine
  // rewrites that destination from whatever the source now holds.
  for (const bool hardened : {true, false}) {
    RingBench b{SecurityMode::Protected, hardened};
    for (unsigned i = 0; i < b.rc.desc_slots; ++i) {
      b.mem.writeBytes(0x1000 + i * 64, b.randomBytes(64, 40 + i));
      const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, 0x1000 + i * 64,
                                    0x2000 + i * 64, 64)});
      ASSERT_NE(c, nullptr);
      ASSERT_EQ(c->status, DmaError::None) << toString(c->status);
    }
    ASSERT_EQ(b.eng.headSlot(b.ch), 0u);  // wrapped onto a finished slot
    b.mem.writeBytes(0x1000, b.randomBytes(64, 99));  // source reused
    const auto dst_before = b.mem.readBytes(0x2000, 64);
    b.mem.write32(b.rc.desc_base, b.mem.read32(b.rc.desc_base) ^ kRingOwned);
    for (unsigned i = 0; i < 512; ++i) b.eng.tick();
    b.drv->poll();
    // The replay's completion record matches no open ticket either way.
    EXPECT_EQ(b.drv->duplicateCompletions(), 1u) << "hardened=" << hardened;
    if (hardened) {
      EXPECT_EQ(b.eng.stats().by_error[static_cast<unsigned>(
                    DmaError::BadChecksum)],
                1u);
      EXPECT_EQ(b.eng.stats().completed_ok, b.rc.desc_slots);
      EXPECT_EQ(b.mem.readBytes(0x2000, 64), dst_before);
    } else {
      EXPECT_EQ(b.eng.stats().completed_ok, b.rc.desc_slots + 1);
      EXPECT_NE(b.mem.readBytes(0x2000, 64), dst_before);
    }
  }
}

TEST(DmaRing, HardenedCampaignInvariantsHoldAcrossSeeds) {
  RingCampaignReport total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 24;  // 3 passes over every scripted scenario
    const auto rep = runRingFaultCampaign(cfg);
    EXPECT_EQ(rep.wrong_plaintext_releases, 0u) << "seed " << seed;
    EXPECT_EQ(rep.cross_label_writes, 0u) << "seed " << seed;
    EXPECT_EQ(rep.partial_writes, 0u) << "seed " << seed;
    EXPECT_EQ(rep.unrequested_writes, 0u) << "seed " << seed;
    total += rep;
  }
  // The campaign must actually exercise the machinery it certifies.
  EXPECT_GT(total.completed_ok, 0u);
  EXPECT_GT(total.refused, 0u);
  EXPECT_GT(total.watchdog_fires, 0u);
  EXPECT_GT(total.ring_faults, 0u);
  EXPECT_EQ(total.descriptors,
            total.completed_ok + total.refused + total.unresolved);
}

TEST(DmaRing, UnhardenedEngineDemonstratesViolations) {
  // The control: without checksum validation, descriptor latching, and the
  // point-of-use label re-check, the same campaign produces real
  // confidentiality/integrity violations.
  RingCampaignReport total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 24;
    cfg.hardened = false;
    total += runRingFaultCampaign(cfg);
  }
  EXPECT_GT(total.wrong_plaintext_releases + total.cross_label_writes +
                total.partial_writes,
            0u);
  // Every scripted replay re-runs a finished descriptor.
  EXPECT_GT(total.unrequested_writes, 0u);
}

// The service's pipelined block path matches golden ECB over a 32-block
// stream, in order, and streams it like one ring descriptor would.
TEST(DmaRing, ServiceRingPathMatchesMmioPath) {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 64,
                                       false}};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{31};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());

  ServiceConfig cfg;
  cfg.quota_per_round = 32;  // the whole stream issues in one round
  AccelService svc{acc, cfg};
  TenantSpec spec;
  spec.user = u;
  spec.key_slot = 1;
  spec.cell_base = 0;
  spec.key = key;
  spec.key_conf = acc.principal(u).authority.c;
  spec.queue_depth = 64;
  const unsigned t = svc.addTenant(spec);

  std::vector<aes::Block> blocks(32);
  for (auto& blk : blocks)
    for (auto& byte : blk) byte = static_cast<std::uint8_t>(rng.next());
  for (const auto& blk : blocks)
    ASSERT_TRUE(svc.submit(t, blk, /*decrypt=*/false).admitted);
  const std::uint64_t start = acc.cycle();
  svc.runUntilIdle(1u << 20);
  // The service's block path streams through the live pipe like a ring
  // descriptor would: 32 blocks in ~32 + depth cycles, not 32 x depth.
  EXPECT_LE(acc.cycle() - start, 32 + acc.pipeline().depth() + 8);

  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  for (unsigned i = 0; i < 32; ++i) {
    const auto comp = svc.fetch(t);
    ASSERT_TRUE(comp.has_value()) << "completion " << i << " missing";
    EXPECT_EQ(comp->status, CompletionStatus::Ok);
    EXPECT_EQ(comp->served_by, ServedBy::Hardware);
    aes::Block want;
    aes::Bytes one(blocks[i].begin(), blocks[i].end());
    const auto enc = aes::ecbEncrypt(one, ek);
    std::copy(enc.begin(), enc.end(), want.begin());
    EXPECT_EQ(comp->data, want) << "block " << i;
  }
  EXPECT_EQ(svc.stats().completed_hw, 32u);
}

TEST(DmaRing, AsyncBatchApiOverlapsCallerOwnedClock) {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 64,
                                       false}};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{37};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key,
                                acc.principal(u).authority.c));
  accel::AccelSession s{acc, u, 1};

  std::vector<aes::Block> a(8), c(8);
  for (auto& blk : a)
    for (auto& byte : blk) byte = static_cast<std::uint8_t>(rng.next());
  for (auto& blk : c)
    for (auto& byte : blk) byte = static_cast<std::uint8_t>(rng.next());

  // Two batches in flight at once; the caller owns every tick.
  const auto ta = s.beginBatch(a, /*decrypt=*/false);
  const auto tc = s.beginBatch(c, /*decrypt=*/false);
  EXPECT_EQ(s.asyncOutstanding(), 2u);
  unsigned guard = 0;
  while ((!s.pollBatch(ta) || !s.pollBatch(tc)) && guard++ < 4096) acc.tick();
  const auto ra = s.finishBatch(ta);
  const auto rc = s.finishBatch(tc);
  EXPECT_EQ(s.asyncOutstanding(), 0u);
  ASSERT_TRUE(ra.has_value()) << toString(ra.status());
  ASSERT_TRUE(rc.has_value()) << toString(rc.status());

  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  for (unsigned i = 0; i < 8; ++i) {
    aes::Bytes one(a[i].begin(), a[i].end());
    const auto enc = aes::ecbEncrypt(one, ek);
    aes::Block want;
    std::copy(enc.begin(), enc.end(), want.begin());
    EXPECT_EQ((*ra)[i], want);
  }
  // finishBatch on an unknown ticket is a typed rejection, not UB.
  EXPECT_EQ(s.finishBatch(999).status(), accel::AccelStatus::Rejected);
}

// --- Overlapped chains -------------------------------------------------------

// One engine, several ring channels. Channel c owns the 64 KiB span at
// c * kSpan (rings in its first 4 KiB, source at +kSrc, destination at
// +kDst), labelled for the tenant the channel serves; tenant t's key sits
// in slot t + 1.
struct MultiRing {
  static constexpr std::size_t kSpan = 0x10000;
  static constexpr std::size_t kSrc = 0x1000;
  static constexpr std::size_t kDst = 0x8000;

  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 64,
                                       false}};
  std::vector<unsigned> users;
  std::vector<aes::ExpandedKey> keys;
  std::vector<unsigned> tenant;  // per channel
  HostMemory mem;
  DmaRingEngine eng{acc, mem};
  std::vector<std::unique_ptr<DmaRingDriver>> drv;
  // Per channel: sequence numbers in submission order, and the
  // (seq, cycle) of every completion in the order it landed.
  std::vector<std::vector<std::uint16_t>> submitted;
  std::vector<std::vector<std::pair<std::uint16_t, std::uint64_t>>> landed;

  MultiRing(const std::vector<std::vector<std::uint8_t>>& tenant_keys,
            std::vector<unsigned> tenant_of_channel,
            std::uint64_t watchdog_cycles = 4096)
      : tenant{std::move(tenant_of_channel)}, mem{tenant.size() * kSpan} {
    for (unsigned t = 0; t < tenant_keys.size(); ++t) {
      const unsigned u =
          acc.addUser(Principal::user("tenant" + std::to_string(t), t + 1));
      EXPECT_TRUE(accel::loadKey128(acc, u, t + 1, 2 * t, tenant_keys[t],
                                    acc.principal(u).authority.c));
      users.push_back(u);
      keys.push_back(aes::expandKey(tenant_keys[t], aes::KeySize::Aes128));
    }
    for (unsigned c = 0; c < tenant.size(); ++c) {
      DmaRingConfig rc;
      rc.desc_base = c * kSpan;
      rc.desc_slots = 8;
      rc.comp_base = c * kSpan + 0x400;
      rc.comp_slots = 8;
      rc.chain_base = c * kSpan + 0x800;
      rc.chain_slots = 16;
      rc.watchdog_cycles = watchdog_cycles;
      const unsigned ch = eng.addChannel(rc);
      drv.push_back(std::make_unique<DmaRingDriver>(eng, mem, ch, rc));
      mem.setPageLabel(c * kSpan, kSpan,
                       acc.principal(users[tenant[c]]).authority);
    }
    submitted.resize(tenant.size());
    landed.resize(tenant.size());
  }

  static std::vector<std::uint8_t> bytes(std::size_t n, std::uint64_t seed) {
    Rng rng{seed};
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
    return v;
  }

  // Stage `data` at offset `off` of channel c's source buffer and publish
  // one descriptor over it (destination at the same offset).
  std::uint16_t submit(unsigned c, DmaMode mode, std::size_t off,
                       const std::vector<std::uint8_t>& data,
                       const aes::Block& iv = {}) {
    mem.writeBytes(c * kSpan + kSrc + off, data);
    DmaDescriptor d;
    d.user = users[tenant[c]];
    d.key_slot = tenant[c] + 1;
    d.mode = mode;
    d.src = c * kSpan + kSrc + off;
    d.dst = c * kSpan + kDst + off;
    d.len = data.size();
    d.ctr_iv = iv;
    const auto seq = drv[c]->submit(d);
    EXPECT_TRUE(seq.has_value());
    submitted[c].push_back(seq.value_or(0));
    return seq.value_or(0);
  }

  std::vector<std::uint8_t> golden(unsigned c, DmaMode mode,
                                   const std::vector<std::uint8_t>& in,
                                   const aes::Block& iv = {}) const {
    const aes::ExpandedKey& k = keys[tenant[c]];
    if (mode == DmaMode::EcbEncrypt) return aes::ecbEncrypt(in, k);
    if (mode == DmaMode::EcbDecrypt) return aes::ecbDecrypt(in, k);
    aes::Iv nonce{};
    std::copy(iv.begin(), iv.end(), nonce.begin());
    return aes::ctrCrypt(in, k, nonce);
  }

  std::vector<std::uint8_t> output(unsigned c, std::size_t off,
                                   std::size_t len) const {
    return mem.readBytes(c * kSpan + kDst + off, len);
  }

  bool allLanded() const {
    for (unsigned c = 0; c < tenant.size(); ++c)
      if (landed[c].size() < submitted[c].size()) return false;
    return true;
  }

  // Tick until every submitted descriptor resolved (or the budget runs
  // out), noting the cycle each completion landed.
  void run(std::uint64_t budget) {
    for (std::uint64_t i = 0; i < budget && !allLanded(); ++i) {
      eng.tick();
      for (unsigned c = 0; c < tenant.size(); ++c) {
        for (std::size_t k = landed[c].size(); k < submitted[c].size(); ++k) {
          if (drv[c]->done(submitted[c][k]))
            landed[c].emplace_back(submitted[c][k], acc.cycle());
        }
      }
    }
  }
};

std::vector<std::vector<std::uint8_t>> tenantKeys(unsigned n,
                                                  std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> keys;
  for (unsigned t = 0; t < n; ++t) keys.push_back(MultiRing::bytes(16, seed + t));
  return keys;
}

TEST(DmaRingOverlap, FourChannelsKeepThePipeFull) {
  // Four tenants, six 256-block descriptors outstanding on each channel.
  // The fetch unit latches the next channel's chain while the current one
  // issues, so the issue unit never idles between chains.
  MultiRing r{tenantKeys(4, 0xf00), {0, 1, 2, 3}};
  constexpr unsigned kDescs = 6;
  constexpr std::size_t kLen = 256 * 16;
  const DmaMode modes[] = {DmaMode::EcbEncrypt, DmaMode::EcbDecrypt,
                           DmaMode::CtrCrypt};
  struct Sent {
    DmaMode mode;
    aes::Block iv;
    std::vector<std::uint8_t> in;
  };
  std::vector<std::vector<Sent>> sent(4);
  const std::uint64_t start = r.acc.cycle();
  for (unsigned i = 0; i < kDescs; ++i) {
    for (unsigned c = 0; c < 4; ++c) {
      Sent s{modes[(i + c) % 3], {}, MultiRing::bytes(kLen, 100 * c + i)};
      for (unsigned b = 0; b < 16; ++b)
        s.iv[b] = static_cast<std::uint8_t>(c * 16 + i + b);
      r.submit(c, s.mode, i * kLen, s.in, s.iv);
      sent[c].push_back(std::move(s));
    }
  }
  r.run(1u << 16);
  ASSERT_TRUE(r.allLanded());
  std::uint64_t last = 0;
  for (unsigned c = 0; c < 4; ++c)
    last = std::max(last, r.landed[c].back().second - start);
  const double rate = 4.0 * kDescs * 256 / static_cast<double>(last);
  EXPECT_GE(rate, 0.99) << "blocks per device cycle over " << last
                        << " cycles";

  for (unsigned c = 0; c < 4; ++c) {
    // Exactly one completion per descriptor, in per-channel order.
    ASSERT_EQ(r.landed[c].size(), kDescs);
    for (unsigned i = 0; i < kDescs; ++i) {
      EXPECT_EQ(r.landed[c][i].first, r.submitted[c][i]) << "channel " << c;
      const DmaCompletion* comp = r.drv[c]->result(r.submitted[c][i]);
      ASSERT_NE(comp, nullptr);
      EXPECT_EQ(comp->status, DmaError::None) << toString(comp->status);
      EXPECT_EQ(comp->blocks, 256u);
      const Sent& s = sent[c][i];
      EXPECT_EQ(r.output(c, i * kLen, kLen), r.golden(c, s.mode, s.in, s.iv))
          << "channel " << c << " descriptor " << i;
    }
    EXPECT_EQ(r.drv[c]->duplicateCompletions(), 0u);
    EXPECT_EQ(r.drv[c]->corruptCompletions(), 0u);
  }
  EXPECT_EQ(r.eng.stats().completed_ok, 4u * kDescs);
  EXPECT_EQ(r.eng.stats().watchdog_fires, 0u);
}

TEST(DmaRingOverlap, SameUserChannelsRouteResponsesByRequestId) {
  // Two channels of the same user with chains in flight at once share one
  // output queue; each response must reach the chain that issued it. A
  // fault squashes one of the first chain's blocks just after the second
  // chain starts issuing, so the first chain's retry completes after the
  // second chain's responses have started to arrive.
  MultiRing r{tenantKeys(1, 0xa11), {0, 0}};
  const auto a = MultiRing::bytes(256 * 16, 1);
  const auto b = MultiRing::bytes(256 * 16, 2);
  const std::uint64_t start = r.acc.cycle();
  r.submit(0, DmaMode::EcbEncrypt, 0, a);
  r.submit(1, DmaMode::EcbDecrypt, 0, b);
  for (unsigned i = 0; i < 4096 && r.acc.stats().accepted <= 256; ++i)
    r.eng.tick();
  ASSERT_TRUE(r.acc.injectFault(accel::FaultSite::StageData,
                                r.acc.pipeline().depth() / 2, 5));
  r.run(8192);
  ASSERT_TRUE(r.allLanded());
  // The second chain issued while the first drained: both are done well
  // before two back-to-back drains would allow.
  EXPECT_LT(r.landed[1][0].second - start, 2 * (256 + 30));
  for (unsigned c = 0; c < 2; ++c) {
    const DmaCompletion* comp = r.drv[c]->result(r.submitted[c][0]);
    ASSERT_NE(comp, nullptr);
    EXPECT_EQ(comp->status, DmaError::None) << toString(comp->status);
  }
  EXPECT_EQ(r.output(0, 0, a.size()), r.golden(0, DmaMode::EcbEncrypt, a));
  EXPECT_EQ(r.output(1, 0, b.size()), r.golden(1, DmaMode::EcbDecrypt, b));
  EXPECT_EQ(r.eng.stats().watchdog_fires, 0u);
  EXPECT_EQ(r.eng.stats().block_resubmits, 1u);
}

TEST(DmaRingOverlap, PrefetchedChainDoesNotRunItsWatchdogWhileWaiting) {
  // A short chain is latched behind a 1024-block chain and waits ~1024
  // cycles for the issue unit — four times the watchdog. Its progress
  // clock (and exec_cycles) starts when it gets the issue unit.
  MultiRing r{tenantKeys(2, 0xb0b), {0, 1}, /*watchdog_cycles=*/256};
  const auto big = MultiRing::bytes(1024 * 16, 3);
  const auto small = MultiRing::bytes(16 * 16, 4);
  const std::uint64_t start = r.acc.cycle();
  r.submit(0, DmaMode::EcbEncrypt, 0, big);
  r.submit(1, DmaMode::EcbEncrypt, 0, small);
  r.run(1u << 14);
  ASSERT_TRUE(r.allLanded());
  EXPECT_EQ(r.eng.stats().watchdog_fires, 0u);
  EXPECT_EQ(r.eng.stats().recoveries, 0u);
  const DmaCompletion* cb = r.drv[0]->result(r.submitted[0][0]);
  const DmaCompletion* cs = r.drv[1]->result(r.submitted[1][0]);
  ASSERT_NE(cb, nullptr);
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cb->status, DmaError::None) << toString(cb->status);
  EXPECT_EQ(cs->status, DmaError::None) << toString(cs->status);
  EXPECT_EQ(r.output(0, 0, big.size()), r.golden(0, DmaMode::EcbEncrypt, big));
  EXPECT_EQ(r.output(1, 0, small.size()),
            r.golden(1, DmaMode::EcbEncrypt, small));
  // The small chain waited behind the big one, yet its exec_cycles count
  // only its own 16 blocks through the pipe.
  EXPECT_GT(r.landed[1][0].second - start, 1024u);
  EXPECT_LE(cs->exec_cycles, 16u + 2 * r.acc.pipeline().depth());
  EXPECT_GE(cb->exec_cycles, 1024u);
}

TEST(DmaRingOverlap, RingResetOfDrainingChainWritesNothing) {
  // Same user on both channels, so the reset chain's late responses land
  // in the queue the surviving chain drains — they must be dropped.
  MultiRing r{tenantKeys(1, 0xc0c), {0, 0}};
  const auto a = MultiRing::bytes(256 * 16, 5);
  const auto b = MultiRing::bytes(256 * 16, 6);
  const auto dst_before = r.output(0, 0, a.size());
  const std::uint16_t sa = r.submit(0, DmaMode::EcbEncrypt, 0, a);
  r.submit(1, DmaMode::EcbEncrypt, 0, b);
  // Run until channel 1's chain has started issuing: channel 0's chain has
  // issued all its blocks and is draining.
  for (unsigned i = 0; i < 4096 && r.acc.stats().accepted <= 256; ++i)
    r.eng.tick();
  ASSERT_GT(r.acc.stats().accepted, 256u);
  ASSERT_FALSE(r.drv[0]->done(sa));
  ASSERT_FALSE(r.eng.channelIdle(0));
  r.eng.ringReset(0);
  r.drv[0]->resync();
  r.submitted[0].clear();
  r.run(8192);
  ASSERT_TRUE(r.allLanded());
  // The reset chain wrote neither its destination nor a completion record.
  EXPECT_EQ(r.output(0, 0, a.size()), dst_before);
  for (unsigned s = 0; s < 8; ++s)
    EXPECT_EQ(r.mem.read32(0x400 + s * kCompBytes) & kRingValid, 0u);
  ASSERT_NE(r.drv[0]->result(sa), nullptr);
  EXPECT_EQ(r.drv[0]->result(sa)->status, DmaError::RingStalled);
  // The other channel's chain completes Ok, untouched by the reset.
  const DmaCompletion* cb = r.drv[1]->result(r.submitted[1][0]);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->status, DmaError::None) << toString(cb->status);
  EXPECT_EQ(r.output(1, 0, b.size()), r.golden(1, DmaMode::EcbEncrypt, b));
  EXPECT_EQ(r.eng.stats().completed_ok, 1u);
  EXPECT_EQ(r.eng.stats().watchdog_fires, 0u);
}

TEST(DmaRingOverlap, EveCompletionCyclesIndependentOfAliceSecrets) {
  // Fig. 8 at the ring level: Alice and Eve share the engine's fetch and
  // issue units and the pipe. With Alice's lengths held equal, Eve's
  // per-descriptor completion cycles must not depend on Alice's key,
  // plaintext or direction.
  const std::size_t alice_len[] = {64 * 16, 200 * 16, 16 * 16, 500 * 16};
  const std::size_t eve_len[] = {32 * 16, 128 * 16, 300 * 16, 8 * 16};
  auto eveTrace = [&](std::uint64_t key_seed, std::uint64_t pt_seed,
                      DmaMode alice_mode) {
    auto keys = tenantKeys(2, 0xe7e);
    keys[0] = MultiRing::bytes(16, key_seed);  // alice
    MultiRing r{keys, {0, 1}};
    std::size_t aoff = 0, eoff = 0;
    for (unsigned i = 0; i < 4; ++i) {
      r.submit(0, alice_mode, aoff,
               MultiRing::bytes(alice_len[i], pt_seed + i));
      r.submit(1, DmaMode::EcbEncrypt, eoff,
               MultiRing::bytes(eve_len[i], 0xe0 + i));
      aoff += alice_len[i];
      eoff += eve_len[i];
    }
    r.run(1u << 14);
    EXPECT_TRUE(r.allLanded());
    std::vector<std::uint64_t> trace;
    for (const auto& [seq, cycle] : r.landed[1]) {
      trace.push_back(cycle);
      const DmaCompletion* c = r.drv[1]->result(seq);
      trace.push_back(c != nullptr ? c->exec_cycles : ~0ull);
    }
    return trace;
  };
  const auto base = eveTrace(1, 10, DmaMode::EcbEncrypt);
  ASSERT_EQ(base.size(), 8u);
  EXPECT_EQ(eveTrace(2, 10, DmaMode::EcbEncrypt), base) << "alice key";
  EXPECT_EQ(eveTrace(1, 20, DmaMode::EcbEncrypt), base) << "alice plaintext";
  EXPECT_EQ(eveTrace(1, 10, DmaMode::EcbDecrypt), base) << "alice direction";
  EXPECT_EQ(eveTrace(1, 10, DmaMode::CtrCrypt), base) << "alice mode";
}

}  // namespace
}  // namespace aesifc::soc
