#include "soc/dma.h"

#include <gtest/gtest.h>

#include <limits>

#include "accel/driver.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/attacks.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using lattice::Conf;
using lattice::Label;
using lattice::Principal;

struct DmaFixture : ::testing::TestWithParam<SecurityMode> {
  AcceleratorConfig cfg() const {
    AcceleratorConfig c;
    c.mode = GetParam();
    return c;
  }
};

TEST(HostMemory, PageLabelsCoverRanges) {
  HostMemory mem{4 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  mem.setPageLabel(kPageBytes, kPageBytes + 1, alice);  // spans 2 pages
  EXPECT_EQ(mem.pageLabel(0), Label::publicTrusted());
  EXPECT_EQ(mem.pageLabel(kPageBytes), alice);
  EXPECT_EQ(mem.pageLabel(2 * kPageBytes), alice);
  EXPECT_EQ(mem.pageLabel(3 * kPageBytes), Label::publicTrusted());
}

TEST(HostMemory, PageLabelStraddlesBoundaryFromMidPage) {
  // A short span that starts mid-page and crosses into the next page must
  // label BOTH pages it touches.
  HostMemory mem{4 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  mem.setPageLabel(kPageBytes - 8, 16, alice);  // 8 bytes each side
  EXPECT_EQ(mem.pageLabel(0), alice);
  EXPECT_EQ(mem.pageLabel(kPageBytes), alice);
  EXPECT_EQ(mem.pageLabel(2 * kPageBytes), Label::publicTrusted());
}

TEST(HostMemory, ZeroLengthSpanLabelsNothing) {
  HostMemory mem{2 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  mem.setPageLabel(10, 0, alice);  // empty span: no page touched
  EXPECT_EQ(mem.pageLabel(0), Label::publicTrusted());
  // Even at an address past the end of memory, an empty span is a no-op
  // rather than an error or a label change.
  EXPECT_NO_THROW(mem.setPageLabel(100 * kPageBytes, 0, alice));
}

TEST(HostMemory, SetPageLabelRangeErrorsAreAtomic) {
  HostMemory mem{4 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  // Span runs past the end of memory: must throw and label NO page, even
  // though its first pages are in range (atomic failure).
  EXPECT_THROW(mem.setPageLabel(kPageBytes, 10 * kPageBytes, alice),
               std::out_of_range);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(mem.pageLabel(p * kPageBytes), Label::publicTrusted());
  }
  // addr + len overflowing size_t must not wrap around into "in range".
  EXPECT_THROW(
      mem.setPageLabel(8, std::numeric_limits<std::size_t>::max() - 2, alice),
      std::out_of_range);
  EXPECT_THROW(mem.setPageLabel(100 * kPageBytes, 1, alice),
               std::out_of_range);
  EXPECT_EQ(mem.pageLabel(0), Label::publicTrusted());
}

TEST(HostMemory, ByteAccess) {
  HostMemory mem{1024};
  mem.writeBytes(100, {1, 2, 3});
  EXPECT_EQ(mem.read8(101), 2);
  EXPECT_EQ(mem.readBytes(100, 3), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_P(DmaFixture, EcbDescriptorMatchesSoftware) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{11};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));

  HostMemory mem{16 * 1024};
  mem.setPageLabel(0x400, 512, acc.principal(u).authority);
  mem.setPageLabel(0x800, 512, acc.principal(u).authority);
  std::vector<std::uint8_t> msg(512);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  mem.writeBytes(0x400, msg);

  DmaEngine dma{acc, mem};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::EcbEncrypt;
  d.src = 0x400;
  d.dst = 0x800;
  d.len = 512;
  const auto r = dma.run(d);
  ASSERT_TRUE(r.ok) << toString(r.error);
  EXPECT_EQ(r.blocks, 32u);
  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  EXPECT_EQ(mem.readBytes(0x800, 512), aes::ecbEncrypt(msg, ek));

  // Decrypt it back in place.
  DmaDescriptor back = d;
  back.mode = DmaMode::EcbDecrypt;
  back.src = 0x800;
  back.dst = 0x800;
  ASSERT_TRUE(dma.run(back).ok);
  EXPECT_EQ(mem.readBytes(0x800, 512), msg);
}

TEST_P(DmaFixture, CtrDescriptorIsInvolutive) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{12};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));

  HostMemory mem{8 * 1024};
  mem.setPageLabel(0x000, 0x800, acc.principal(u).authority);
  std::vector<std::uint8_t> msg(200);  // not block aligned: fine for CTR
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  mem.writeBytes(0x100, msg);

  DmaEngine dma{acc, mem};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::CtrCrypt;
  d.src = 0x100;
  d.dst = 0x400;
  d.len = 200;
  for (auto& b : d.ctr_iv) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(dma.run(d).ok);
  // Software check.
  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  aes::Iv nonce{};
  std::copy(d.ctr_iv.begin(), d.ctr_iv.end(), nonce.begin());
  EXPECT_EQ(mem.readBytes(0x400, 200), aes::ctrCrypt(msg, ek, nonce));

  DmaDescriptor inv = d;
  inv.src = 0x400;
  inv.dst = 0x600;
  ASSERT_TRUE(dma.run(inv).ok);
  EXPECT_EQ(mem.readBytes(0x600, 200), msg);
}

TEST_P(DmaFixture, RejectsBadDescriptors) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  HostMemory mem{1024};
  DmaEngine dma{acc, mem};
  DmaDescriptor d;
  d.user = u;
  d.len = 0;
  EXPECT_EQ(dma.run(d).error, DmaError::BadRange);
  d.len = 2048;
  EXPECT_EQ(dma.run(d).error, DmaError::BadRange);
  d.len = 24;  // unaligned for ECB
  EXPECT_EQ(dma.run(d).error, DmaError::UnalignedLength);
  d.len = 32;
  d.user = 99;  // no such principal
  EXPECT_EQ(dma.run(d).error, DmaError::BadDescriptor);
  d.user = u;
  d.key_slot = 999;
  EXPECT_EQ(dma.run(d).error, DmaError::BadDescriptor);
}

TEST_P(DmaFixture, RefusalsNeverPartiallyWrite) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{21};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));

  HostMemory mem{4 * 1024};
  mem.setPageLabel(0, 4 * 1024, acc.principal(u).authority);
  std::vector<std::uint8_t> msg(128);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  mem.writeBytes(0x100, msg);
  const auto snapshot = mem.readBytes(0, mem.size());

  DmaEngine dma{acc, mem};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::EcbEncrypt;
  d.src = 0x100;
  d.dst = 0x140;  // overlaps [0x100, 0x180) but is not exactly in-place
  d.len = 128;
  EXPECT_EQ(dma.run(d).error, DmaError::OverlapDenied);
  EXPECT_EQ(mem.readBytes(0, mem.size()), snapshot);

  d.dst = 0x300;
  d.len = 120;  // unaligned for ECB
  EXPECT_EQ(dma.run(d).error, DmaError::UnalignedLength);
  EXPECT_EQ(mem.readBytes(0, mem.size()), snapshot);

  d.len = 128;
  d.dst = mem.size() - 64;  // runs off the end of memory
  EXPECT_EQ(dma.run(d).error, DmaError::BadRange);
  d.dst = 0x300;
  d.src = std::numeric_limits<std::size_t>::max() - 32;  // addr+len wraps
  EXPECT_EQ(dma.run(d).error, DmaError::BadRange);
  EXPECT_EQ(mem.readBytes(0, mem.size()), snapshot);

  // Exact in-place (src == dst) stays allowed — buffered writeback makes
  // it well-defined (EcbDescriptorMatchesSoftware decrypts in place).
  d.src = 0x100;
  d.dst = 0x100;
  EXPECT_TRUE(dma.run(d).ok);
}

TEST_P(DmaFixture, CtrOverlapRefusedPartialAllowedExact) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{22};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));
  HostMemory mem{2 * 1024};
  mem.setPageLabel(0, 2 * 1024, acc.principal(u).authority);
  DmaEngine dma{acc, mem};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::CtrCrypt;
  d.src = 0x000;
  d.dst = 0x010;
  d.len = 100;  // CTR tolerates unaligned length, not partial overlap
  EXPECT_EQ(dma.run(d).error, DmaError::OverlapDenied);
  d.dst = 0x000;
  EXPECT_TRUE(dma.run(d).ok);
}

TEST_P(DmaFixture, StreamsAtPipelineRate) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{13};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));
  HostMemory mem{32 * 1024};
  mem.setPageLabel(0, 32 * 1024, acc.principal(u).authority);
  DmaEngine dma{acc, mem};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.src = 0;
  d.dst = 0x4000;
  d.len = 128 * 16;
  const auto r = dma.run(d);
  ASSERT_TRUE(r.ok);
  // ~1 block/cycle plus the 30-cycle fill: well under 2 cycles/block.
  EXPECT_LT(static_cast<double>(r.cycles) / r.blocks, 2.0);
}

INSTANTIATE_TEST_SUITE_P(BothModes, DmaFixture,
                         ::testing::Values(SecurityMode::Baseline,
                                           SecurityMode::Protected));

// --- Fail-live: every descriptor gets its verdict within a bound ------------------

// One user with a loaded key in slot 1 and a labeled 4-block src/dst pair.
struct LiveRig {
  AesAccelerator acc{AcceleratorConfig{}};
  unsigned u = acc.addUser(Principal::user("alice", 1));
  HostMemory mem{4 * kPageBytes};
  std::vector<std::uint8_t> key = std::vector<std::uint8_t>(16, 0x3c);
  DmaDescriptor d;

  LiveRig() {
    EXPECT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));
    mem.setPageLabel(0, mem.size(), acc.principal(u).authority);
    d.user = u;
    d.key_slot = 1;
    d.src = 0;
    d.dst = 2 * kPageBytes;
    d.len = 64;
    fill(0x11);
  }
  void fill(std::uint8_t v) {
    mem.writeBytes(d.src, std::vector<std::uint8_t>(d.len, v));
  }
  std::vector<std::uint8_t> dst() const { return mem.readBytes(d.dst, d.len); }
};

// The worst-case time to a verdict the engine must stay within: its former
// single watchdog of 4096 + 2 cycles per block, checked after each tick.
std::uint64_t formerTimeoutBound(std::size_t blocks) {
  return 4096 + 2 * blocks + 1;
}

TEST(DmaEngineLiveness, UnloadedKeySlotIsRejectedAtOnce) {
  LiveRig r;
  r.d.key_slot = 2;  // never loaded
  const auto before_dst = r.dst();
  const std::uint64_t before = r.acc.cycle();
  DmaEngine dma{r.acc, r.mem};
  const auto res = dma.run(r.d);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, DmaError::Rejected);
  EXPECT_LE(r.acc.cycle() - before, 2u);
  EXPECT_EQ(r.dst(), before_dst);
}

TEST(DmaEngineLiveness, ReceiverNeverReadyTimesOutWithinTheFormerBound) {
  LiveRig r;
  r.acc.setReceiverReady(r.u, false);
  const auto before_dst = r.dst();
  const std::uint64_t before = r.acc.cycle();
  DmaEngine dma{r.acc, r.mem};
  const auto res = dma.run(r.d);
  EXPECT_EQ(res.error, DmaError::Timeout);
  EXPECT_LE(r.acc.cycle() - before, formerTimeoutBound(4));
  EXPECT_EQ(res.cycles, r.acc.cycle() - before);
  EXPECT_EQ(r.dst(), before_dst);
}

// A timed-out run leaves its requests parked in the device. Once the
// receiver is ready again they complete while the next run streams, and
// they must not be credited to that run's blocks.
TEST(DmaEngineLiveness, TimedOutRunsLateResponsesNeverReachTheNextRun) {
  LiveRig r;
  DmaEngine dma{r.acc, r.mem};
  r.acc.setReceiverReady(r.u, false);
  ASSERT_EQ(dma.run(r.d).error, DmaError::Timeout);
  r.acc.setReceiverReady(r.u, true);
  r.fill(0x22);
  const auto res = dma.run(r.d);
  ASSERT_TRUE(res.ok) << toString(res.error);
  const auto ek = aes::expandKey(r.key, aes::KeySize::Aes128);
  EXPECT_EQ(r.dst(), aes::ecbEncrypt(std::vector<std::uint8_t>(64, 0x22), ek));
}

// --- The attack ------------------------------------------------------------------

TEST(DmaTheft, BaselineStealsAlicePlaintext) {
  const auto r = runDmaTheftAttack(SecurityMode::Baseline);
  EXPECT_TRUE(r.alice_plaintext_stolen);
  EXPECT_TRUE(r.legit_dma_ok);
}

TEST(DmaTheft, ProtectedBlocksBothDirections) {
  const auto r = runDmaTheftAttack(SecurityMode::Protected);
  EXPECT_FALSE(r.alice_plaintext_stolen);
  EXPECT_TRUE(r.src_read_blocked);
  EXPECT_TRUE(r.dst_write_blocked);
  EXPECT_TRUE(r.legit_dma_ok);  // legitimate traffic unaffected
  EXPECT_LT(r.cycles_per_block, 4.0);
}

}  // namespace
}  // namespace aesifc::soc
