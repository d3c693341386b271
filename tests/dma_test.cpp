#include "soc/dma.h"

#include <gtest/gtest.h>

#include <limits>

#include "soc/attacks.h"

namespace aesifc::soc {
namespace {

using accel::SecurityMode;
using lattice::Label;
using lattice::Principal;

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
