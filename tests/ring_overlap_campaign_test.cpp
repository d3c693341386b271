// Seeded fault storm over overlapped ring chains: four channels (two of
// them serving the same tenant) keep descriptors outstanding on one
// hardened DmaRingEngine, so chains issue, drain and recover at the same
// time, while a FaultInjector flips bits in every channel's descriptor,
// chain and completion rings, perturbs the host interface, and upsets
// pipeline state (fault-aborted blocks). The oracles are the single-channel
// campaign's: no wrong plaintext released, no byte written across a label,
// no partial write by a refused transfer — plus exactly one verdict per
// descriptor.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "accel/driver.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/dma.h"
#include "soc/fault_injector.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using lattice::Principal;

constexpr unsigned kChannels = 4;
constexpr unsigned kTenantOf[kChannels] = {0, 1, 2, 0};
constexpr unsigned kTenants = 3;
constexpr unsigned kWindow = 2;  // descriptors outstanding per channel
constexpr std::size_t kSpan = 0x8000;  // per-channel host memory
constexpr std::size_t kBuf = 0x0800;   // one src or dst buffer (128 blocks)
constexpr std::size_t kSrcOff = 0x1000;
constexpr std::size_t kDstOff = kSrcOff + kWindow * kBuf;
constexpr std::uint64_t kWatchdog = 512;
// Cycles a channel may go without any verdict before the host resets it.
constexpr std::uint64_t kHostPatience = 16 * kWatchdog + 4096;
constexpr std::uint64_t kMaxCycles = 1u << 22;
constexpr std::size_t kVictimBytes = 4 * kPageBytes;

struct StormReport {
  unsigned descriptors = 0;
  unsigned verdicts = 0;
  unsigned ok = 0;
  unsigned refused = 0;
  unsigned host_resets = 0;  // verdicts delivered by ringReset + resync
  unsigned wrong_plaintext = 0;
  unsigned partial_writes = 0;
  unsigned cross_label_writes = 0;
  unsigned unresolved = 0;  // still outstanding at the cycle cap
  std::uint64_t ring_faults = 0;
  std::uint64_t hw_faults = 0;
  DmaRingStats ring;
};

struct Pending {
  std::uint16_t seq = 0;
  unsigned slot = 0;
  std::vector<std::uint8_t> golden;
  std::vector<std::uint8_t> dst_before;
};

StormReport runOverlapStorm(std::uint64_t seed, double rate,
                            unsigned per_channel) {
  AesAccelerator acc{AcceleratorConfig{}};
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 7};
  std::vector<unsigned> users;
  std::vector<std::vector<std::uint8_t>> keys;
  std::vector<aes::ExpandedKey> xkeys;
  for (unsigned t = 0; t < kTenants; ++t) {
    users.push_back(
        acc.addUser(Principal::user("tenant" + std::to_string(t), t + 1)));
    std::vector<std::uint8_t> k(16);
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_TRUE(accel::loadKey128(acc, users[t], t + 1, 2 * t, k,
                                  acc.principal(users[t]).authority.c));
    xkeys.push_back(aes::expandKey(k, aes::KeySize::Aes128));
    keys.push_back(std::move(k));
  }
  const unsigned eve = acc.addUser(Principal::user("eve", 9));

  HostMemory mem{kChannels * kSpan + kVictimBytes};
  DmaRingEngine eng{acc, mem};
  std::vector<std::unique_ptr<DmaRingDriver>> drv;
  std::vector<RingRange> desc_rings, comp_rings;
  for (unsigned c = 0; c < kChannels; ++c) {
    DmaRingConfig rc;
    rc.desc_base = c * kSpan;
    rc.desc_slots = 8;
    rc.comp_base = c * kSpan + 0x200;
    rc.comp_slots = 4;
    rc.chain_base = c * kSpan + 0x400;
    rc.chain_slots = 8;
    rc.watchdog_cycles = kWatchdog;
    const unsigned ch = eng.addChannel(rc);
    drv.push_back(std::make_unique<DmaRingDriver>(eng, mem, ch, rc));
    mem.setPageLabel(c * kSpan, kSpan,
                     acc.principal(users[kTenantOf[c]]).authority);
    desc_rings.push_back({rc.desc_base, rc.desc_slots, kDescBytes});
    desc_rings.push_back({rc.chain_base, rc.chain_slots, kDescBytes});
    comp_rings.push_back({rc.comp_base, rc.comp_slots, kCompBytes});
  }
  // Eve's pages: no channel may ever write them.
  const std::size_t victim = kChannels * kSpan;
  mem.setPageLabel(victim, kVictimBytes, acc.principal(eve).authority);
  for (std::size_t i = 0; i < kVictimBytes; ++i)
    mem.write8(victim + i, static_cast<std::uint8_t>(0xE5 ^ (i * 7)));
  const auto victim_snap = mem.readBytes(victim, kVictimBytes);

  FaultCampaignConfig fcfg;
  fcfg.seed = seed;
  fcfg.fault_rate = rate;
  fcfg.hw_faults = true;
  fcfg.host_faults = true;
  FaultInjector inj{acc, fcfg, users};
  inj.attachRingMemory(&mem, desc_rings, comp_rings);
  acc.setTickHook([&] { inj.tick(); });

  StormReport rep;
  std::vector<std::vector<Pending>> pending(kChannels);
  std::vector<unsigned> sent(kChannels, 0);
  std::vector<std::uint64_t> last_verdict(kChannels, 0);

  auto judge = [&](unsigned c, const Pending& p, const DmaCompletion& comp) {
    ++rep.verdicts;
    const std::size_t dst = c * kSpan + kDstOff + p.slot * kBuf;
    const auto now = mem.readBytes(dst, p.golden.size());
    if (comp.status == DmaError::None) {
      ++rep.ok;
      if (now != p.golden) ++rep.wrong_plaintext;
    } else {
      ++rep.refused;
      if (now != p.dst_before) ++rep.partial_writes;
    }
  };

  auto submitNext = [&](unsigned c) {
    std::vector<char> busy(kWindow, 0);
    for (const Pending& p : pending[c]) busy[p.slot] = 1;
    unsigned slot = 0;
    while (busy[slot]) ++slot;
    const unsigned t = kTenantOf[c];
    const std::size_t blocks = 1 + rng.below(kBuf / 16);
    const std::size_t src = c * kSpan + kSrcOff + slot * kBuf;
    const std::size_t dst = c * kSpan + kDstOff + slot * kBuf;
    std::vector<std::uint8_t> in(16 * blocks);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
    mem.writeBytes(src, in);
    DmaDescriptor head;
    head.user = users[t];
    head.key_slot = t + 1;
    const unsigned kind = static_cast<unsigned>(rng.below(3));
    head.mode = kind == 0   ? DmaMode::EcbEncrypt
                : kind == 1 ? DmaMode::EcbDecrypt
                            : DmaMode::CtrCrypt;
    for (auto& b : head.ctr_iv) b = static_cast<std::uint8_t>(rng.next());
    Pending p;
    p.slot = slot;
    if (head.mode == DmaMode::EcbEncrypt) {
      p.golden = aes::ecbEncrypt(in, xkeys[t]);
    } else if (head.mode == DmaMode::EcbDecrypt) {
      p.golden = aes::ecbDecrypt(in, xkeys[t]);
    } else {
      aes::Iv nonce{};
      std::copy(head.ctr_iv.begin(), head.ctr_iv.end(), nonce.begin());
      p.golden = aes::ctrCrypt(in, xkeys[t], nonce);
    }
    p.dst_before = mem.readBytes(dst, in.size());
    // 1-3 scatter-gather segments.
    std::vector<DmaDescriptor> segs;
    const unsigned nseg = 1 + static_cast<unsigned>(rng.below(3));
    std::size_t off = 0;
    for (unsigned s = 0; s < nseg && off < in.size(); ++s) {
      DmaDescriptor seg = head;
      seg.src = src + off;
      seg.dst = dst + off;
      const std::size_t remain = in.size() - off;
      seg.len = s + 1 == nseg ? remain
                              : std::min(remain, 16 * (1 + rng.below(
                                                          remain / 16)));
      segs.push_back(seg);
      off += seg.len;
    }
    const auto seq = drv[c]->submitChain(segs);
    if (!seq) return false;  // backpressure: offer it again next cycle
    p.seq = *seq;
    pending[c].push_back(std::move(p));
    ++sent[c];
    ++rep.descriptors;
    return true;
  };

  for (std::uint64_t cycle = 0; cycle < kMaxCycles; ++cycle) {
    bool work = false;
    for (unsigned c = 0; c < kChannels; ++c) {
      while (pending[c].size() < kWindow && sent[c] < per_channel &&
             submitNext(c)) {
      }
      work |= !pending[c].empty() || sent[c] < per_channel;
    }
    if (!work) break;
    // Driver-level recovery: a key slot zeroized by a fault is
    // re-provisioned from host-held key material.
    for (unsigned t = 0; t < kTenants; ++t) {
      if (!acc.roundKeys().valid(t + 1) && !acc.keySlotBusy(t + 1))
        accel::loadKey128(acc, users[t], t + 1, 2 * t, keys[t],
                          acc.principal(users[t]).authority.c);
    }
    eng.tick();
    for (unsigned c = 0; c < kChannels; ++c) {
      for (auto it = pending[c].begin(); it != pending[c].end();) {
        const DmaCompletion* comp = drv[c]->result(it->seq);
        if (comp == nullptr) {
          ++it;
          continue;
        }
        judge(c, *it, *comp);
        last_verdict[c] = cycle;
        it = pending[c].erase(it);
      }
      drv[c]->forgetResolved();
      if (!pending[c].empty() && cycle - last_verdict[c] > kHostPatience) {
        // A wedged channel (a fault ate a completion record or cleared
        // OWNED before the fetch) is recovered the driver's way: reset
        // the ring; resync resolves every abandoned future RingStalled.
        eng.ringReset(c);
        drv[c]->resync();
        ++rep.host_resets;
        last_verdict[c] = cycle;
      }
    }
    if (mem.readBytes(victim, kVictimBytes) != victim_snap) {
      ++rep.cross_label_writes;
      mem.writeBytes(victim, victim_snap);
    }
  }
  acc.setTickHook(nullptr);
  for (unsigned c = 0; c < kChannels; ++c)
    rep.unresolved += static_cast<unsigned>(pending[c].size());
  rep.ring = eng.stats();
  rep.cross_label_writes += static_cast<unsigned>(rep.ring.cross_label_writes);
  const auto frep = inj.report();
  rep.ring_faults = frep.host_ring_desc + frep.host_ring_comp;
  for (const std::uint64_t n : frep.applied_by_site) rep.hw_faults += n;
  return rep;
}

TEST(RingOverlapCampaign, HardenedInvariantsHoldWhileChainsOverlap) {
  StormReport total;
  for (const double rate : {0.01, 0.03}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const StormReport rep = runOverlapStorm(seed, rate, 24);
      EXPECT_EQ(rep.wrong_plaintext, 0u) << "seed " << seed << " rate " << rate;
      EXPECT_EQ(rep.cross_label_writes, 0u)
          << "seed " << seed << " rate " << rate;
      EXPECT_EQ(rep.partial_writes, 0u) << "seed " << seed << " rate " << rate;
      // Exactly one verdict per descriptor, none left outstanding.
      EXPECT_EQ(rep.verdicts, rep.descriptors)
          << "seed " << seed << " rate " << rate;
      EXPECT_EQ(rep.unresolved, 0u);
      EXPECT_EQ(rep.descriptors, kChannels * 24u);
      total.descriptors += rep.descriptors;
      total.ok += rep.ok;
      total.refused += rep.refused;
      total.host_resets += rep.host_resets;
      total.ring_faults += rep.ring_faults;
      total.hw_faults += rep.hw_faults;
      total.ring += rep.ring;
    }
  }
  // The storm exercised what it certifies: Ok traffic, typed refusals,
  // ring corruption, and fault-aborted pipe blocks retried mid-overlap.
  EXPECT_GT(total.ok, 0u);
  EXPECT_GT(total.refused, 0u);
  EXPECT_GT(total.ring_faults, 0u);
  EXPECT_GT(total.hw_faults, 0u);
  EXPECT_GT(total.ring.block_resubmits, 0u);
  EXPECT_GT(total.ring.checksum_rejects, 0u);
  EXPECT_EQ(total.ring.comp_overflow_drops, 0u);
  SUCCEED() << "ok " << total.ok << " refused " << total.refused
            << " host resets " << total.host_resets << " ring "
            << total.ring.toJson();
}

}  // namespace
}  // namespace aesifc::soc
