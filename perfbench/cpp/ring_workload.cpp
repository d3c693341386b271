// bulk_ring: one engine, four tenants, each on its own descriptor-ring
// channel over its own labelled host-memory pages. The host keeps a few
// descriptors outstanding per channel and owns the device clock; the
// service and pool layers are bypassed entirely.

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "aes/key_schedule.h"
#include "aes/modes.h"
#include "common.h"
#include "common/rng.h"
#include "soc/dma.h"
#include "trace.h"

namespace perfbench {

using aesifc::Rng;
namespace aes = aesifc::aes;
namespace accel = aesifc::accel;
namespace soc = aesifc::soc;

namespace {

constexpr unsigned kRingTenants = 4;
constexpr unsigned kRingOpsPerTenant = 260;
constexpr unsigned kRingWindow = 3;  // descriptors outstanding per channel

// Per-tenant host-memory span: rings first, then one 16 KiB src and one
// 16 KiB dst buffer per outstanding descriptor.
constexpr std::size_t kSpanBytes = 128 * 1024;
constexpr std::size_t kDescOff = 0;
constexpr unsigned kDescSlots = 8;
constexpr std::size_t kCompOff = 512;
constexpr unsigned kCompSlots = 8;
constexpr std::size_t kChainOff = 1024;
constexpr unsigned kChainSlots = 16;
constexpr std::size_t kDataOff = 4096;
constexpr std::size_t kMaxLen = 16 * 1024;

// Device cycles without any descriptor resolving before the rest count
// as unresolved.
constexpr std::uint64_t kStallCycles = 1u << 20;

soc::DmaRingConfig channelConfig(unsigned t) {
  const std::size_t base = t * kSpanBytes;
  soc::DmaRingConfig rc;
  rc.desc_base = base + kDescOff;
  rc.desc_slots = kDescSlots;
  rc.comp_base = base + kCompOff;
  rc.comp_slots = kCompSlots;
  rc.chain_base = base + kChainOff;
  rc.chain_slots = kChainSlots;
  return rc;
}

std::size_t srcBuf(unsigned t, unsigned slot) {
  return t * kSpanBytes + kDataOff + slot * 2 * kMaxLen;
}
std::size_t dstBuf(unsigned t, unsigned slot) {
  return srcBuf(t, slot) + kMaxLen;
}

struct Outstanding {
  std::uint16_t seq = 0;
  std::size_t op = 0;
  unsigned slot = 0;
  std::uint64_t submit_cycle = 0;
};

struct OpRecord {
  int status = kUnresolved;
  std::uint64_t latency = 0;
  std::uint64_t exec = 0;
  std::uint64_t complete_cycle = 0;
  std::vector<std::uint8_t> out;
};

}  // namespace

RingInputs makeRingInputs(std::uint64_t seed) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0xd3a};
  RingInputs in;
  for (unsigned t = 0; t < kRingTenants; ++t) {
    std::vector<std::uint8_t> key(16);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    const aes::ExpandedKey xk = aes::expandKey(key, aes::KeySize::Aes128);
    in.keys.push_back(std::move(key));
    std::vector<RingOp> ops(kRingOpsPerTenant);
    for (RingOp& op : ops) {
      const std::size_t blocks = 64 + rng.below(1024 - 64 + 1);  // 1-16 KiB
      const unsigned kind = static_cast<unsigned>(rng.below(4));
      op.mode = static_cast<std::uint8_t>(
          kind == 0 ? soc::DmaMode::EcbEncrypt
                    : kind == 1 ? soc::DmaMode::EcbDecrypt
                                : soc::DmaMode::CtrCrypt);
      for (auto& b : op.iv) b = static_cast<std::uint8_t>(rng.next());
      // About 1 in 4 descriptors is a 2-4 segment scatter-gather chain.
      const unsigned segs =
          rng.below(4) == 0 ? 2 + static_cast<unsigned>(rng.below(3)) : 1;
      std::vector<std::size_t> cuts{0, blocks};
      while (cuts.size() < segs + 1) {
        const std::size_t c = 1 + rng.below(blocks - 1);
        if (std::find(cuts.begin(), cuts.end(), c) == cuts.end())
          cuts.push_back(c);
      }
      std::sort(cuts.begin(), cuts.end());
      for (unsigned i = 0; i < segs; ++i)
        op.seg_len.push_back(16 * (cuts[i + 1] - cuts[i]));
      // Lay the segments out in reverse order in the buffer.
      op.seg_off.assign(segs, 0);
      std::size_t off = 0;
      for (unsigned i = segs; i-- > 0;) {
        op.seg_off[i] = off;
        off += op.seg_len[i];
      }
      op.src.resize(16 * blocks);
      for (auto& b : op.src) b = static_cast<std::uint8_t>(rng.next());
      switch (static_cast<soc::DmaMode>(op.mode)) {
        case soc::DmaMode::EcbEncrypt:
          op.want = aes::ecbEncrypt(op.src, xk);
          break;
        case soc::DmaMode::EcbDecrypt:
          op.want = aes::ecbDecrypt(op.src, xk);
          break;
        case soc::DmaMode::CtrCrypt:
          op.want = aes::ctrCrypt(op.src, xk, op.iv);
          break;
      }
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

namespace {

// Everything set-up builds: engine, tenants and keys, labelled host
// memory, the ring engine and one programmed channel + driver per tenant.
struct RingRig {
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  std::vector<unsigned> users;
  soc::HostMemory mem;
  soc::DmaRingEngine eng{acc, mem, /*hardened=*/true};
  std::vector<std::unique_ptr<soc::DmaRingDriver>> drv;

  explicit RingRig(const RingInputs& in) : mem{in.keys.size() * kSpanBytes} {
    for (unsigned t = 0; t < in.keys.size(); ++t) {
      const unsigned u = acc.addUser(aesifc::lattice::Principal::user(
          "ring-tenant-" + std::to_string(t), t + 1));
      if (!accel::loadKey128(acc, u, t + 1, (2 * t) % accel::kScratchpadCells,
                             in.keys[t], acc.principal(u).authority.c))
        throw std::runtime_error("ring key provisioning refused");
      users.push_back(u);
      mem.setPageLabel(t * kSpanBytes, kSpanBytes, acc.principal(u).authority);
      const soc::DmaRingConfig rc = channelConfig(t);
      const unsigned ch = eng.addChannel(rc);
      drv.push_back(std::make_unique<soc::DmaRingDriver>(eng, mem, ch, rc));
    }
  }
};

}  // namespace

double setupBulkRing(const RingInputs& in) {
  const auto t0 = Clock::now();
  RingRig rig{in};
  return secondsSince(t0);
}

RoundResult runBulkRing(const RingInputs& in, Tracer* tr) {
  RoundResult r;
  const unsigned n = static_cast<unsigned>(in.ops.size());

  RingRig rig{in};
  accel::AesAccelerator& acc = rig.acc;
  soc::HostMemory& mem = rig.mem;
  soc::DmaRingEngine& eng = rig.eng;
  auto& drv = rig.drv;
  const auto& users = rig.users;

  std::vector<std::vector<OpRecord>> rec(n);
  std::vector<std::vector<Outstanding>> outq(n);
  std::vector<std::vector<char>> slot_busy(n,
                                           std::vector<char>(kRingWindow, 0));
  std::vector<std::size_t> next(n, 0);
  for (unsigned t = 0; t < n; ++t) rec[t].resize(in.ops[t].size());
  std::uint64_t backpressure = 0;
  std::uint64_t conservation = 0;
  const std::uint64_t start_cycle = acc.cycle();

  const auto t0 = Clock::now();
  {
    Scope round{tr, SpanName::BenchRound};
    std::uint64_t last_progress = acc.cycle();
    for (;;) {
      bool work_left = false;
      for (unsigned t = 0; t < n; ++t) {
        while (outq[t].size() < kRingWindow && next[t] < in.ops[t].size()) {
          const RingOp& op = in.ops[t][next[t]];
          const unsigned slot = static_cast<unsigned>(
              std::find(slot_busy[t].begin(), slot_busy[t].end(), 0) -
              slot_busy[t].begin());
          // The host fills its source buffer, then publishes the chain.
          std::vector<soc::DmaDescriptor> segs;
          std::size_t pos = 0;
          for (std::size_t i = 0; i < op.seg_len.size(); ++i) {
            soc::DmaDescriptor d;
            d.user = users[t];
            d.key_slot = t + 1;
            d.mode = static_cast<soc::DmaMode>(op.mode);
            d.src = srcBuf(t, slot) + op.seg_off[i];
            d.dst = dstBuf(t, slot) + op.seg_off[i];
            d.len = op.seg_len[i];
            d.ctr_iv = op.iv;
            mem.writeBytes(d.src, std::vector<std::uint8_t>(
                                      op.src.begin() + pos,
                                      op.src.begin() + pos + d.len));
            pos += d.len;
            segs.push_back(d);
          }
          std::optional<std::uint16_t> seq;
          {
            Scope s{tr, SpanName::RingSubmit, opId(t, next[t])};
            seq = drv[t]->submitChain(segs);
          }
          if (!seq) {
            ++backpressure;  // ring full: offer it again after a tick
            break;
          }
          slot_busy[t][slot] = 1;
          outq[t].push_back({*seq, next[t], slot, acc.cycle()});
          ++next[t];
        }
        work_left |= !outq[t].empty() || next[t] < in.ops[t].size();
      }
      if (!work_left) break;
      {
        Scope s{tr, SpanName::RingTick};
        eng.tick();
      }
      for (unsigned t = 0; t < n; ++t) {
        // The completion event already resolved the futures; only look
        // when the ring driver's outstanding count says something landed.
        if (drv[t]->outstanding() >= outq[t].size()) continue;
        Scope s{tr, SpanName::RingPoll};
        for (auto it = outq[t].begin(); it != outq[t].end();) {
          const soc::DmaCompletion* c = drv[t]->result(it->seq);
          if (!c) {
            ++it;
            continue;
          }
          OpRecord& o = rec[t][it->op];
          // A record for another sequence number or user is a verdict
          // that belongs to no op of this channel.
          if (c->seq != it->seq || c->user != users[t]) ++conservation;
          o.status = static_cast<int>(c->status);
          o.latency = acc.cycle() - it->submit_cycle;
          o.exec = c->exec_cycles;
          o.complete_cycle = acc.cycle() - start_cycle;
          const RingOp& op = in.ops[t][it->op];
          if (c->status == soc::DmaError::None) {
            o.out.reserve(op.src.size());
            for (std::size_t i = 0; i < op.seg_len.size(); ++i) {
              const auto part = mem.readBytes(
                  dstBuf(t, it->slot) + op.seg_off[i], op.seg_len[i]);
              o.out.insert(o.out.end(), part.begin(), part.end());
            }
          }
          slot_busy[t][it->slot] = 0;
          it = outq[t].erase(it);
          last_progress = acc.cycle();
        }
        drv[t]->forgetResolved();
      }
      if (acc.cycle() - last_progress > kStallCycles) break;
    }
  }
  r.timed_s = secondsSince(t0);
  r.device_cycles = acc.cycle() - start_cycle;
  r.shard_cycles_sum = r.device_cycles;

  Fingerprint fp;
  std::vector<std::uint64_t> exec;
  double nonexec_sum = 0;
  for (unsigned t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < in.ops[t].size(); ++i) {
      ++r.attempted;
      const OpRecord& o = rec[t][i];
      fp.u64(static_cast<std::uint64_t>(o.status));
      if (o.status != static_cast<int>(soc::DmaError::None)) {
        ++r.failed;
        if (o.status == kUnresolved) ++r.unresolved;
        continue;
      }
      fp.bytes(o.out.data(), o.out.size());
      fp.u64(o.complete_cycle);
      fp.u64(o.exec);
      if (o.out != in.ops[t][i].want) {
        ++r.wrong;
        ++r.failed;
        continue;
      }
      r.ok_blocks += in.ops[t][i].src.size() / 16;
      r.ok_latency.push_back(o.latency);
      exec.push_back(o.exec);
      nonexec_sum +=
          static_cast<double>(o.latency) - static_cast<double>(o.exec);
    }
  }
  r.conservation_errors = conservation;
  r.layer["ring.backpressure_refusals"] = static_cast<double>(backpressure);
  r.layer["ring.exec_cycles_p50"] = percentileU(exec, 0.5);
  r.layer["ring.nonexec_cycles_per_descriptor"] =
      exec.empty() ? 0.0 : nonexec_sum / static_cast<double>(exec.size());
  finishFingerprint(fp, r);
  return r;
}

}  // namespace perfbench
