#include "soc/dma.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "accel/driver.h"
#include "accel/key_store.h"

namespace aesifc::soc {

// ---------------------------------------------------------------------------
// HostMemory
// ---------------------------------------------------------------------------

HostMemory::HostMemory(std::size_t bytes)
    : mem_(bytes, 0),
      page_labels_((bytes + kPageBytes - 1) / kPageBytes,
                   lattice::Label::publicTrusted()) {}

void HostMemory::setPageLabel(std::size_t addr, std::size_t len,
                              const lattice::Label& l) {
  if (len == 0) return;  // empty span touches no page
  // Validate the whole range up front — the call either labels every page
  // the span touches or throws with no label changed. `len > size - addr`
  // also catches addr + len wrapping past SIZE_MAX.
  if (addr >= mem_.size() || len > mem_.size() - addr) {
    throw std::out_of_range("HostMemory::setPageLabel: span outside memory");
  }
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    page_labels_[p] = l;
  }
}

const lattice::Label& HostMemory::pageLabel(std::size_t addr) const {
  return page_labels_.at(addr / kPageBytes);
}

void HostMemory::writeBytes(std::size_t addr,
                            const std::vector<std::uint8_t>& data) {
  for (std::size_t i = 0; i < data.size(); ++i) mem_.at(addr + i) = data[i];
}

std::vector<std::uint8_t> HostMemory::readBytes(std::size_t addr,
                                                std::size_t len) const {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = mem_.at(addr + i);
  return out;
}

std::uint32_t HostMemory::read32(std::size_t addr) const {
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(mem_.at(addr + i)) << (8 * i);
  return v;
}

void HostMemory::write32(std::size_t addr, std::uint32_t v) {
  for (unsigned i = 0; i < 4; ++i)
    mem_.at(addr + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t HostMemory::read64(std::size_t addr) const {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(mem_.at(addr + i)) << (8 * i);
  return v;
}

void HostMemory::write64(std::size_t addr, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i)
    mem_.at(addr + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

// ---------------------------------------------------------------------------
// DmaError
// ---------------------------------------------------------------------------

std::string toString(DmaError e) {
  switch (e) {
    case DmaError::None: return "ok";
    case DmaError::BadRange: return "bad-range";
    case DmaError::UnalignedLength: return "unaligned-length";
    case DmaError::OverlapDenied: return "overlap-denied";
    case DmaError::SrcPageDenied: return "src-page-denied";
    case DmaError::DstPageDenied: return "dst-page-denied";
    case DmaError::RingPageDenied: return "ring-page-denied";
    case DmaError::BadDescriptor: return "bad-descriptor";
    case DmaError::BadChecksum: return "bad-checksum";
    case DmaError::OobNextPointer: return "oob-next-pointer";
    case DmaError::ChainLoop: return "chain-loop";
    case DmaError::ChainTooLong: return "chain-too-long";
    case DmaError::TornOwnership: return "torn-ownership";
    case DmaError::StaleGeneration: return "stale-generation";
    case DmaError::CompletionOverflow: return "completion-overflow";
    case DmaError::RingStalled: return "ring-stalled";
    case DmaError::OutputSuppressed: return "output-suppressed";
    case DmaError::FaultAborted: return "fault-aborted";
    case DmaError::Rejected: return "rejected";
    case DmaError::Timeout: return "timeout";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Shared validation helpers
// ---------------------------------------------------------------------------

namespace {

std::uint16_t rd16(const HostMemory& m, std::size_t a) {
  return static_cast<std::uint16_t>(m.read8(a) |
                                    (static_cast<unsigned>(m.read8(a + 1))
                                     << 8));
}

void wr16(HostMemory& m, std::size_t a, std::uint16_t v) {
  m.write8(a, static_cast<std::uint8_t>(v & 0xff));
  m.write8(a + 1, static_cast<std::uint8_t>(v >> 8));
}

bool rangeOk(const HostMemory& mem, std::size_t addr, std::size_t len) {
  return len > 0 && addr < mem.size() && len <= mem.size() - addr;
}

// Exact in-place (src == dst) is well-defined under buffered writeback;
// a partial overlap would make the result depend on engine internals.
bool partialOverlap(std::size_t src, std::size_t dst, std::size_t len) {
  if (src == dst) return false;
  return src < dst + len && dst < src + len;
}

// Reading pages on the user's behalf: each page's secrets must be readable
// by the user (page conf flows to user conf).
bool srcPagesOk(const accel::AesAccelerator& acc, const HostMemory& mem,
                unsigned user, std::size_t addr, std::size_t len) {
  if (acc.mode() != accel::SecurityMode::Protected) return true;
  const lattice::Label& u = acc.principal(user).authority;
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    if (!mem.pageLabel(p * kPageBytes).c.flowsTo(u.c)) return false;
  }
  return true;
}

// Writing pages on the user's behalf: the user's authority must flow to
// every page (no overwriting pages the user may not modify).
bool dstPagesOk(const accel::AesAccelerator& acc, const HostMemory& mem,
                unsigned user, std::size_t addr, std::size_t len) {
  if (acc.mode() != accel::SecurityMode::Protected) return true;
  const lattice::Label& u = acc.principal(user).authority;
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    if (!u.flowsTo(mem.pageLabel(p * kPageBytes))) return false;
  }
  return true;
}

// The synchronous engine's session: one retry of a transient failure, with
// a watchdog short enough that both attempts plus the backoff,
// 2 * (2016 + n + 1) + 32 = 4066 + 2n cycles for n blocks, stay within the
// 4097 + 2n that the engine's former single watchdog allowed.
constexpr accel::SessionOptions kSyncSession{
    .timeout_cycles = 2016, .max_retries = 1, .backoff_cycles = 32};

DmaError toDmaError(accel::AccelStatus s) {
  switch (s) {
    case accel::AccelStatus::Ok: return DmaError::None;
    case accel::AccelStatus::Suppressed: return DmaError::OutputSuppressed;
    case accel::AccelStatus::Rejected: return DmaError::Rejected;
    case accel::AccelStatus::Timeout: return DmaError::Timeout;
    default: return DmaError::FaultAborted;  // FaultAborted, Dropped
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Synchronous engine (legacy baseline)
// ---------------------------------------------------------------------------

DmaResult DmaEngine::run(const DmaDescriptor& d) {
  DmaResult r;
  auto refuse = [&](DmaError e) {
    r.error = e;
    return r;
  };
  if (d.user >= acc_.userCount() || d.key_slot >= accel::kRoundKeySlots) {
    return refuse(DmaError::BadDescriptor);
  }
  if (!rangeOk(mem_, d.src, d.len) || !rangeOk(mem_, d.dst, d.len)) {
    return refuse(DmaError::BadRange);
  }
  if (d.mode != DmaMode::CtrCrypt && d.len % 16 != 0) {
    return refuse(DmaError::UnalignedLength);
  }
  if (partialOverlap(d.src, d.dst, d.len)) {
    return refuse(DmaError::OverlapDenied);
  }
  if (!srcPagesOk(acc_, mem_, d.user, d.src, d.len)) {
    return refuse(DmaError::SrcPageDenied);
  }
  if (!dstPagesOk(acc_, mem_, d.user, d.dst, d.len)) {
    return refuse(DmaError::DstPageDenied);
  }

  // Latch every input byte before any output byte is written, then stream
  // the blocks through one driver session; the writeback is buffered, so a
  // failed transfer writes nothing.
  const aes::Bytes in = mem_.readBytes(d.src, d.len);
  accel::AccelSession session{acc_, d.user, d.key_slot, kSyncSession};
  const auto out = d.mode == DmaMode::CtrCrypt ? session.ctrCrypt(in, d.ctr_iv)
                   : d.mode == DmaMode::EcbDecrypt ? session.ecbDecrypt(in)
                                                   : session.ecbEncrypt(in);
  r.cycles = session.cyclesUsed();
  r.error = toDmaError(out.status());
  if (!out) return r;
  mem_.writeBytes(d.dst, *out);
  r.ok = true;
  r.blocks = (d.len + 15) / 16;
  return r;
}

// ---------------------------------------------------------------------------
// Ring codec
// ---------------------------------------------------------------------------

std::uint32_t ringChecksum(const HostMemory& mem, std::size_t addr,
                           std::size_t len) {
  std::uint32_t h = 2166136261u;  // FNV-1a
  for (std::size_t i = 0; i < len; ++i) {
    h ^= mem.read8(addr + i);
    h *= 16777619u;
  }
  return h;
}

void writeRingDescriptor(HostMemory& mem, std::size_t addr,
                         const DmaDescriptor& d, std::uint64_t next,
                         std::uint16_t seq, std::uint16_t generation,
                         bool owned) {
  const std::uint32_t gen_word = static_cast<std::uint32_t>(generation) << 16;
  mem.write32(addr + 0, gen_word);  // not device-owned while we fill it in
  mem.write8(addr + 8, static_cast<std::uint8_t>(d.mode));
  mem.write8(addr + 9, 0);
  wr16(mem, addr + 10, static_cast<std::uint16_t>(d.user));
  wr16(mem, addr + 12, static_cast<std::uint16_t>(d.key_slot));
  wr16(mem, addr + 14, seq);
  mem.write64(addr + 16, d.src);
  mem.write64(addr + 24, d.dst);
  mem.write64(addr + 32, d.len);
  mem.write64(addr + 40, next);
  for (unsigned i = 0; i < 16; ++i) mem.write8(addr + 48 + i, d.ctr_iv[i]);
  mem.write32(addr + 4, ringChecksum(mem, addr + 8, kDescBytes - 8));
  // The release store: ownership flips only after every field (and the
  // checksum over them) is in place.
  mem.write32(addr + 0, gen_word | (owned ? kRingOwned : 0));
}

// ---------------------------------------------------------------------------
// DmaRingStats
// ---------------------------------------------------------------------------

std::string DmaRingStats::toJson() const {
  std::ostringstream os;
  os << "{\"doorbells\":" << doorbells << ",\"idle_polls\":" << idle_polls
     << ",\"descriptors_fetched\":" << descriptors_fetched
     << ",\"segments_fetched\":" << segments_fetched
     << ",\"completed_ok\":" << completed_ok << ",\"refused\":" << refused
     << ",\"blocks\":" << blocks << ",\"watchdog_fires\":" << watchdog_fires
     << ",\"recoveries\":" << recoveries
     << ",\"block_resubmits\":" << block_resubmits
     << ",\"torn_ownership\":" << torn_ownership
     << ",\"checksum_rejects\":" << checksum_rejects
     << ",\"stale_generation\":" << stale_generation
     << ",\"comp_stall_cycles\":" << comp_stall_cycles
     << ",\"comp_overflow_drops\":" << comp_overflow_drops
     << ",\"cross_label_writes\":" << cross_label_writes
     << ",\"ring_resets\":" << ring_resets << ",\"errors\":{";
  bool first = true;
  for (unsigned e = 0; e < kDmaErrors; ++e) {
    if (by_error[e] == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << toString(static_cast<DmaError>(e)) << "\":" << by_error[e];
  }
  os << "}}";
  return os.str();
}

DmaRingStats& DmaRingStats::operator+=(const DmaRingStats& o) {
  doorbells += o.doorbells;
  idle_polls += o.idle_polls;
  descriptors_fetched += o.descriptors_fetched;
  segments_fetched += o.segments_fetched;
  completed_ok += o.completed_ok;
  refused += o.refused;
  blocks += o.blocks;
  watchdog_fires += o.watchdog_fires;
  recoveries += o.recoveries;
  block_resubmits += o.block_resubmits;
  torn_ownership += o.torn_ownership;
  checksum_rejects += o.checksum_rejects;
  stale_generation += o.stale_generation;
  comp_stall_cycles += o.comp_stall_cycles;
  comp_overflow_drops += o.comp_overflow_drops;
  cross_label_writes += o.cross_label_writes;
  ring_resets += o.ring_resets;
  for (unsigned e = 0; e < kDmaErrors; ++e) by_error[e] += o.by_error[e];
  return *this;
}

// ---------------------------------------------------------------------------
// DmaRingEngine
// ---------------------------------------------------------------------------

DmaRingEngine::DmaRingEngine(accel::AesAccelerator& acc, HostMemory& mem,
                             bool hardened)
    : acc_{acc}, mem_{mem}, hardened_{hardened} {}

unsigned DmaRingEngine::addChannel(const DmaRingConfig& cfg) {
  if (cfg.desc_slots == 0 || cfg.comp_slots == 0 ||
      cfg.desc_base + static_cast<std::size_t>(cfg.desc_slots) * kDescBytes >
          mem_.size() ||
      cfg.comp_base + static_cast<std::size_t>(cfg.comp_slots) * kCompBytes >
          mem_.size() ||
      cfg.chain_base + static_cast<std::size_t>(cfg.chain_slots) * kDescBytes >
          mem_.size()) {
    throw std::out_of_range("DmaRingEngine::addChannel: ring outside memory");
  }
  Channel ch;
  ch.cfg = cfg;
  chans_.push_back(std::move(ch));
  return static_cast<unsigned>(chans_.size() - 1);
}

void DmaRingEngine::doorbell(unsigned channel) {
  chans_.at(channel).doorbell = true;
  ++stats_.doorbells;
}

void DmaRingEngine::setCompletionHandler(unsigned channel,
                                         std::function<void()> fn) {
  chans_.at(channel).on_completion = std::move(fn);
}

void DmaRingEngine::ringReset(unsigned channel) {
  Channel& ch = chans_.at(channel);
  releaseUnits(channel);
  ch.chain.reset();
  ch.parked = false;
  ch.park_watchdog_logged = false;
  ++ch.generation;
  if (ch.generation == 0) ch.generation = 1;  // 0 is never a live generation
  ch.head = 0;
  ch.comp_tail = 0;
  ch.doorbell = false;
  ++stats_.ring_resets;
  acc_.noteHostEvent(accel::SecurityEventKind::DmaRingRecovery, 0,
                     "ring-reset channel " + std::to_string(channel) +
                         " generation " + std::to_string(ch.generation));
}

std::uint16_t DmaRingEngine::generation(unsigned channel) const {
  return chans_.at(channel).generation;
}

std::size_t DmaRingEngine::headSlot(unsigned channel) const {
  return chans_.at(channel).head;
}

bool DmaRingEngine::channelIdle(unsigned channel) const {
  return !chans_.at(channel).chain.has_value();
}

bool DmaRingEngine::channelStalled(unsigned channel) const {
  return chans_.at(channel).parked;
}

bool DmaRingEngine::idle() const {
  for (const Channel& ch : chans_) {
    if (ch.chain) return false;
  }
  return true;
}

bool DmaRingEngine::ringPageOk(const lattice::Label& u, std::size_t addr,
                               std::size_t len) const {
  if (acc_.mode() != accel::SecurityMode::Protected) return true;
  // The engine both reads descriptors and writes handshake/completion words
  // on the claimed user's behalf, so ring pages must flow BOTH ways: a
  // descriptor claiming a user who could not have written its page is a
  // forgery, and completions must not leak into pages the user can't read.
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    const lattice::Label& pl = mem_.pageLabel(p * kPageBytes);
    if (!pl.c.flowsTo(u.c) || !u.flowsTo(pl)) return false;
  }
  return true;
}

void DmaRingEngine::noteViolation(const Chain& c, DmaError e) {
  acc_.noteHostEvent(accel::SecurityEventKind::DmaRingViolation, c.user,
                     toString(e) + ": desc 0x" +
                         std::to_string(c.head_addr) + " seq " +
                         std::to_string(c.seq));
}

DmaError DmaRingEngine::latchSegment(Chain& c, std::size_t addr, bool head) {
  Channel& ch = chans_[c.channel];
  if (addr + kDescBytes > mem_.size()) return DmaError::BadDescriptor;
  const std::uint32_t flags = mem_.read32(addr);
  if (head) {
    ++stats_.descriptors_fetched;
    c.head_flags = flags;
    if ((flags >> 16) != ch.generation) {
      ++stats_.stale_generation;
      return DmaError::StaleGeneration;
    }
    if (!(flags & kRingOwned)) {
      // Ownership vanished between the scan and the fetch.
      ++stats_.torn_ownership;
      return DmaError::TornOwnership;
    }
  } else {
    ++stats_.segments_fetched;
  }
  if (hardened_ &&
      mem_.read32(addr + 4) != ringChecksum(mem_, addr + 8, kDescBytes - 8)) {
    ++stats_.checksum_rejects;
    return DmaError::BadChecksum;
  }
  const std::uint8_t mode = mem_.read8(addr + 8);
  const std::uint8_t reserved = mem_.read8(addr + 9);
  const unsigned user = rd16(mem_, addr + 10);
  const unsigned slot = rd16(mem_, addr + 12);
  const std::uint16_t seq = rd16(mem_, addr + 14);
  if (mode > static_cast<std::uint8_t>(DmaMode::CtrCrypt) || reserved != 0 ||
      user >= acc_.userCount() || slot >= accel::kRoundKeySlots) {
    return DmaError::BadDescriptor;
  }
  if (head) {
    c.user = user;
    c.key_slot = slot;
    c.mode = static_cast<DmaMode>(mode);
    c.seq = seq;
    for (unsigned i = 0; i < 16; ++i) c.ctr_iv[i] = mem_.read8(addr + 48 + i);
  } else if (user != c.user || slot != c.key_slot ||
             static_cast<DmaMode>(mode) != c.mode) {
    return DmaError::BadDescriptor;  // continuations inherit the head's identity
  }
  const lattice::Label& u = acc_.principal(c.user).authority;
  if (!ringPageOk(u, addr, kDescBytes)) return DmaError::RingPageDenied;
  if (head && !ringPageOk(u, ch.cfg.comp_base,
                          static_cast<std::size_t>(ch.cfg.comp_slots) *
                              kCompBytes)) {
    return DmaError::RingPageDenied;
  }

  const std::size_t src = mem_.read64(addr + 16);
  const std::size_t dst = mem_.read64(addr + 24);
  const std::size_t len = mem_.read64(addr + 32);
  const std::uint64_t next = mem_.read64(addr + 40);
  if (!rangeOk(mem_, src, len) || !rangeOk(mem_, dst, len)) {
    return DmaError::BadRange;
  }
  // ECB segments must be block-aligned; CTR tolerates a partial block only
  // on the final segment (the keystream has no sub-block notion of "next
  // segment starts mid-block").
  const bool final_seg = next == 0;
  if (len % 16 != 0 && (c.mode != DmaMode::CtrCrypt || !final_seg)) {
    return DmaError::UnalignedLength;
  }
  if (partialOverlap(src, dst, len)) return DmaError::OverlapDenied;
  if (!srcPagesOk(acc_, mem_, c.user, src, len)) return DmaError::SrcPageDenied;
  if (!dstPagesOk(acc_, mem_, c.user, dst, len)) return DmaError::DstPageDenied;
  c.segs.push_back(Segment{addr, src, dst, len});

  if (next == 0) {
    c.next_fetch = 0;
    return DmaError::None;
  }
  const std::size_t arena_end =
      ch.cfg.chain_base + static_cast<std::size_t>(ch.cfg.chain_slots) *
                              kDescBytes;
  if (next < ch.cfg.chain_base || next >= arena_end ||
      (next - ch.cfg.chain_base) % kDescBytes != 0) {
    return DmaError::OobNextPointer;
  }
  for (const Segment& s : c.segs) {
    if (s.addr == next) return DmaError::ChainLoop;
  }
  if (c.segs.size() >= ch.cfg.max_chain) return DmaError::ChainTooLong;
  c.next_fetch = next;
  return DmaError::None;
}

DmaError DmaRingEngine::buildStream(Chain& c) {
  std::size_t nblocks = 0;
  for (const Segment& s : c.segs) nblocks += (s.len + 15) / 16;
  c.stream.reserve(nblocks);
  aes::Block ctr = c.ctr_iv;
  for (const Segment& s : c.segs) {
    const std::size_t segblocks = (s.len + 15) / 16;
    for (std::size_t i = 0; i < segblocks; ++i) {
      if (c.mode == DmaMode::CtrCrypt) {
        c.stream.push_back(ctr);
        for (int b = 15; b >= 8; --b) {
          if (++ctr[static_cast<unsigned>(b)] != 0) break;
        }
      } else {
        aes::Block blk{};
        const std::size_t n = std::min<std::size_t>(16, s.len - 16 * i);
        for (std::size_t b = 0; b < n; ++b)
          blk[b] = mem_.read8(s.src + 16 * i + b);
        c.stream.push_back(blk);
      }
    }
    if (c.mode == DmaMode::CtrCrypt) {
      const std::vector<std::uint8_t> seg_src = mem_.readBytes(s.src, s.len);
      c.xor_src.insert(c.xor_src.end(), seg_src.begin(), seg_src.end());
    }
  }
  c.out.resize(c.stream.size());
  c.done.assign(c.stream.size(), 0);
  return DmaError::None;
}

DmaRingEngine::Chain* DmaRingEngine::executing(unsigned idx) {
  Channel& ch = chans_[idx];
  return ch.chain && ch.chain->phase == Chain::Phase::Exec ? &*ch.chain
                                                           : nullptr;
}

void DmaRingEngine::stepFetchUnit(std::uint64_t now) {
  if (fetch_owner_ >= 0) {
    // Latching, or holding a latched chain until the issue unit takes it.
    const unsigned idx = static_cast<unsigned>(fetch_owner_);
    if (chans_[idx].chain->phase == Chain::Phase::Fetch) stepFetch(idx);
    return;
  }
  // Idle fetch unit: scan for a doorbell or a due poll, round-robin. A
  // channel whose chain is still issuing, draining or parked is skipped:
  // one chain per channel keeps completions in per-channel order.
  const unsigned nch = static_cast<unsigned>(chans_.size());
  for (unsigned k = 0; k < nch; ++k) {
    const unsigned i = (rr_next_ + k) % nch;
    Channel& ch = chans_[i];
    if (ch.chain) continue;
    if (!ch.doorbell && now < ch.next_poll_cycle) continue;
    ch.next_poll_cycle = now + std::max(1u, ch.cfg.poll_interval);
    const std::uint32_t flags = mem_.read32(descAddr(ch));
    if (flags & kRingOwned) {
      ch.doorbell = false;
      Chain c;
      c.channel = i;
      c.head_addr = descAddr(ch);
      c.next_fetch = c.head_addr;
      c.fetch_wait = std::max(1u, ch.cfg.fetch_cycles);
      ch.chain = std::move(c);
      fetch_owner_ = static_cast<int>(i);
      rr_next_ = (i + 1) % nch;
      return;
    }
    ch.doorbell = false;
    ++stats_.idle_polls;
  }
}

void DmaRingEngine::stepFetch(unsigned idx) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  if (--c.fetch_wait > 0) return;
  const bool head = c.segs.empty();
  const DmaError e = latchSegment(c, c.next_fetch, head);
  if (e != DmaError::None) {
    c.verdict = e;
    finalize(idx);
    return;
  }
  if (c.next_fetch != 0) {
    c.fetch_wait = std::max(1u, ch.cfg.fetch_cycles);
    return;  // more segments to latch
  }
  buildStream(c);
  c.phase = Chain::Phase::Ready;
}

void DmaRingEngine::resubmitChain(Chain& c) {
  c.inflight.clear();
  c.retry.clear();
  for (std::size_t i = 0; i < c.stream.size(); ++i) {
    if (!c.done[i]) c.retry.push_back(i);
  }
  c.submitted = c.stream.size();  // everything pending lives in retry now
  c.submit_refusals = 0;
}

void DmaRingEngine::collectResponses(std::uint64_t now) {
  // Drain each in-flight user's output queue once, routing every response
  // to the chain that issued it. A queue is left alone once no executing
  // chain of its user remains (e.g. the last one just failed).
  const unsigned nch = static_cast<unsigned>(chans_.size());
  auto userExecuting = [&](unsigned user, unsigned end) {
    for (unsigned j = 0; j < end; ++j) {
      const Chain* o = executing(j);
      if (o != nullptr && o->user == user) return true;
    }
    return false;
  };
  for (unsigned i = 0; i < nch; ++i) {
    const Chain* c = executing(i);
    if (c == nullptr || userExecuting(c->user, i)) continue;  // drained
    const unsigned user = c->user;
    while (userExecuting(user, nch)) {
      auto resp = acc_.fetchOutput(user);
      if (!resp) break;
      routeResponse(*resp, now);
    }
  }
  for (unsigned i = 0; i < nch; ++i) {
    const Chain* c = executing(i);
    if (c != nullptr && c->collected == c->stream.size()) finalize(i);
  }
}

void DmaRingEngine::routeResponse(const accel::BlockResponse& resp,
                                  std::uint64_t now) {
  // Responses whose ids no executing chain holds are strays from a
  // quiesced attempt or a reset chain (or foreign traffic) — dropped.
  for (unsigned i = 0; i < chans_.size(); ++i) {
    Chain* cp = executing(i);
    if (cp == nullptr || cp->user != resp.user) continue;
    Chain& c = *cp;
    auto it = c.inflight.find(resp.req_id);
    if (it == c.inflight.end()) continue;
    const std::size_t bi = it->second;
    c.inflight.erase(it);
    c.progress_cycle = now;
    if (resp.fault_aborted || resp.dropped) {
      if (++c.block_retries > chans_[i].cfg.block_retry_cap +
                                  static_cast<unsigned>(c.stream.size())) {
        c.verdict = DmaError::FaultAborted;
        finalize(i);
        return;
      }
      c.retry.push_back(bi);
      ++stats_.block_resubmits;
      return;
    }
    if (resp.suppressed) c.suppressed = true;
    if (!c.done[bi]) {
      c.done[bi] = 1;
      c.out[bi] = resp.data;
      ++c.collected;
    }
    return;
  }
}

void DmaRingEngine::stepIssueUnit(std::uint64_t now) {
  // One block enters the pipe per cycle: a draining chain's go-back
  // retries first (it still holds its channel), else the issue owner.
  int pick = -1;
  for (unsigned i = 0; i < chans_.size() && pick < 0; ++i) {
    const Chain* c = executing(i);
    if (c != nullptr && static_cast<int>(i) != issue_owner_ &&
        !c->retry.empty())
      pick = static_cast<int>(i);
  }
  if (pick < 0) pick = issue_owner_;
  if (pick >= 0) issueBlock(static_cast<unsigned>(pick), now);

  // The owner passes the unit on once its last fresh block is issued; the
  // latched chain then issues from the next cycle on, and its progress
  // clock starts now — never while it waited.
  if (issue_owner_ >= 0) {
    const Chain* c = executing(static_cast<unsigned>(issue_owner_));
    if (c == nullptr || c->submitted >= c->stream.size()) issue_owner_ = -1;
  }
  if (issue_owner_ < 0 && fetch_owner_ >= 0) {
    Chain& c = *chans_[static_cast<unsigned>(fetch_owner_)].chain;
    if (c.phase == Chain::Phase::Ready) {
      c.phase = Chain::Phase::Exec;
      c.progress_cycle = now;
      issue_owner_ = fetch_owner_;
      fetch_owner_ = -1;
    }
  }
}

void DmaRingEngine::issueBlock(unsigned idx, std::uint64_t now) {
  Chain& c = *chans_[idx].chain;
  std::size_t bi = 0;
  if (!c.retry.empty()) {
    bi = c.retry.front();
  } else if (c.submitted < c.stream.size()) {
    bi = c.submitted;
  } else {
    return;
  }
  accel::BlockRequest req;
  req.req_id = next_req_;
  req.user = c.user;
  req.key_slot = c.key_slot;
  req.decrypt = c.mode == DmaMode::EcbDecrypt;
  req.data = c.stream[bi];
  if (acc_.submit(req)) {
    c.inflight.emplace(next_req_, bi);
    ++next_req_;
    c.submit_refusals = 0;
    if (!c.first_issue_cycle) c.first_issue_cycle = now;
    if (!c.retry.empty()) {
      c.retry.pop_front();
    } else {
      ++c.submitted;
    }
  } else if (++c.submit_refusals > 32) {
    // The submit port is refusing outright (zeroized slot, dead key) —
    // no amount of watchdog patience will change the answer.
    c.verdict = DmaError::Rejected;
    finalize(idx);
  }
}

void DmaRingEngine::stepWatchdog(unsigned idx, std::uint64_t now) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  if (now - c.progress_cycle <= ch.cfg.watchdog_cycles) return;
  // No progress for too long — quiesce, resync, resubmit.
  ++stats_.watchdog_fires;
  // Quiesce: abandon in-flight requests (their late responses will miss
  // the cleared map and be dropped — idempotent by construction).
  c.inflight.clear();
  // Resync: re-read the handshake word; a descriptor that was reclaimed
  // or re-generationed under us is torn, not stalled.
  const std::uint32_t flags = mem_.read32(c.head_addr);
  if (hardened_ &&
      (!(flags & kRingOwned) || (flags >> 16) != ch.generation)) {
    ++stats_.torn_ownership;
    c.verdict = DmaError::TornOwnership;
    finalize(idx);
    return;
  }
  if (++c.attempts > ch.cfg.max_resubmits) {
    c.verdict = DmaError::RingStalled;
    finalize(idx);
    return;
  }
  ++stats_.recoveries;
  acc_.noteHostEvent(accel::SecurityEventKind::DmaRingRecovery, c.user,
                     "watchdog resubmit " + std::to_string(c.attempts) +
                         "/" + std::to_string(ch.cfg.max_resubmits) +
                         " seq " + std::to_string(c.seq));
  resubmitChain(c);
  c.progress_cycle = now;
}

void DmaRingEngine::writeBack(const Chain& c) {
  std::size_t bi = 0;       // global block index
  std::size_t xoff = 0;     // global CTR xor-source offset
  for (const Segment& s : c.segs) {
    std::size_t dst = s.dst;
    if (!hardened_) {
      // The conventional engine re-reads the destination pointer from ring
      // memory at write time — the TOCTOU the hardened engine closes by
      // using the fetch-time latch.
      const std::size_t dst_now = mem_.read64(s.addr + 24);
      if (rangeOk(mem_, dst_now, s.len)) {
        if (!dstPagesOk(acc_, mem_, c.user, dst_now, s.len)) {
          ++stats_.cross_label_writes;  // ...and writes anyway
        }
        dst = dst_now;
      }
    }
    const std::size_t segblocks = (s.len + 15) / 16;
    for (std::size_t i = 0; i < segblocks; ++i, ++bi) {
      const std::size_t nb = std::min<std::size_t>(16, s.len - 16 * i);
      for (std::size_t b = 0; b < nb; ++b) {
        std::uint8_t v = c.out[bi][b];
        if (c.mode == DmaMode::CtrCrypt) v ^= c.xor_src[xoff + 16 * i + b];
        mem_.write8(dst + 16 * i + b, v);
      }
    }
    xoff += s.len;
  }
}

void DmaRingEngine::finalize(unsigned idx) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  if (c.verdict == DmaError::None) {
    if (c.suppressed) {
      c.verdict = DmaError::OutputSuppressed;
    } else if (hardened_) {
      // Torn-ownership re-read: the handshake word must still say this
      // descriptor is ours before anything lands in host memory.
      const std::uint32_t flags = mem_.read32(c.head_addr);
      if (!(flags & kRingOwned) || (flags >> 16) != ch.generation) {
        ++stats_.torn_ownership;
        c.verdict = DmaError::TornOwnership;
      } else {
        // Point-of-use destination re-check (labels may have moved while
        // the transfer was in flight).
        for (const Segment& s : c.segs) {
          if (!dstPagesOk(acc_, mem_, c.user, s.dst, s.len)) {
            c.verdict = DmaError::DstPageDenied;
            break;
          }
        }
      }
    }
  }
  if (c.verdict == DmaError::None) {
    writeBack(c);
    ++stats_.completed_ok;
    stats_.blocks += c.stream.size();
  } else {
    ++stats_.refused;
    ++stats_.by_error[static_cast<unsigned>(c.verdict)];
    noteViolation(c, c.verdict);
  }

  if (c.verdict == DmaError::RingPageDenied) {
    // The ring pages themselves failed the label check — the engine will
    // not write a completion record into them. Hand the descriptor back so
    // the ring doesn't wedge; the verdict lives in the event log and stats.
    handback(ch, c);
    finishChain(idx);
    return;
  }
  if (tryWriteCompletion(idx)) {
    handback(ch, c);
    finishChain(idx);
  } else {
    // Completion ring full: park. Both units are freed; the record is
    // written once the host consumes a slot (hardened engines never
    // overwrite an unconsumed record).
    c.phase = Chain::Phase::Final;
    ch.parked = true;
    ch.park_start = acc_.cycle();
    ch.park_watchdog_logged = false;
    releaseUnits(idx);
  }
}

bool DmaRingEngine::tryWriteCompletion(unsigned idx) {
  Channel& ch = chans_[idx];
  const Chain& c = *ch.chain;
  const std::size_t addr = ch.cfg.comp_base + ch.comp_tail * kCompBytes;
  if (mem_.read32(addr) & kRingValid) return false;  // unconsumed record
  const std::uint64_t exec =
      c.first_issue_cycle ? acc_.cycle() - *c.first_issue_cycle : 0;
  mem_.write32(addr + 8, static_cast<std::uint32_t>(c.verdict));
  wr16(mem_, addr + 12, static_cast<std::uint16_t>(c.user));
  wr16(mem_, addr + 14, c.seq);
  mem_.write64(addr + 16, c.head_addr);
  mem_.write32(addr + 24,
               c.verdict == DmaError::None
                   ? static_cast<std::uint32_t>(c.stream.size())
                   : 0);
  mem_.write32(addr + 28, static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(exec, 0xffffffffu)));
  mem_.write32(addr + 4, ringChecksum(mem_, addr + 8, kCompBytes - 8));
  // VALID flips last — the completion's release store.
  mem_.write32(addr + 0,
               (static_cast<std::uint32_t>(ch.generation) << 16) | kRingValid);
  ch.comp_tail = (ch.comp_tail + 1) % ch.cfg.comp_slots;
  if (ch.on_completion) ch.on_completion();
  return true;
}

void DmaRingEngine::handback(Channel& ch, const Chain& c) {
  // Clear OWNED, preserve the generation — the host-side release cursor.
  mem_.write32(c.head_addr, static_cast<std::uint32_t>(ch.generation) << 16);
  ch.head = (ch.head + 1) % ch.cfg.desc_slots;
}

void DmaRingEngine::releaseUnits(unsigned idx) {
  if (fetch_owner_ == static_cast<int>(idx)) fetch_owner_ = -1;
  if (issue_owner_ == static_cast<int>(idx)) issue_owner_ = -1;
}

void DmaRingEngine::finishChain(unsigned idx) {
  Channel& ch = chans_[idx];
  ch.chain.reset();
  ch.parked = false;
  releaseUnits(idx);
}

void DmaRingEngine::onDeviceTick() {
  const std::uint64_t now = acc_.cycle();

  // Parked channels: retry the completion write (independent of the exec
  // unit — it is just a host-memory store).
  for (unsigned i = 0; i < chans_.size(); ++i) {
    Channel& ch = chans_[i];
    if (!ch.parked) continue;
    ++stats_.comp_stall_cycles;
    if (tryWriteCompletion(i)) {
      handback(ch, *ch.chain);
      finishChain(i);
      continue;
    }
    if (now - ch.park_start > ch.cfg.watchdog_cycles) {
      if (hardened_) {
        // Backpressure, not data loss: log once and keep waiting. The host
        // owns the VALID bit; overwriting it would destroy a completion the
        // host has not seen.
        if (!ch.park_watchdog_logged) {
          ch.park_watchdog_logged = true;
          ++stats_.by_error[static_cast<unsigned>(
              DmaError::CompletionOverflow)];
          acc_.noteHostEvent(
              accel::SecurityEventKind::DmaRingViolation, ch.chain->user,
              "completion-overflow: ring full, channel " + std::to_string(i) +
                  " parked (backpressure)");
        }
      } else {
        // Conventional engine: give up waiting and overwrite the oldest
        // unconsumed record — the data loss the hardened park avoids.
        const std::size_t addr =
            ch.cfg.comp_base + ch.comp_tail * kCompBytes;
        mem_.write32(addr, 0);  // destroy the unconsumed record
        ++stats_.comp_overflow_drops;
        if (tryWriteCompletion(i)) {
          handback(ch, *ch.chain);
          finishChain(i);
        }
      }
    }
  }

  // Fetch before collection: a channel freed by this cycle's completion is
  // scanned from the next cycle on.
  stepFetchUnit(now);
  collectResponses(now);
  stepIssueUnit(now);
  for (unsigned i = 0; i < chans_.size(); ++i) {
    if (executing(i)) stepWatchdog(i, now);
  }
}

void DmaRingEngine::tick() {
  onDeviceTick();
  acc_.tick();
}

// ---------------------------------------------------------------------------
// DmaRingDriver
// ---------------------------------------------------------------------------

DmaRingDriver::DmaRingDriver(DmaRingEngine& eng, HostMemory& mem,
                             unsigned channel, const DmaRingConfig& cfg)
    : eng_{eng}, mem_{mem}, channel_{channel}, cfg_{cfg},
      arena_busy_(cfg.chain_slots, 0) {
  eng_.setCompletionHandler(channel_, [this] {
    if (auto_poll_) poll();
  });
}

std::optional<std::uint16_t> DmaRingDriver::submit(const DmaDescriptor& d) {
  return submitChain({d});
}

std::optional<std::uint16_t> DmaRingDriver::submitChain(
    const std::vector<DmaDescriptor>& segs) {
  if (segs.empty()) return std::nullopt;
  const std::size_t head_addr = cfg_.desc_base + next_slot_ * kDescBytes;
  if (mem_.read32(head_addr) & kRingOwned) return std::nullopt;  // ring full

  // Claim chain-arena slots for the continuations.
  const std::size_t need = segs.size() - 1;
  std::vector<unsigned> slots;
  if (need > 0) {
    if (cfg_.chain_slots == 0) return std::nullopt;
    for (unsigned k = 0; k < cfg_.chain_slots && slots.size() < need; ++k) {
      const unsigned s =
          static_cast<unsigned>((next_chain_slot_ + k) % cfg_.chain_slots);
      if (!arena_busy_[s]) slots.push_back(s);
    }
    if (slots.size() < need) return std::nullopt;  // arena full
  }

  const std::uint16_t gen = eng_.generation(channel_);
  const std::uint16_t seq = next_seq_++;
  if (next_seq_ == 0) next_seq_ = 1;

  // Write continuations back to front so every next-pointer is known, then
  // publish the head last (its OWNED flip is the release store).
  std::uint64_t next = 0;
  for (std::size_t i = segs.size(); i-- > 1;) {
    const unsigned s = slots[i - 1];
    const std::size_t addr =
        cfg_.chain_base + static_cast<std::size_t>(s) * kDescBytes;
    DmaDescriptor seg = segs[i];
    seg.user = segs[0].user;      // continuations inherit the head identity
    seg.key_slot = segs[0].key_slot;
    seg.mode = segs[0].mode;
    writeRingDescriptor(mem_, addr, seg, next, seq, gen, /*owned=*/false);
    next = addr;
    arena_busy_[s] = 1;
  }
  writeRingDescriptor(mem_, head_addr, segs[0], next, seq, gen,
                      /*owned=*/true);
  eng_.doorbell(channel_);

  futures_[seq] = std::nullopt;
  if (!slots.empty()) {
    next_chain_slot_ = (slots.back() + 1) % cfg_.chain_slots;
    chain_slots_of_[seq] = std::move(slots);
  }
  ++outstanding_;
  next_slot_ = (next_slot_ + 1) % cfg_.desc_slots;
  return seq;
}

void DmaRingDriver::poll() {
  for (;;) {
    const std::size_t addr = cfg_.comp_base + comp_head_ * kCompBytes;
    const std::uint32_t flags = mem_.read32(addr);
    if (!(flags & kRingValid)) break;
    const std::uint16_t gen = static_cast<std::uint16_t>(flags >> 16);
    const bool fresh = gen == eng_.generation(channel_);
    bool ok = fresh;
    if (ok && mem_.read32(addr + 4) !=
                  ringChecksum(mem_, addr + 8, kCompBytes - 8)) {
      ++corrupt_completions_;
      ok = false;
    }
    const std::uint32_t status = ok ? mem_.read32(addr + 8) : 0;
    if (ok && status >= kDmaErrors) {
      ++corrupt_completions_;
      ok = false;
    }
    if (ok) {
      DmaCompletion comp;
      comp.status = static_cast<DmaError>(status);
      comp.user = rd16(mem_, addr + 12);
      comp.seq = rd16(mem_, addr + 14);
      comp.desc_addr = mem_.read64(addr + 16);
      comp.blocks = mem_.read32(addr + 24);
      comp.exec_cycles = mem_.read32(addr + 28);
      auto it = futures_.find(comp.seq);
      if (it == futures_.end() || it->second.has_value()) {
        ++duplicate_completions_;  // replay or forgery: exactly-once holds
      } else {
        it->second = comp;
        if (outstanding_ > 0) --outstanding_;
        auto cs = chain_slots_of_.find(comp.seq);
        if (cs != chain_slots_of_.end()) {
          for (unsigned s : cs->second) arena_busy_[s] = 0;
          chain_slots_of_.erase(cs);
        }
      }
    }
    // Consume the slot: clear VALID, keep the generation readable.
    mem_.write32(addr, static_cast<std::uint32_t>(gen) << 16);
    comp_head_ = (comp_head_ + 1) % cfg_.comp_slots;
  }
}

bool DmaRingDriver::done(std::uint16_t seq) const {
  auto it = futures_.find(seq);
  return it != futures_.end() && it->second.has_value();
}

const DmaCompletion* DmaRingDriver::result(std::uint16_t seq) const {
  auto it = futures_.find(seq);
  if (it == futures_.end() || !it->second.has_value()) return nullptr;
  return &*it->second;
}

const DmaCompletion* DmaRingDriver::wait(std::uint16_t seq,
                                         std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles && !done(seq); ++i) eng_.tick();
  poll();
  return result(seq);
}

void DmaRingDriver::forgetResolved() {
  for (auto it = futures_.begin(); it != futures_.end();) {
    if (it->second.has_value()) {
      it = futures_.erase(it);
    } else {
      ++it;
    }
  }
}

void DmaRingDriver::resync() {
  for (auto& [seq, fut] : futures_) {
    if (!fut.has_value()) {
      DmaCompletion comp;
      comp.status = DmaError::RingStalled;  // the reset abandoned it
      comp.seq = seq;
      fut = comp;
    }
  }
  outstanding_ = 0;
  next_slot_ = 0;
  next_chain_slot_ = 0;
  comp_head_ = 0;
  std::fill(arena_busy_.begin(), arena_busy_.end(), 0);
  chain_slots_of_.clear();
}

}  // namespace aesifc::soc
