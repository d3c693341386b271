#include "accel/driver.h"

#include <cstring>

namespace aesifc::accel {

namespace {

aes::Block loadBlock(const aes::Bytes& b, std::size_t off) {
  aes::Block out{};
  std::memcpy(out.data(), b.data() + off, 16);
  return out;
}

void storeBlock(aes::Bytes& b, std::size_t off, const aes::Block& blk) {
  std::memcpy(b.data() + off, blk.data(), 16);
}

aes::Block xorBlocks(aes::Block a, const aes::Block& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

}  // namespace

std::string toString(AccelStatus s) {
  switch (s) {
    case AccelStatus::Ok: return "ok";
    case AccelStatus::Suppressed: return "suppressed";
    case AccelStatus::Timeout: return "timeout";
    case AccelStatus::FaultAborted: return "fault-aborted";
    case AccelStatus::Dropped: return "dropped";
    case AccelStatus::Rejected: return "rejected";
    case AccelStatus::AuthFailed: return "auth-failed";
  }
  return "?";
}

bool loadKeyBytes(AesAccelerator& acc, unsigned user, unsigned slot,
                  unsigned cell_base, const std::vector<std::uint8_t>& key,
                  aes::KeySize ks, lattice::Conf key_conf) {
  if (key.size() != aes::keyBytes(ks)) return false;
  const unsigned cells = aes::keyBytes(ks) / 8;
  acc.configureKeyCells(user, cell_base, cells);
  for (unsigned c = 0; c < cells; ++c) {
    std::uint64_t w = 0;
    for (unsigned b = 0; b < 8; ++b)
      w |= static_cast<std::uint64_t>(key[8 * c + b]) << (8 * b);
    if (!acc.writeKeyCell(user, cell_base + c, w)) return false;
  }
  return acc.loadKey(user, slot, cell_base, ks, key_conf);
}

bool loadKey128(AesAccelerator& acc, unsigned user, unsigned slot,
                unsigned cell_base, const std::vector<std::uint8_t>& key,
                lattice::Conf key_conf) {
  return loadKeyBytes(acc, user, slot, cell_base, key, aes::KeySize::Aes128,
                      key_conf);
}

AccelSession::AccelSession(AesAccelerator& acc, unsigned user,
                           unsigned key_slot, SessionOptions opts)
    : acc_{acc}, user_{user}, key_slot_{key_slot}, opts_{opts} {}

template <typename Attempt>
auto AccelSession::retrying(Attempt attempt) -> decltype(attempt()) {
  const std::uint64_t start_cycle = acc_.cycle();
  for (unsigned n = 0;; ++n) {
    auto r = attempt();
    // Suppressed and AuthFailed are final verdicts, Rejected is
    // deterministic; only transient failures retry.
    if (!isRetryable(r.status()) || n >= opts_.max_retries) {
      (void)finishVerdict(r.status(), start_cycle);
      return r;
    }
    ++retries_;
    acc_.noteRetry();
    const std::uint64_t backoff = opts_.backoff_cycles << n;
    for (std::uint64_t i = 0; i < backoff; ++i) acc_.tick();
  }
}

AccelResult<std::vector<aes::Block>> AccelSession::runBatch(
    const std::vector<aes::Block>& blocks, bool decrypt) {
  return retrying([&] {
    const std::uint64_t ticket = beginBatch(blocks, decrypt);
    const std::uint64_t begin = acc_.cycle();
    while (!pollBatch(ticket) &&
           acc_.cycle() - begin <= opts_.timeout_cycles + blocks.size()) {
      acc_.tick();
    }
    return retireBatch(ticket);
  });
}

AccelStatus AccelSession::finishVerdict(AccelStatus verdict,
                                        std::uint64_t start_cycle) {
  cycles_used_ += acc_.cycle() - start_cycle;
  last_status_ = verdict;
  switch (verdict) {
    case AccelStatus::Ok: ++telemetry_.ok; break;
    case AccelStatus::Suppressed: ++telemetry_.suppressed; break;
    case AccelStatus::Timeout: ++telemetry_.timeouts; break;
    case AccelStatus::FaultAborted: ++telemetry_.fault_aborts; break;
    case AccelStatus::Dropped: ++telemetry_.drops; break;
    case AccelStatus::Rejected: ++telemetry_.rejected; break;
    case AccelStatus::AuthFailed: ++telemetry_.auth_failed; break;
  }
  return verdict;
}

void AccelSession::asyncDrain() {
  drained_.clear();
  acc_.fetchOutputs(user_, drained_);
  for (const auto& resp : drained_) {
    auto it = async_order_.find(resp.req_id);
    if (it == async_order_.end()) continue;  // stale / foreign / duplicate
    const auto [ticket, idx] = it->second;
    async_order_.erase(it);
    auto bt = async_batches_.find(ticket);
    if (bt == async_batches_.end()) continue;  // batch already retired
    AsyncBatch& b = bt->second;
    if (b.state[idx] != 0) continue;
    if (resp.fault_aborted || resp.dropped) {
      // No auto-retry: the first transient failure is the batch verdict.
      if (!b.transient) {
        b.transient = resp.fault_aborted ? AccelStatus::FaultAborted
                                         : AccelStatus::Dropped;
      }
      continue;
    }
    if (resp.suppressed) {
      b.state[idx] = 2;
      b.any_suppressed = true;
    } else {
      b.state[idx] = 1;
      b.out[idx] = resp.data;
    }
    ++b.resolved;
  }
}

std::uint64_t AccelSession::beginBatch(const std::vector<aes::Block>& blocks,
                                       bool decrypt) {
  const std::uint64_t ticket = next_ticket_++;
  AsyncBatch b;
  b.out.resize(blocks.size());
  b.state.assign(blocks.size(), 0);
  // Submit every block now: a refusal is deterministic, so it is the
  // batch verdict and nothing is left to submit on a later poll.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    BlockRequest req;
    req.req_id = acc_.next_req_id_;
    req.user = user_;
    req.key_slot = key_slot_;
    req.decrypt = decrypt;
    req.data = blocks[i];
    if (!acc_.submit(req)) {
      b.rejected = true;
      break;
    }
    async_order_[req.req_id] = {ticket, i};
    ++acc_.next_req_id_;
  }
  async_batches_.emplace(ticket, std::move(b));
  return ticket;
}

bool AccelSession::pollBatch(std::uint64_t ticket) {
  auto it = async_batches_.find(ticket);
  if (it == async_batches_.end()) return true;  // unknown or already retired
  asyncDrain();
  return asyncTerminal(it->second);
}

AccelResult<std::vector<aes::Block>> AccelSession::finishBatch(
    std::uint64_t ticket, std::uint64_t max_wait_cycles) {
  if (!async_batches_.contains(ticket)) return AccelStatus::Rejected;
  const std::uint64_t start = acc_.cycle();
  std::uint64_t waited = 0;
  while (!pollBatch(ticket) && waited < max_wait_cycles) {
    acc_.tick();
    ++waited;
  }
  auto r = retireBatch(ticket);
  (void)finishVerdict(r.status(), start);
  return r;
}

AccelResult<std::vector<aes::Block>> AccelSession::retireBatch(
    std::uint64_t ticket) {
  auto it = async_batches_.find(ticket);
  if (it == async_batches_.end()) return AccelStatus::Rejected;
  AsyncBatch b = std::move(it->second);
  async_batches_.erase(it);
  // Orphan this batch's remaining request ids so late responses are
  // dropped instead of dangling in the routing map.
  std::erase_if(async_order_,
                [&](const auto& e) { return e.second.first == ticket; });
  if (b.rejected) return AccelStatus::Rejected;
  if (b.transient) return *b.transient;
  if (b.resolved < b.out.size()) return AccelStatus::Timeout;
  if (b.any_suppressed) return AccelStatus::Suppressed;
  return std::move(b.out);
}

void AccelSession::cancelBatch(std::uint64_t ticket) {
  (void)retireBatch(ticket);
}

AccelResult<aes::Block> AccelSession::encryptBlock(const aes::Block& pt) {
  auto r = runBatch({pt}, false);
  if (!r) return r.status();
  return (*r)[0];
}

AccelResult<aes::Block> AccelSession::decryptBlock(const aes::Block& ct) {
  auto r = runBatch({ct}, true);
  if (!r) return r.status();
  return (*r)[0];
}

AccelResult<aes::Bytes> AccelSession::ecbEncrypt(const aes::Bytes& data) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  std::vector<aes::Block> blocks(data.size() / 16);
  for (std::size_t i = 0; i < blocks.size(); ++i)
    blocks[i] = loadBlock(data, 16 * i);
  auto r = runBatch(blocks, false);
  if (!r) return r.status();
  aes::Bytes out(data.size());
  for (std::size_t i = 0; i < r->size(); ++i) storeBlock(out, 16 * i, (*r)[i]);
  return out;
}

AccelResult<aes::Bytes> AccelSession::ecbDecrypt(const aes::Bytes& data) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  std::vector<aes::Block> blocks(data.size() / 16);
  for (std::size_t i = 0; i < blocks.size(); ++i)
    blocks[i] = loadBlock(data, 16 * i);
  auto r = runBatch(blocks, true);
  if (!r) return r.status();
  aes::Bytes out(data.size());
  for (std::size_t i = 0; i < r->size(); ++i) storeBlock(out, 16 * i, (*r)[i]);
  return out;
}

AccelResult<aes::Bytes> AccelSession::ctrCrypt(const aes::Bytes& data,
                                               const aes::Iv& nonce) {
  const std::size_t nblocks = (data.size() + 15) / 16;
  std::vector<aes::Block> counters(nblocks);
  aes::Block ctr = nonce;
  for (auto& c : counters) {
    c = ctr;
    aes::incCounterBe(ctr, 64);  // CTR counts in the low 64 bits
  }
  auto ks = runBatch(counters, false);  // keystream, fully pipelined
  if (!ks) return ks.status();
  aes::Bytes out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = data[i] ^ (*ks)[i / 16][i % 16];
  }
  return out;
}

AccelResult<aes::Bytes> AccelSession::cbcDecrypt(const aes::Bytes& data,
                                                 const aes::Iv& iv) {
  if (data.size() % 16 != 0 || data.empty()) return AccelStatus::Rejected;
  std::vector<aes::Block> blocks(data.size() / 16);
  for (std::size_t i = 0; i < blocks.size(); ++i)
    blocks[i] = loadBlock(data, 16 * i);
  auto r = runBatch(blocks, true);  // all blocks decrypt in parallel
  if (!r) return r.status();
  aes::Bytes out(data.size());
  aes::Block prev = iv;
  for (std::size_t i = 0; i < r->size(); ++i) {
    storeBlock(out, 16 * i, xorBlocks((*r)[i], prev));
    prev = blocks[i];
  }
  return out;
}

std::uint64_t AccelSession::beginGcm(GcmRequest req) {
  req.req_id = acc_.next_req_id_++;
  req.user = user_;
  req.key_slot = key_slot_;
  AsyncGcm g;
  // Watchdog budget: the op needs one AES pass per keystream/H/J0 block
  // plus one GHASH pass per hashed block on top of the configured timeout.
  const std::uint64_t blocks = (req.data.size() + 15) / 16 +
                               (req.aad.size() + 15) / 16 +
                               (req.iv.size() + 15) / 16;
  g.budget = opts_.timeout_cycles + 2 * blocks;
  g.begin_cycle = acc_.cycle();
  const std::uint64_t ticket = req.req_id;
  g.req = std::move(req);
  gcmSubmit(async_gcm_.emplace(ticket, std::move(g)).first->second);
  return ticket;
}

void AccelSession::gcmSubmit(AsyncGcm& g) {
  // Every op slot busy: wait (backpressure). A refusal with a free slot is
  // deterministic (unusable key slot, empty IV) and is the op's verdict.
  if (acc_.gcm().activeOps() >= kGcmOps) return;
  if (acc_.submitGcm(std::move(g.req))) {
    g.submitted = true;
  } else {
    g.rejected = true;
  }
}

void AccelSession::gcmDrain() {
  while (auto r = acc_.fetchGcm(user_)) {
    auto it = async_gcm_.find(r->req_id);
    // Responses of retired or cancelled tickets are dropped.
    if (it != async_gcm_.end() && !it->second.resp)
      it->second.resp = std::move(*r);
  }
}

bool AccelSession::pollGcm(std::uint64_t ticket) {
  auto it = async_gcm_.find(ticket);
  if (it == async_gcm_.end()) return true;  // unknown or already retired
  AsyncGcm& g = it->second;
  if (!g.submitted && !g.rejected) gcmSubmit(g);
  gcmDrain();
  return gcmTerminal(g);
}

bool AccelSession::gcmWaitingForSlot(std::uint64_t ticket) const {
  auto it = async_gcm_.find(ticket);
  return it != async_gcm_.end() && !it->second.submitted &&
         !it->second.rejected;
}

AccelResult<GcmResponse> AccelSession::retireGcm(std::uint64_t ticket) {
  auto it = async_gcm_.find(ticket);
  if (it == async_gcm_.end()) return AccelStatus::Rejected;
  const AsyncGcm& g = it->second;
  AccelResult<GcmResponse> r = AccelStatus::Timeout;
  if (g.rejected) {
    r = AccelStatus::Rejected;
  } else if (g.resp && g.resp->suppressed) {
    r = AccelStatus::Suppressed;
  } else if (g.resp && g.resp->auth_failed) {
    r = AccelStatus::AuthFailed;
  } else if (g.resp && g.resp->fault_aborted) {
    r = AccelStatus::FaultAborted;
  } else if (g.resp) {
    r = std::move(*it->second.resp);
  }
  async_gcm_.erase(it);
  return r;
}

AccelResult<GcmResponse> AccelSession::finishGcm(std::uint64_t ticket) {
  auto r = retireGcm(ticket);
  (void)finishVerdict(r.status(), acc_.cycle());
  return r;
}

void AccelSession::cancelGcm(std::uint64_t ticket) { async_gcm_.erase(ticket); }

AccelResult<GcmResponse> AccelSession::runGcm(const GcmRequest& req) {
  return retrying([&] {
    const std::uint64_t ticket = beginGcm(req);
    while (!pollGcm(ticket)) acc_.tick();
    return retireGcm(ticket);
  });
}

AccelResult<GcmSealed> AccelSession::gcmSeal(
    const std::vector<std::uint8_t>& plaintext,
    const std::vector<std::uint8_t>& aad,
    const std::vector<std::uint8_t>& iv) {
  GcmRequest req;
  req.open = false;
  req.iv = iv;
  req.aad = aad;
  req.data = plaintext;
  auto r = runGcm(req);
  if (!r) return r.status();
  return GcmSealed{std::move(r->data), r->tag};
}

AccelResult<std::vector<std::uint8_t>> AccelSession::gcmOpen(
    const std::vector<std::uint8_t>& ciphertext,
    const std::vector<std::uint8_t>& aad, const aes::Tag128& tag,
    const std::vector<std::uint8_t>& iv) {
  GcmRequest req;
  req.open = true;
  req.iv = iv;
  req.aad = aad;
  req.data = ciphertext;
  req.tag = tag;
  auto r = runGcm(req);
  if (!r) return r.status();
  return std::move(r->data);
}

AccelResult<aes::Bytes> AccelSession::cbcEncrypt(const aes::Bytes& data,
                                                 const aes::Iv& iv) {
  if (data.size() % 16 != 0) return AccelStatus::Rejected;
  aes::Bytes out(data.size());
  aes::Block prev = iv;
  // Chained: each block must wait for the previous ciphertext — the
  // pipelined engine degrades to one block per full latency.
  for (std::size_t off = 0; off < data.size(); off += 16) {
    auto ct = encryptBlock(xorBlocks(loadBlock(data, off), prev));
    if (!ct) return ct.status();
    storeBlock(out, off, *ct);
    prev = *ct;
  }
  return out;
}

}  // namespace aesifc::accel
