// small_blocks and aead_records: closed loops through soc::EnginePool.
//
// Each tenant keeps a fixed number of ops in flight (submitted, verdict
// not yet fetched), never more than its queue depth, so the service's
// default overflow policy never has a reason to shed. One thread drives
// the pool with submit / pump / fetch; every shard has its own device
// clock and the slowest one sets the time.

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>

#include "aes/gcm.h"
#include "aes/key_schedule.h"
#include "common.h"
#include "common/rng.h"
#include "soc/pool.h"
#include "trace.h"

namespace perfbench {

using aesifc::Rng;
namespace aes = aesifc::aes;
namespace soc = aesifc::soc;

namespace {

constexpr unsigned kSmallTenants = 6;
constexpr unsigned kSmallOpsPerTenant = 700;
constexpr unsigned kSmallShards = 2;
// 6 tenants over 2 shards at 12 each keeps 36 blocks in flight per shard,
// under the default per-tenant queue depth (16) and service watermark (64).
constexpr unsigned kSmallWindow = 12;

constexpr unsigned kAeadTenants = 4;
constexpr unsigned kAeadOpsPerTenant = 390;  // seal/open 1:1
constexpr unsigned kAeadShards = 2;
// Three messages in flight per tenant, under the AEAD queue depth (8).
constexpr unsigned kAeadWindow = 3;

// A pump round that resolves nothing this many times in a row means the
// pool stopped making progress; what is still outstanding is unresolved.
constexpr unsigned kStallPumps = 1u << 16;

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

void shuffle(std::vector<unsigned>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

std::string tenantName(const char* workload, unsigned t) {
  return std::string{workload} + "-tenant-" + std::to_string(t);
}

struct PoolRig {
  soc::EnginePool pool;
  std::vector<unsigned> ids;
  std::vector<std::uint64_t> start_cycle;  // per shard, after set-up

  PoolRig(unsigned shards, const char* workload,
          const std::vector<std::vector<std::uint8_t>>& keys)
      : pool{[shards] {
          soc::PoolConfig cfg;
          cfg.shards = shards;
          return cfg;
        }()} {
    for (unsigned t = 0; t < keys.size(); ++t) {
      soc::PoolTenantSpec spec;
      spec.name = tenantName(workload, t);
      spec.category = t + 1;
      spec.key = keys[t];
      const soc::PlaceResult placed = pool.addTenant(spec);
      if (!placed.placed) throw std::runtime_error("pool refused a tenant");
      ids.push_back(placed.tenant);
    }
    for (unsigned s = 0; s < pool.shards(); ++s)
      start_cycle.push_back(pool.shardEngine(s).cycle());
  }

  // Device cycles of the timed phase: slowest shard, sum, fastest.
  void finish(RoundResult& r) {
    std::uint64_t lo = ~0ull;
    for (unsigned s = 0; s < pool.shards(); ++s) {
      const std::uint64_t d = pool.shardEngine(s).cycle() - start_cycle[s];
      r.device_cycles = std::max(r.device_cycles, d);
      r.shard_cycles_sum += d;
      lo = std::min(lo, d);
    }
    r.layer["pool.shard_cycle_skew"] =
        lo ? static_cast<double>(r.device_cycles) / static_cast<double>(lo)
           : 0.0;
  }
};

// Per-tenant bookkeeping of the closed loop: what is in flight (ticket ->
// op index, oldest first) and what each op resolved to.
struct TenantLoop {
  std::size_t next = 0;  // next op to offer
  std::deque<std::pair<std::uint64_t, std::size_t>> inflight;
  std::vector<int> status;  // verdict per op (kUnresolved until fetched)

  // Matches a verdict to its op. Completions surface oldest first, but a
  // ticket that is unknown or already resolved is a conservation error.
  std::optional<std::size_t> take(std::uint64_t ticket) {
    for (auto it = inflight.begin(); it != inflight.end(); ++it) {
      if (it->first != ticket) continue;
      const std::size_t idx = it->second;
      inflight.erase(it);
      return idx;
    }
    return std::nullopt;
  }
};

struct PumpCounters {
  std::uint64_t pumps = 0;
  std::uint64_t resolved = 0;
  std::uint64_t empty = 0;
  std::uint64_t refusals = 0;

  void store(RoundResult& r) const {
    r.layer["pool.resolved_per_pump"] =
        pumps ? static_cast<double>(resolved) / pumps : 0.0;
    r.layer["pool.empty_pump_share"] =
        pumps ? static_cast<double>(empty) / pumps : 0.0;
    r.layer["pool.admit_refusals"] = static_cast<double>(refusals);
  }
};

// The timed closed loop both pool workloads share: keep `window` ops in
// flight per tenant, pump every shard once, and match each fetched verdict
// to its op. `submit(t, idx)` offers an op and `fetch(t)` pops a tenant's
// next verdict. Fills `loops` (verdict per op), the device-cycle and pump
// counters of `r`, and returns the completion of every resolved op.
template <typename Completion, typename Submit, typename Fetch>
std::vector<std::vector<Completion>> poolClosedLoop(
    PoolRig& rig, const std::vector<std::size_t>& ops_per_tenant,
    unsigned window, Tracer* tr, SpanName submit_span, SpanName fetch_span,
    std::vector<TenantLoop>& loops, RoundResult& r, Submit submit,
    Fetch fetch) {
  const unsigned n = static_cast<unsigned>(ops_per_tenant.size());
  loops.assign(n, TenantLoop{});
  std::vector<std::vector<Completion>> got(n);
  for (unsigned t = 0; t < n; ++t) {
    loops[t].status.assign(ops_per_tenant[t], kUnresolved);
    got[t].resize(ops_per_tenant[t]);
  }
  PumpCounters pc;

  const auto t0 = Clock::now();
  {
    Scope round{tr, SpanName::BenchRound};
    unsigned stalled = 0;
    for (;;) {
      bool work_left = false;
      for (unsigned t = 0; t < n; ++t) {
        TenantLoop& L = loops[t];
        while (L.inflight.size() < window && L.next < ops_per_tenant[t]) {
          const std::size_t idx = L.next++;
          soc::SubmitResult sr;
          {
            Scope s{tr, submit_span, opId(t, idx)};
            sr = submit(t, idx);
          }
          if (sr.admitted) {
            L.inflight.emplace_back(sr.ticket, idx);
          } else {
            L.status[idx] = kRefused;
            ++pc.refusals;
          }
        }
        work_left |= !L.inflight.empty() || L.next < ops_per_tenant[t];
      }
      if (!work_left) break;
      unsigned resolved;
      {
        Scope s{tr, SpanName::PoolPump};
        resolved = rig.pool.pump();
      }
      ++pc.pumps;
      pc.resolved += resolved;
      if (resolved == 0) ++pc.empty;
      stalled = resolved ? 0 : stalled + 1;
      if (stalled >= kStallPumps) break;
      for (unsigned t = 0; t < n; ++t) {
        for (;;) {
          Scope s{tr, fetch_span};
          std::optional<Completion> c = fetch(t);
          s.close();
          if (!c) break;
          const auto idx = loops[t].take(c->ticket);
          if (!idx) {
            ++r.conservation_errors;
            continue;
          }
          s.setOp(opId(t, *idx));
          loops[t].status[*idx] = static_cast<int>(c->status);
          got[t][*idx] = std::move(*c);
        }
      }
    }
  }
  r.timed_s = secondsSince(t0);
  rig.finish(r);
  pc.store(r);
  return got;
}

template <typename Op>
std::vector<std::size_t> opCounts(const std::vector<std::vector<Op>>& ops) {
  std::vector<std::size_t> n;
  for (const auto& v : ops) n.push_back(v.size());
  return n;
}

}  // namespace

SmallInputs makeSmallInputs(std::uint64_t seed) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0x5b};
  SmallInputs in;
  for (unsigned t = 0; t < kSmallTenants; ++t) {
    in.keys.push_back(randomBytes(rng, 16));
    const aes::ExpandedKey xk =
        aes::expandKey(in.keys[t], aes::KeySize::Aes128);
    std::vector<BlockOp> ops(kSmallOpsPerTenant);
    for (BlockOp& op : ops) {
      for (auto& b : op.in) b = static_cast<std::uint8_t>(rng.next());
      op.decrypt = rng.below(4) == 0;  // 3:1 encrypt:decrypt
      op.want = op.decrypt ? aes::decryptBlock(op.in, xk)
                           : aes::encryptBlock(op.in, xk);
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

RoundResult runPoolBlocks(const SmallInputs& in, unsigned shards,
                          unsigned window, Tracer* tr) {
  RoundResult r;
  PoolRig rig{shards, "blocks", in.keys};
  std::vector<TenantLoop> loops;
  const auto got = poolClosedLoop<soc::Completion>(
      rig, opCounts(in.ops), window, tr, SpanName::PoolSubmit,
      SpanName::PoolFetch, loops, r,
      [&](unsigned t, std::size_t idx) {
        const BlockOp& op = in.ops[t][idx];
        return rig.pool.submit(rig.ids[t], op.in, op.decrypt);
      },
      [&](unsigned t) { return rig.pool.fetch(rig.ids[t]); });

  // Oracle (untimed): every op has exactly one verdict and every released
  // block equals aes::.
  Fingerprint fp;
  for (unsigned t = 0; t < in.ops.size(); ++t) {
    for (std::size_t i = 0; i < in.ops[t].size(); ++i) {
      ++r.attempted;
      const int st = loops[t].status[i];
      const soc::Completion& c = got[t][i];
      const bool ok = st == static_cast<int>(soc::CompletionStatus::Ok);
      bool right = false;
      fp.u64(static_cast<std::uint64_t>(st));
      if (ok) {
        fp.block(c.data);
        fp.u64(c.complete_cycle);
        right = c.data == in.ops[t][i].want;
        if (!right) ++r.wrong;
      }
      // A block the software fallback served is released but is not
      // accelerator throughput: it counts as a failed op, as does a wrong
      // one.
      if (right && c.served_by == soc::ServedBy::Hardware) {
        ++r.ok_blocks;
        r.ok_latency.push_back(c.complete_cycle - c.submit_cycle);
        continue;
      }
      ++r.failed;
      if (st == kUnresolved) ++r.unresolved;
    }
  }
  finishFingerprint(fp, r);
  return r;
}

double setupSmallBlocks(const SmallInputs& in) {
  const auto t0 = Clock::now();
  PoolRig rig{kSmallShards, "blocks", in.keys};
  return secondsSince(t0);
}

double setupAeadRecords(const AeadInputs& in) {
  const auto t0 = Clock::now();
  PoolRig rig{kAeadShards, "aead", in.keys};
  return secondsSince(t0);
}

RoundResult runSmallBlocks(const SmallInputs& in, Tracer* tr) {
  return runPoolBlocks(in, kSmallShards, kSmallWindow, tr);
}

AeadInputs makeAeadInputs(std::uint64_t seed) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0xae};
  AeadInputs in;
  for (unsigned t = 0; t < kAeadTenants; ++t) {
    in.keys.push_back(randomBytes(rng, 16));
    const aes::ExpandedKey xk =
        aes::expandKey(in.keys[t], aes::KeySize::Aes128);
    // Stratified shares: every run of three seals holds one record of each
    // size and every run of 16 opens one tampered tag, in seeded order.
    // Seeds then differ in arrangement within those runs, not in how many
    // 16 KiB records happen to bunch up, which would make p99 a lottery.
    constexpr unsigned kPairs = kAeadOpsPerTenant / 2;
    std::vector<unsigned> size_class, tamper;
    while (size_class.size() < kPairs) {
      std::vector<unsigned> run{0, 1, 2};
      shuffle(run, rng);
      size_class.insert(size_class.end(), run.begin(), run.end());
    }
    while (tamper.size() < kPairs) {
      std::vector<unsigned> run(16, 0);
      run[0] = 1;
      shuffle(run, rng);
      tamper.insert(tamper.end(), run.begin(), run.end());
    }
    std::vector<AeadOp> ops;
    // Seal i is followed by the open of seal i's output (by value: the
    // golden output, which the oracle holds the device's seal to).
    for (unsigned i = 0; i < kPairs; ++i) {
      AeadOp seal;
      seal.size_class = size_class[i];
      seal.data = randomBytes(rng, kAeadSizes[seal.size_class]);
      seal.aad = randomBytes(rng, 13);
      seal.iv = randomBytes(rng, 12);
      const aes::GcmResult g =
          aes::gcmEncrypt(seal.data, seal.aad, xk, seal.iv);
      seal.want = g.ciphertext;
      seal.want_tag = g.tag;

      AeadOp open;
      open.open = true;
      open.size_class = seal.size_class;
      open.data = g.ciphertext;
      open.aad = seal.aad;
      open.iv = seal.iv;
      open.tag = g.tag;
      open.tampered = tamper[i] != 0;
      if (open.tampered) open.tag[rng.below(16)] ^= 0x01;
      open.want = seal.data;
      ops.push_back(std::move(seal));
      ops.push_back(std::move(open));
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

RoundResult runAeadRecords(const AeadInputs& in, Tracer* tr) {
  RoundResult r;
  PoolRig rig{kAeadShards, "aead", in.keys};
  std::vector<TenantLoop> loops;
  const auto got = poolClosedLoop<soc::AeadCompletion>(
      rig, opCounts(in.ops), kAeadWindow, tr, SpanName::GcmSubmit,
      SpanName::GcmFetch, loops, r,
      [&](unsigned t, std::size_t idx) {
        const AeadOp& op = in.ops[t][idx];
        return op.open ? rig.pool.submitOpen(rig.ids[t], op.data, op.aad,
                                             op.tag, op.iv)
                       : rig.pool.submitSeal(rig.ids[t], op.data, op.aad,
                                             op.iv);
      },
      [&](unsigned t) { return rig.pool.fetchAead(rig.ids[t]); });

  Fingerprint fp;
  std::vector<std::uint64_t> lat_by_size[3];
  std::uint64_t auth_failed = 0;
  const int ok = static_cast<int>(soc::CompletionStatus::Ok);
  const int auth = static_cast<int>(soc::CompletionStatus::AuthFailed);
  for (unsigned t = 0; t < in.ops.size(); ++t) {
    for (std::size_t i = 0; i < in.ops[t].size(); ++i) {
      ++r.attempted;
      const AeadOp& op = in.ops[t][i];
      const int st = loops[t].status[i];
      const soc::AeadCompletion& c = got[t][i];
      fp.u64(static_cast<std::uint64_t>(st));
      if (st == ok || st == auth) fp.u64(c.complete_cycle);
      if (st == auth) ++auth_failed;
      const bool hw = c.served_by == soc::ServedBy::Hardware;
      if (op.tampered) {
        // AuthFailed is the expected verdict; it releases nothing, so it
        // adds no blocks and no Ok latency sample.
        if (st == ok) ++r.wrong;  // a forged record was released
        if (st != auth || !hw) ++r.failed;
        if (st == kUnresolved) ++r.unresolved;
        continue;
      }
      bool right = false;
      if (st == ok) {
        fp.bytes(c.data.data(), c.data.size());
        if (!op.open) fp.bytes(c.tag.data(), c.tag.size());
        right = c.data == op.want && (op.open || c.tag == op.want_tag);
        if (!right) ++r.wrong;
      }
      // Fallback-served messages are released but are not accelerator
      // throughput: they count as failed ops, as do wrong ones.
      if (!right || !hw) {
        ++r.failed;
        if (st == kUnresolved) ++r.unresolved;
        continue;
      }
      r.ok_blocks += (op.data.size() + 15) / 16;
      const std::uint64_t lat = c.complete_cycle - c.submit_cycle;
      r.ok_latency.push_back(lat);
      lat_by_size[op.size_class].push_back(lat);
    }
  }
  for (unsigned k = 0; k < 3; ++k)
    r.layer[std::string{"gcm.latency_cycles_p50."} + kAeadSizeNames[k]] =
        percentileU(lat_by_size[k], 0.5);
  r.layer["gcm.auth_failed_verdicts"] = static_cast<double>(auth_failed);
  finishFingerprint(fp, r);
  return r;
}

}  // namespace perfbench
