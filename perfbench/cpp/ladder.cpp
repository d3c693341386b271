// Layer ladder: the small_blocks per-tenant streams issued through each
// layer alone, with no layer above it, on one engine. The gap between two
// adjacent rungs is what the upper layer costs on this traffic.
//
//   pipe    AesAccelerator::submit / tick / fetchOutput
//   session AccelSession::beginBatch / pollBatch / finishBatch, one block
//           per batch, the caller owning the clock
//   service AccelService::submit / pump / fetch
//   pool    EnginePool::submit / pump / fetch on one shard (blocks per
//           summed shard cycle, so the figure is per shard)
//
// Every rung keeps the same number of blocks in flight per tenant: the
// most one engine's service admits for six tenants under its default
// 64-request watermark.

#include <deque>
#include <stdexcept>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "common.h"
#include "soc/service.h"
#include "trace.h"

namespace perfbench {

namespace accel = aesifc::accel;
namespace soc = aesifc::soc;

namespace {

constexpr unsigned kLadderWindow = 10;
constexpr std::uint64_t kStallCycles = 1u << 20;

// Engine with one user per tenant (no keys loaded yet).
std::vector<unsigned> addUsers(accel::AesAccelerator& acc, std::size_t n) {
  std::vector<unsigned> users;
  for (unsigned t = 0; t < n; ++t)
    users.push_back(acc.addUser(aesifc::lattice::Principal::user(
        "ladder-tenant-" + std::to_string(t), t + 1)));
  return users;
}

void loadKeys(accel::AesAccelerator& acc, const std::vector<unsigned>& users,
              const SmallInputs& in) {
  for (unsigned t = 0; t < users.size(); ++t)
    if (!accel::loadKey128(acc, users[t], t + 1,
                           (2 * t) % accel::kScratchpadCells, in.keys[t],
                           acc.principal(users[t]).authority.c))
      throw std::runtime_error("ladder key provisioning refused");
}

Rung pipeRung(const SmallInputs& in) {
  Rung r{.name = "pipe"};
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  const auto users = addUsers(acc, in.ops.size());
  loadKeys(acc, users, in);
  const std::size_t n = users.size();
  std::vector<std::size_t> next(n, 0), inflight(n, 0);
  std::vector<std::uint64_t> pipe_latency;
  const std::uint64_t c0 = acc.cycle();
  const auto t0 = Clock::now();
  std::uint64_t last_progress = c0;
  for (;;) {
    bool work_left = false;
    for (unsigned t = 0; t < n; ++t) {
      while (inflight[t] < kLadderWindow && next[t] < in.ops[t].size()) {
        const BlockOp& op = in.ops[t][next[t]];
        accel::BlockRequest req;
        req.req_id = opId(t, next[t]);
        req.user = users[t];
        req.key_slot = t + 1;
        req.decrypt = op.decrypt;
        req.data = op.in;
        ++next[t];
        if (acc.submit(req)) {
          ++inflight[t];
        } else {
          ++r.failed;
        }
      }
      work_left |= inflight[t] > 0 || next[t] < in.ops[t].size();
    }
    if (!work_left) break;
    acc.tick();
    for (unsigned t = 0; t < n; ++t) {
      while (auto o = acc.fetchOutput(users[t])) {
        --inflight[t];
        last_progress = acc.cycle();
        const std::size_t idx = o->req_id & 0xffffffffu;
        if (o->suppressed || o->fault_aborted || o->dropped) {
          ++r.failed;
          continue;
        }
        if (o->data != in.ops[t][idx].want) ++r.wrong;
        ++r.ok_blocks;
        pipe_latency.push_back(o->complete_cycle - o->accept_cycle);
      }
    }
    if (acc.cycle() - last_progress > kStallCycles) break;
  }
  r.host_s = secondsSince(t0);
  r.device_cycles = acc.cycle() - c0;
  r.pipe_latency_p50 = percentileU(pipe_latency, 0.5);
  for (unsigned t = 0; t < n; ++t)
    r.failed += inflight[t] + (in.ops[t].size() - next[t]);
  return r;
}

Rung sessionRung(const SmallInputs& in) {
  Rung r{.name = "session"};
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  const auto users = addUsers(acc, in.ops.size());
  loadKeys(acc, users, in);
  const std::size_t n = users.size();
  std::vector<accel::AccelSession> sessions;
  for (unsigned t = 0; t < n; ++t) sessions.emplace_back(acc, users[t], t + 1);
  std::vector<std::size_t> next(n, 0);
  std::vector<std::deque<std::pair<std::uint64_t, std::size_t>>> inflight(n);
  const std::uint64_t c0 = acc.cycle();
  const auto t0 = Clock::now();
  std::uint64_t last_progress = c0;
  for (;;) {
    bool work_left = false;
    for (unsigned t = 0; t < n; ++t) {
      while (inflight[t].size() < kLadderWindow &&
             next[t] < in.ops[t].size()) {
        const BlockOp& op = in.ops[t][next[t]];
        inflight[t].emplace_back(sessions[t].beginBatch({op.in}, op.decrypt),
                                 next[t]);
        ++next[t];
      }
      work_left |= !inflight[t].empty() || next[t] < in.ops[t].size();
    }
    if (!work_left) break;
    acc.tick();
    for (unsigned t = 0; t < n; ++t) {
      while (!inflight[t].empty() &&
             sessions[t].pollBatch(inflight[t].front().first)) {
        const auto [ticket, idx] = inflight[t].front();
        inflight[t].pop_front();
        last_progress = acc.cycle();
        const auto res = sessions[t].finishBatch(ticket);
        if (!res.has_value() || res->size() != 1) {
          ++r.failed;
          continue;
        }
        if ((*res)[0] != in.ops[t][idx].want) ++r.wrong;
        ++r.ok_blocks;
      }
    }
    if (acc.cycle() - last_progress > kStallCycles) break;
  }
  r.host_s = secondsSince(t0);
  r.device_cycles = acc.cycle() - c0;
  for (unsigned t = 0; t < n; ++t)
    r.failed += inflight[t].size() + (in.ops[t].size() - next[t]);
  return r;
}

Rung serviceRung(const SmallInputs& in) {
  Rung r{.name = "service"};
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  const auto users = addUsers(acc, in.ops.size());
  soc::AccelService svc{acc, soc::ServiceConfig{}};
  const std::size_t n = users.size();
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < n; ++t) {
    soc::TenantSpec spec;
    spec.user = users[t];
    spec.key_slot = t + 1;
    spec.cell_base = (2 * t) % accel::kScratchpadCells;
    spec.key = in.keys[t];
    spec.key_conf = acc.principal(users[t]).authority.c;
    ids.push_back(svc.addTenant(spec));
  }
  std::vector<std::size_t> next(n, 0);
  std::vector<std::deque<std::pair<std::uint64_t, std::size_t>>> inflight(n);
  const std::uint64_t c0 = acc.cycle();
  const auto t0 = Clock::now();
  std::uint64_t last_progress = c0;
  for (;;) {
    bool work_left = false;
    for (unsigned t = 0; t < n; ++t) {
      while (inflight[t].size() < kLadderWindow &&
             next[t] < in.ops[t].size()) {
        const BlockOp& op = in.ops[t][next[t]];
        const soc::SubmitResult sr = svc.submit(ids[t], op.in, op.decrypt);
        if (sr.admitted) {
          inflight[t].emplace_back(sr.ticket, next[t]);
        } else {
          ++r.failed;
        }
        ++next[t];
      }
      work_left |= !inflight[t].empty() || next[t] < in.ops[t].size();
    }
    if (!work_left) break;
    svc.pump();
    for (unsigned t = 0; t < n; ++t) {
      while (auto c = svc.fetch(ids[t])) {
        if (inflight[t].empty() || inflight[t].front().first != c->ticket) {
          ++r.failed;  // a verdict for no op, or out of order
          continue;
        }
        const std::size_t idx = inflight[t].front().second;
        inflight[t].pop_front();
        last_progress = acc.cycle();
        if (c->status != soc::CompletionStatus::Ok ||
            c->served_by != soc::ServedBy::Hardware) {
          ++r.failed;
          continue;
        }
        if (c->data != in.ops[t][idx].want) ++r.wrong;
        ++r.ok_blocks;
      }
    }
    if (acc.cycle() - last_progress > kStallCycles) break;
  }
  r.host_s = secondsSince(t0);
  r.device_cycles = acc.cycle() - c0;
  for (unsigned t = 0; t < n; ++t)
    r.failed += inflight[t].size() + (in.ops[t].size() - next[t]);
  return r;
}

Rung poolRung(const SmallInputs& in) {
  const RoundResult pr = runPoolBlocks(in, 1, kLadderWindow, nullptr);
  Rung r{.name = "pool"};
  r.ok_blocks = pr.ok_blocks;
  r.device_cycles = pr.shard_cycles_sum;
  r.host_s = pr.timed_s;
  r.wrong = pr.wrong;
  r.failed = pr.failed;
  return r;
}

}  // namespace

std::vector<Rung> runLadder(const SmallInputs& in) {
  return {pipeRung(in), sessionRung(in), serviceRung(in), poolRung(in)};
}

}  // namespace perfbench
