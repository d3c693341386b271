// DMA data-path study: the descriptor-ring engine against the service's
// pipelined block path (batch = the wave of blocks offered before draining),
// batch 1/4/16/64, plus the seeded descriptor-ring fault campaign whose
// invariants (wrong_plaintext_releases, cross_label_writes, partial_writes
// and unrequested_writes all 0) CI gates via tools/bench_gate.py
// --assert-zero.
//
// Records (stdout lines prefixed `JSON `):
//   {"bench":"dma_path","path":p,"batch":b,...}  one per path x batch cell.
//     `amortization_floor` states the claim the ring path must keep: with
//     one descriptor outstanding, the ring's overhead per descriptor (fetch,
//     validation, pipe fill, completion) stays at the measured 34 cycles,
//     i.e. blocks_per_device_cycle >= batch / (batch + 34). Zero for the
//     service path.
//   {"bench":"dma_ring_4ch","path":"ring_4ch","batch":b,...}  the same 256
//     blocks x batch through four ring channels, one descriptor
//     outstanding on each, so one chain's fetch overlaps another's issue
//     and drain. `sync_floor` is the committed figure of the retired
//     synchronous engine at the same batch (kSyncFloor): CI asserts the
//     ring meets or beats it.
//   {"bench":"dma_ring_campaign","seed":s,...}   16 hardened seeds; CI
//     asserts the invariant fields are zero in every record.
//   {"bench":"dma_ring_campaign_unhardened",...} the control: the same
//     campaign on the unhardened engine, violations expected and reported.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/attacks.h"
#include "soc/dma.h"
#include "soc/service.h"

namespace {

using aesifc::accel::AcceleratorConfig;
using aesifc::accel::AesAccelerator;
using aesifc::accel::SecurityMode;
using aesifc::lattice::Principal;
using namespace aesifc::soc;

constexpr unsigned kBatches[] = {1, 4, 16, 64};
constexpr unsigned kTotalBlocks = 256;  // per cell, matching other benches
// Blocks per device cycle of the retired synchronous DMA engine (one
// blocking descriptor at a time over a driver session) at each of kBatches,
// the last figures it measured in this bench.
constexpr double kSyncFloor[] = {0.0323, 0.1176, 0.3478, 0.6809};
// Ring cycles per descriptor beyond one per block, with one outstanding.
constexpr double kRingOverheadCycles = 34.0;

struct PathResult {
  std::uint64_t blocks = 0;
  std::uint64_t device_cycles = 0;
  double throughput() const {
    return device_cycles ? static_cast<double>(blocks) / device_cycles : 0.0;
  }
};

struct Rig {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 64,
                                       false}};
  unsigned alice = 0;
  std::vector<std::uint8_t> key;
  HostMemory mem{64 * 1024};

  Rig() {
    alice = acc.addUser(Principal::user("alice", 1));
    aesifc::Rng rng{0xd3a};
    key.resize(16);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    if (!aesifc::accel::loadKey128(acc, alice, 1, 0, key,
                                   acc.principal(alice).authority.c)) {
      std::abort();
    }
    mem.setPageLabel(0, mem.size(), acc.principal(alice).authority);
    std::vector<std::uint8_t> data(16 * 1024);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    mem.writeBytes(0x4000, data);  // src staging
  }
};

// Descriptor-ring engine: one published descriptor per batch, futures
// resolved from completion events.
PathResult runRingPath(unsigned batch) {
  Rig rig;
  DmaRingEngine eng{rig.acc, rig.mem, /*hardened=*/true};
  DmaRingConfig rc;
  rc.desc_base = 0x0000;
  rc.desc_slots = 8;
  rc.chain_base = 0x400;
  rc.chain_slots = 16;
  rc.comp_base = 0x800;
  rc.comp_slots = 8;
  const unsigned ch = eng.addChannel(rc);
  DmaRingDriver drv{eng, rig.mem, ch, rc};
  PathResult r;
  const std::uint64_t start = rig.acc.cycle();
  for (unsigned done = 0; done < kTotalBlocks; done += batch) {
    DmaDescriptor d;
    d.user = rig.alice;
    d.key_slot = 1;
    d.mode = DmaMode::EcbEncrypt;
    d.src = 0x4000;
    d.dst = 0x8000;
    d.len = 16 * batch;
    const auto seq = drv.submitChain({d});
    if (!seq) std::abort();
    const auto* c = drv.wait(*seq, 1u << 20);
    if (c == nullptr || c->status != DmaError::None) std::abort();
    r.blocks += c->blocks;
  }
  r.device_cycles = rig.acc.cycle() - start;
  return r;
}

// Four ring channels on one engine, one descriptor outstanding on each:
// descriptors go round-robin to whichever channel is free.
PathResult runRing4chPath(unsigned batch) {
  constexpr unsigned kChannels = 4;
  Rig rig;
  DmaRingEngine eng{rig.acc, rig.mem, /*hardened=*/true};
  std::vector<std::unique_ptr<DmaRingDriver>> drv;
  for (unsigned c = 0; c < kChannels; ++c) {
    DmaRingConfig rc;
    rc.desc_base = c * 0x1000;
    rc.desc_slots = 8;
    rc.chain_base = c * 0x1000 + 0x200;
    rc.chain_slots = 16;
    rc.comp_base = c * 0x1000 + 0x600;
    rc.comp_slots = 8;
    const unsigned ch = eng.addChannel(rc);
    drv.push_back(std::make_unique<DmaRingDriver>(eng, rig.mem, ch, rc));
  }
  std::vector<std::optional<std::uint16_t>> outstanding(kChannels);
  PathResult r;
  const std::uint64_t start = rig.acc.cycle();
  unsigned issued = 0;
  for (std::uint64_t guard = 0; guard < (1u << 20); ++guard) {
    bool busy = false;
    for (unsigned c = 0; c < kChannels; ++c) {
      if (outstanding[c]) {
        const auto* done = drv[c]->result(*outstanding[c]);
        if (done == nullptr) {
          busy = true;
          continue;
        }
        if (done->status != DmaError::None) std::abort();
        r.blocks += done->blocks;
        outstanding[c].reset();
      }
      if (issued < kTotalBlocks) {
        DmaDescriptor d;
        d.user = rig.alice;
        d.key_slot = 1;
        d.mode = DmaMode::EcbEncrypt;
        d.src = 0x4000;
        d.dst = 0x8000 + c * 16 * batch;
        d.len = 16 * batch;
        outstanding[c] = drv[c]->submitChain({d});
        if (!outstanding[c]) std::abort();
        issued += batch;
        busy = true;
      }
    }
    if (!busy) break;
    eng.tick();
  }
  if (r.blocks != kTotalBlocks) std::abort();
  r.device_cycles = rig.acc.cycle() - start;
  return r;
}

// Service block path: a wave of `batch` blocks is submitted, then drained
// through the pipelined issue path.
PathResult runServicePath(unsigned batch) {
  Rig rig;
  ServiceConfig cfg;
  cfg.quota_per_round = batch;
  cfg.global_high_watermark = 2 * batch + 8;
  AccelService svc{rig.acc, cfg};
  TenantSpec spec;
  spec.user = rig.alice;
  spec.key_slot = 1;
  spec.cell_base = 0;
  spec.key = rig.key;
  spec.key_conf = rig.acc.principal(rig.alice).authority.c;
  spec.queue_depth = batch + 4;
  const unsigned t = svc.addTenant(spec);

  aesifc::Rng rng{0xb10c};
  PathResult r;
  const std::uint64_t start = rig.acc.cycle();
  for (unsigned done = 0; done < kTotalBlocks; done += batch) {
    for (unsigned i = 0; i < batch; ++i) {
      aesifc::aes::Block blk;
      for (auto& b : blk) b = static_cast<std::uint8_t>(rng.next());
      if (!svc.submit(t, blk).admitted) std::abort();
    }
    svc.runUntilIdle(1u << 20);
    for (unsigned i = 0; i < batch; ++i) {
      const auto c = svc.fetch(t);
      if (!c || c->status != CompletionStatus::Ok) std::abort();
      ++r.blocks;
    }
  }
  r.device_cycles = rig.acc.cycle() - start;
  return r;
}

void printPathMatrix() {
  std::printf("DMA data paths, 256 blocks/cell, blocks per device cycle\n");
  std::printf("%-14s %6s %10s %14s %10s\n", "path", "batch", "blocks",
              "device_cycles", "blk/cyc");
  const char* names[] = {"ring", "service"};
  for (unsigned bi = 0; bi < std::size(kBatches); ++bi) {
    const unsigned batch = kBatches[bi];
    PathResult res[2] = {runRingPath(batch), runServicePath(batch)};
    for (unsigned p = 0; p < 2; ++p) {
      const double floor =
          p == 0 ? batch / (batch + kRingOverheadCycles) : 0.0;
      std::printf("%-14s %6u %10llu %14llu %10.4f\n", names[p], batch,
                  static_cast<unsigned long long>(res[p].blocks),
                  static_cast<unsigned long long>(res[p].device_cycles),
                  res[p].throughput());
      std::printf(
          "JSON {\"bench\":\"dma_path\",\"path\":\"%s\",\"batch\":%u,"
          "\"blocks\":%llu,\"device_cycles\":%llu,"
          "\"blocks_per_device_cycle\":%.4f,\"amortization_floor\":%.4f}\n",
          names[p], batch, static_cast<unsigned long long>(res[p].blocks),
          static_cast<unsigned long long>(res[p].device_cycles),
          res[p].throughput(), floor);
    }
    const PathResult four = runRing4chPath(batch);
    std::printf("%-14s %6u %10llu %14llu %10.4f\n", "ring_4ch", batch,
                static_cast<unsigned long long>(four.blocks),
                static_cast<unsigned long long>(four.device_cycles),
                four.throughput());
    std::printf(
        "JSON {\"bench\":\"dma_ring_4ch\",\"path\":\"ring_4ch\","
        "\"batch\":%u,\"blocks\":%llu,\"device_cycles\":%llu,"
        "\"blocks_per_device_cycle\":%.4f,\"sync_floor\":%.4f}\n",
        batch, static_cast<unsigned long long>(four.blocks),
        static_cast<unsigned long long>(four.device_cycles),
        four.throughput(), kSyncFloor[bi]);
  }
  std::printf("\n");
}

void printRingCampaign() {
  std::printf(
      "Hardened descriptor-ring fault campaign, 16 seeds x 24 descriptors\n"
      "(scripted scenarios: torn ownership, chain loop, OOB next, completion\n"
      "overflow, stalled ring, stale generation, TOCTOU dst rewrite,\n"
      "descriptor replay: 3 passes each; plus random ring/host faults at\n"
      "rate 0.02)\n");
  std::printf("%6s %6s %8s %8s %6s %6s %6s %6s\n", "seed", "ok", "refused",
              "unresl", "wdog", "recov", "wrongP", "xlabel");
  RingCampaignReport total;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 24;
    const auto rep = runRingFaultCampaign(cfg);
    std::printf("%6llu %6llu %8llu %8llu %6llu %6llu %6llu %6llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(rep.completed_ok),
                static_cast<unsigned long long>(rep.refused),
                static_cast<unsigned long long>(rep.unresolved),
                static_cast<unsigned long long>(rep.watchdog_fires),
                static_cast<unsigned long long>(rep.recoveries),
                static_cast<unsigned long long>(rep.wrong_plaintext_releases),
                static_cast<unsigned long long>(rep.cross_label_writes));
    std::printf(
        "JSON {\"bench\":\"dma_ring_campaign\",\"seed\":%llu,"
        "\"descriptors\":%u,\"completed_ok\":%llu,\"refused\":%llu,"
        "\"unresolved\":%llu,\"watchdog_fires\":%llu,\"recoveries\":%llu,"
        "\"ring_faults\":%llu,\"wrong_plaintext_releases\":%llu,"
        "\"cross_label_writes\":%llu,\"partial_writes\":%llu,"
        "\"unrequested_writes\":%llu}\n",
        static_cast<unsigned long long>(seed), rep.descriptors,
        static_cast<unsigned long long>(rep.completed_ok),
        static_cast<unsigned long long>(rep.refused),
        static_cast<unsigned long long>(rep.unresolved),
        static_cast<unsigned long long>(rep.watchdog_fires),
        static_cast<unsigned long long>(rep.recoveries),
        static_cast<unsigned long long>(rep.ring_faults),
        static_cast<unsigned long long>(rep.wrong_plaintext_releases),
        static_cast<unsigned long long>(rep.cross_label_writes),
        static_cast<unsigned long long>(rep.partial_writes),
        static_cast<unsigned long long>(rep.unrequested_writes));
    total += rep;
  }

  // The control: same campaign, unhardened engine. NOT gated (violations
  // are the point) — it documents what the hardening buys.
  RingCampaignReport un;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 24;
    cfg.hardened = false;
    un += runRingFaultCampaign(cfg);
  }
  std::printf(
      "\nhardened:   %llu ok / %llu refused, 0 wrong-plaintext, 0 "
      "cross-label, 0 unrequested\nunhardened: %llu ok / %llu refused, %llu "
      "wrong-plaintext, %llu cross-label, %llu partial, %llu unrequested\n\n",
      static_cast<unsigned long long>(total.completed_ok),
      static_cast<unsigned long long>(total.refused),
      static_cast<unsigned long long>(un.completed_ok),
      static_cast<unsigned long long>(un.refused),
      static_cast<unsigned long long>(un.wrong_plaintext_releases),
      static_cast<unsigned long long>(un.cross_label_writes),
      static_cast<unsigned long long>(un.partial_writes),
      static_cast<unsigned long long>(un.unrequested_writes));
  std::printf(
      "JSON {\"bench\":\"dma_ring_campaign_unhardened\",\"seeds\":16,"
      "\"descriptors\":%u,\"completed_ok\":%llu,\"refused\":%llu,"
      "\"wrong_plaintext_releases\":%llu,\"cross_label_writes\":%llu,"
      "\"partial_writes\":%llu,\"unrequested_writes\":%llu}\n\n",
      un.descriptors, static_cast<unsigned long long>(un.completed_ok),
      static_cast<unsigned long long>(un.refused),
      static_cast<unsigned long long>(un.wrong_plaintext_releases),
      static_cast<unsigned long long>(un.cross_label_writes),
      static_cast<unsigned long long>(un.partial_writes),
      static_cast<unsigned long long>(un.unrequested_writes));
}

void BM_RingPath(benchmark::State& state) {
  const unsigned batch = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runRingPath(batch));
  }
}
BENCHMARK(BM_RingPath)->Arg(1)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_RingCampaign(benchmark::State& state) {
  for (auto _ : state) {
    RingCampaignConfig cfg;
    cfg.seed = 2019;
    cfg.descriptors = 24;
    benchmark::DoNotOptimize(runRingFaultCampaign(cfg));
  }
}
BENCHMARK(BM_RingCampaign)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printPathMatrix();
  printRingCampaign();
  // AESIFC_BENCH_SMOKE: CI keep-alive mode — the matrices and JSON records
  // above already ran; skip the Google Benchmark timing loops.
  const char* smoke = std::getenv("AESIFC_BENCH_SMOKE");
  if (smoke && *smoke && std::string{smoke} != "0") return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
