#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double percentileU(const std::vector<std::uint64_t>& v, double q) {
  return percentile(std::vector<double>(v.begin(), v.end()), q);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

void finishFingerprint(Fingerprint& fp, RoundResult& r) {
  fp.u64(r.ok_blocks);
  fp.u64(r.device_cycles);
  fp.u64(r.shard_cycles_sum);
  for (const std::uint64_t l : r.ok_latency) fp.u64(l);
  for (const auto& [name, v] : r.layer) {
    fp.bytes(reinterpret_cast<const std::uint8_t*>(name.data()), name.size());
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    fp.u64(bits);
  }
  r.fingerprint = fp.value();
}

}  // namespace perfbench
