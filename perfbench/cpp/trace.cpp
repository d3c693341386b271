#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* spanName(SpanName n) {
  static const char* const kNames[kSpanNames] = {
      "bench.round", "pool.submit", "pool.pump",   "pool.fetch", "gcm.submit",
      "gcm.fetch",   "ring.submit", "ring.tick",   "ring.poll",
  };
  return kNames[static_cast<unsigned>(n)];
}

Tracer::Tracer() : origin_{Clock::now()} { spans_.reserve(1u << 16); }

std::int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::begin(SpanName n, std::uint64_t op) {
  Span s;
  s.name = n;
  s.op = op;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(idx);
  spans_.back().start_ns = now();
  return idx;
}

void Tracer::end(std::uint32_t idx) {
  spans_[idx].end_ns = now();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::vector<double> Tracer::durations(SpanName n) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == n) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::map<std::string, double> Tracer::selfNsByLayer() const {
  // Children run strictly inside their parent (one thread, stack order),
  // so the covered part of a parent is the sum of its children.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spanName(spans_[i].name);
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%lld}}\n",
                 i ? "," : "", spanName(s.name), s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.op == kNoOp ? -1LL : static_cast<long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
