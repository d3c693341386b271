#pragma once
// Spans recorded from the benchmark's own code around every call it makes
// into a layer (the library itself is not instrumented). A span has a
// name, host start/end, the span that caused it, and the op it served.
// Spans stay in memory and are written out once, at exit, in Chrome
// trace-event format (open in chrome://tracing or Perfetto).
//
// A null Tracer* means tracing is off: Scope then costs one branch, which
// is how the untraced end-to-end runs pay (almost) nothing for it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// Span names. The text before the first '.' is the layer a span's self
// time is charged to ("bench" is the benchmark's own loop).
enum class SpanName : std::uint8_t {
  BenchRound,
  PoolSubmit,
  PoolPump,
  PoolFetch,
  GcmSubmit,
  GcmFetch,
  RingSubmit,
  RingTick,
  RingPoll,
};
inline constexpr unsigned kSpanNames = 9;
const char* spanName(SpanName n);

inline constexpr std::uint64_t kNoOp = ~0ull;

// Span op id: tenant in the high half, the tenant's op index in the low.
inline std::uint64_t opId(unsigned tenant, std::size_t idx) {
  return (static_cast<std::uint64_t>(tenant) << 32) | idx;
}

class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t op = kNoOp;
    std::uint32_t parent = kNoParent;
    SpanName name = SpanName::BenchRound;
  };
  static constexpr std::uint32_t kNoParent = ~0u;

  Tracer();

  std::uint32_t begin(SpanName n, std::uint64_t op);
  void end(std::uint32_t idx);
  void setOp(std::uint32_t idx, std::uint64_t op) { spans_[idx].op = op; }

  std::size_t size() const { return spans_.size(); }

  // Host durations (ns) of every span with this name.
  std::vector<double> durations(SpanName n) const;
  // Self time (ns) per layer: each span's duration minus the part its
  // direct children cover, summed by layer prefix.
  std::map<std::string, double> selfNsByLayer() const;

  // Chrome trace-event JSON; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::int64_t now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tr, SpanName n, std::uint64_t op = kNoOp)
      : tr_{tr}, idx_{tr ? tr->begin(n, op) : 0} {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Ends the span now; setOp still works afterwards (the op a fetch
  // served is known only once the benchmark has matched its verdict).
  void close() {
    if (tr_ && open_) tr_->end(idx_);
    open_ = false;
  }
  void setOp(std::uint64_t op) {
    if (tr_) tr_->setOp(idx_, op);
  }

 private:
  Tracer* tr_;
  std::uint32_t idx_;
  bool open_ = true;
};

}  // namespace perfbench
