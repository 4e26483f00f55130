// perfbench span recorder.
//
// A span is one timed call from the benchmark into a layer's public
// function: name, start, end, the span that caused it (parent) and the op
// it belongs to. Spans are kept in memory and written once, at exit, as
// Chrome trace-event JSON (Perfetto and chrome://tracing open it as-is).
// Per-layer metrics are medians of span durations by name, so every
// per-layer number traces back to one span around one call.
//
// Recording is decided per op: an OpScope marks the calling thread's current
// op as traced or not, and a Span records only inside a traced op of an
// enabled Tracer. Traced runs interleave traced and untraced ops of the same
// kind, which is how trace.overhead_pct is measured.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at op level
  std::uint64_t op = 0;
  std::uint64_t thread = 0;
};

class Tracer {
 public:
  static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its index.
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t op,
                    std::uint64_t thread) {
    const std::int64_t start = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, 0, parent, op, thread});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t index) {
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
  }

  /// Records an already-measured interval (a span whose boundaries are not
  /// one C++ scope, e.g. time to first byte inside a request) and returns
  /// its index.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::uint64_t op,
                   std::uint64_t thread) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_ns, end_ns, parent, op, thread});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Durations in milliseconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name && s.end_ns >= s.start_ns) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return out;
  }

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"id\":%zu,\"parent\":%lld}}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<unsigned long long>(s.thread),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op), i,
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// The calling thread's current op: its id, whether it is traced, and the
/// innermost open span (the parent of the next one).
struct OpContext {
  std::uint64_t op = 0;
  bool traced = false;
  std::int64_t open_span = -1;
  std::uint64_t thread = 0;
};

inline OpContext& current_op() {
  thread_local OpContext context;
  return context;
}

/// Marks the calling thread's work until destruction as one op.
class OpScope {
 public:
  explicit OpScope(bool traced, std::uint64_t thread = 0) {
    static std::atomic<std::uint64_t> next_op{0};
    OpContext& ctx = current_op();
    saved_ = ctx;
    ctx.op = ++next_op;
    ctx.traced = traced && Tracer::global().enabled();
    ctx.open_span = -1;
    ctx.thread = thread;
  }
  ~OpScope() { current_op() = saved_; }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpContext saved_;
};

/// Records a measured interval as a span of the current op; returns its
/// index, or -1 outside a traced op.
inline std::int64_t record_span(const char* name, std::int64_t start_ns,
                                std::int64_t end_ns, std::int64_t parent) {
  const OpContext& ctx = current_op();
  if (!ctx.traced) return -1;
  return Tracer::global().add(name, start_ns, end_ns, parent, ctx.op,
                              ctx.thread);
}

/// RAII span around one call; records only inside a traced op.
class Span {
 public:
  explicit Span(const char* name) {
    OpContext& ctx = current_op();
    if (!ctx.traced) return;
    parent_ = ctx.open_span;
    index_ = Tracer::global().open(name, parent_, ctx.op, ctx.thread);
    ctx.open_span = index_;
  }
  ~Span() {
    if (index_ < 0) return;
    Tracer::global().close(index_);
    current_op().open_span = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
  std::int64_t parent_ = -1;
};

}  // namespace perfbench
