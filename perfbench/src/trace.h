// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark, around its calls into each layer's public entry points;
// nothing inside the library is instrumented. Each recording thread
// appends to its own SpanBuffer and hands it to the Tracer when done, so
// the hot path takes no lock; the Tracer writes every span to a file when
// the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide trace epoch.
int64_t NowNs();

inline double UsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

struct Span {
  const char* name = "";  ///< static string: "<layer>.<operation>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 = root
  uint64_t request = 0;   ///< spans of one request share this id

  double us() const { return UsBetween(start_ns, end_ns); }
};

/// One thread's spans; not thread-safe.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t id_base) : next_id_(id_base) {}

  /// A fresh span id, for a parent recorded after its children.
  uint64_t NewId() { return ++next_id_; }

  /// Records a finished span and returns its id (`id` 0 = assign one).
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t request, uint64_t parent = 0, uint64_t id = 0) {
    if (id == 0) id = NewId();
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
    return id;
  }

  /// Times `fn()` as a span and returns its result.
  template <typename Fn>
  auto Time(const char* name, uint64_t request, uint64_t parent, Fn&& fn) {
    const int64_t start = NowNs();
    auto out = fn();
    Add(name, start, NowNs(), request, parent);
    return out;
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// A buffer whose span ids cannot collide with any other buffer's.
  SpanBuffer NewBuffer();

  /// Takes ownership of a finished buffer's spans. Thread-safe.
  void Collect(SpanBuffer&& buffer);

  /// Every collected span with the given name.
  std::vector<Span> Named(const std::string& name) const;

  /// Durations in microseconds of every span with the given name, keyed by
  /// request id (the last span wins when a request repeats a name).
  std::map<uint64_t, double> ByRequest(const std::string& name) const;

  size_t size() const;

  /// Writes all spans as tab-separated lines
  /// (name, start_ns, end_ns, id, parent, request) with a header row.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  uint64_t buffers_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
