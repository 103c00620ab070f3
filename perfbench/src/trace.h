// Benchmark-side tracing: a span around every call the benchmark makes into
// a layer's public function, plus snapshots of the library's public
// counters around each phase. Spans stay in per-thread buffers in memory
// and are written out once, at exit; the per-layer metrics and the
// self-time summary are computed from them.
//
// A span's name is "<layer>.<call>" where the layer is a src/ module name
// (core, metric, serve, ...) or "bench" for the benchmark's own phases. A
// disabled tracer records nothing; each ScopedSpan then costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  ///< static storage
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  ///< index in the same thread's buffer; -1 for a root
  uint64_t req;    ///< request or batch id the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a counter snapshot taken at a phase boundary.
  void Counter(const std::string& phase, const std::string& name,
               double value);
  /// Declares the end-to-end wall time the benchmark measured for the root
  /// spans named `root`, independently of the spans (closure check).
  void Measured(const std::string& root, double seconds);

  /// Durations (ms) of every span named `name`, on any thread; with
  /// `root` non-empty, only those nested under a root span of that name.
  std::vector<double> DurationsMs(std::string_view name,
                                  std::string_view root = {}) const;

  /// Self time per layer: a span's duration minus the time its child
  /// spans cover, summed by the layer prefix of its name.
  std::map<std::string, double> LayerSelfSeconds() const;
  /// Largest |sum of self times under a measured root - measured time| /
  /// measured time over the roots declared with Measured().
  double ClosureError() const;

  /// Writes every span and counter as text lines. Returns false on I/O
  /// failure.
  bool Dump(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<int64_t> open;  ///< stack of open span indices
  };
  ThreadLog* Log();
  int64_t NowNs() const;

  const bool enabled_;
  const uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
  struct CounterRow {
    std::string phase, name;
    double value;
  };
  std::vector<CounterRow> counters_;               // guarded by mu_
  std::map<std::string, double> measured_;         // guarded by mu_
};

/// RAII span on the calling thread; nests under the thread's innermost
/// open span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;  ///< null when tracing is off
  Tracer::ThreadLog* log_ = nullptr;
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
