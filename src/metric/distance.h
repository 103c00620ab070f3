// Distance metrics over Dataset objects. Each metric reports, alongside the
// distance value, the number of elementary operations it performed; the
// simulated device / host clocks charge time from those counts, so the
// performance model is driven by *measured* work, not estimates.
#ifndef GTS_METRIC_DISTANCE_H_
#define GTS_METRIC_DISTANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "metric/dataset.h"
#include "metric/kernels.h"
#include "metric/soa.h"

namespace gts {

enum class MetricKind {
  kL1,             ///< Manhattan distance (Color)
  kL2,             ///< Euclidean distance (T-Loc)
  kAngularCosine,  ///< angular distance acos(cos θ)/π — metric form of word
                   ///< cosine distance (Vector)
  kEdit,           ///< Levenshtein edit distance (Words, DNA)
};

const char* MetricKindName(MetricKind kind);

/// Fixed elementary-op surcharge per distance evaluation, modelling the
/// per-object memory traffic and call overhead that dominate cheap metrics
/// (an L2 distance over 2-d points is memory-bound, not flop-bound). Without
/// it the simulator prices brute force as nearly free at laptop scale.
inline constexpr uint64_t kDistanceCallOps = 12;

/// Cumulative work counters for one metric instance — a snapshot of the
/// metric's internal atomic counters, so concurrent query threads can share
/// one metric (counts accumulate with relaxed ordering). Like SimClock,
/// the counter path is deliberately lock-free — it runs once per distance
/// evaluation — so the thread-safety contract here is structural (atomics
/// plus thread-local staging, no shared mutable scratch) rather than a
/// GUARDED_BY relationship the analysis could check.
struct DistanceStats {
  uint64_t calls = 0;  ///< number of distance evaluations
  uint64_t ops = 0;    ///< elementary operations (dim or DP cells, plus
                       ///< kDistanceCallOps per call)
};

/// Abstract distance metric. Implementations must satisfy the metric axioms
/// (identity, symmetry, non-negativity, triangle inequality) — verified by
/// the property test-suite.
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  /// Distance between object `i` of `a` and object `j` of `b`.
  /// Thread-safe: implementations keep no shared mutable scratch and the
  /// work counters are atomic.
  float Distance(const Dataset& a, uint32_t i, const Dataset& b,
                 uint32_t j) const {
    calls_.fetch_add(1, std::memory_order_relaxed);
    ++tls_calls_;
    AddOps(kDistanceCallOps);
    return DistanceImpl(a, i, b, j);
  }

  /// Distance between two objects of the same dataset.
  float Distance(const Dataset& d, uint32_t i, uint32_t j) const {
    return Distance(d, i, d, j);
  }

  /// Scores query object `qi` of `qd` against every object in `ids`,
  /// writing ids.size() distances to `out`. Bitwise-identical to calling
  /// Distance(qd, qi, objects, id) per id — including the work counters
  /// (ids.size() calls, the same per-object ops) — but runs the dispatched
  /// block kernels (metric/kernels.h), vectorizing across objects. With a
  /// finite `bound`, a pair whose distance exceeds it may get any value
  /// above the bound instead (the kernels' bound contract); it is still
  /// charged as one full evaluation.
  void DistanceBatch(const Dataset& qd, uint32_t qi, const Dataset& objects,
                     std::span<const uint32_t> ids, float* out,
                     float bound = kNoBound) const;

  /// Same contract over `count` consecutive slots of a SoaPack starting at
  /// `pos` — the leaf fast path: contiguous lane-major loads instead of a
  /// per-object gather. Slot s scores object pack.order()[s] of `objects`.
  void DistanceBlock(const Dataset& qd, uint32_t qi, const Dataset& objects,
                     const SoaPack& pack, uint32_t pos, uint32_t count,
                     float* out, float bound = kNoBound) const;

  /// One query scored against single slots of a SoaPack (slot s is object
  /// pack.order()[s] of `objects`), its kernel setup made once: an edit
  /// query's EditQuery (so at most one scorer of an edit metric may be
  /// live per thread), or a float query and its kind's scalar lane kernel,
  /// read at the slot's lane of the pack — bitwise the per-object metric.
  /// Score() returns what Distance() returns, bounded like DistanceBatch,
  /// and charges what it charges. The counters are added once, when the
  /// scorer is destroyed, so a work scope reading ThreadStats() must close
  /// after it. Metrics without block kernels call Distance() per slot.
  class QueryScorer {
   public:
    QueryScorer(const DistanceMetric& metric, const Dataset& qd, uint32_t qi,
                const Dataset& objects, const SoaPack& pack);
    ~QueryScorer();
    QueryScorer(const QueryScorer&) = delete;
    QueryScorer& operator=(const QueryScorer&) = delete;

    float Score(uint32_t slot, float bound = kNoBound) {
      if (!block_kernels_) {
        return metric_.Distance(qd_, qi_, objects_, pack_.order()[slot]);
      }
      ++calls_;
      if (edit_) {
        const std::string_view text = objects_.String(pack_.order()[slot]);
        ops_ += qlen_ * text.size() + kDistanceCallOps;
        return static_cast<float>(edit_->Distance(text, bound));
      }
      ops_ += float_ops_;
      float d;
      lane_(q_, pack_.BlockPtr(slot / SoaPack::kLane) + slot % SoaPack::kLane,
            pack_.dim(), 1, &d);
      return d;
    }

   private:
    const DistanceMetric& metric_;
    const Dataset& qd_;
    const uint32_t qi_;
    const Dataset& objects_;
    const SoaPack& pack_;
    const bool block_kernels_;
    std::optional<kernels::EditQuery> edit_;  // kEdit
    kernels::FloatBlockFn lane_ = nullptr;    // the float kinds
    const float* q_ = nullptr;
    uint64_t qlen_ = 0;       // kEdit: the query's length
    uint64_t float_ops_ = 0;  // the float kinds: one evaluation's ops
    uint64_t calls_ = 0;
    uint64_t ops_ = 0;
  };

  virtual MetricKind kind() const = 0;
  std::string_view Name() const { return MetricKindName(kind()); }

  /// True when this metric's arithmetic IS the dispatched kernel family for
  /// kind() — the built-in metrics. Custom subclasses (tests wrap metrics
  /// to intercept evaluations) default to false, and the batch entry
  /// points then run their per-object DistanceImpl instead of the kernels,
  /// so overridden arithmetic and side effects are never bypassed.
  virtual bool UsesBlockKernels() const { return false; }

  /// True if this metric applies to datasets of the given kind.
  virtual bool SupportsKind(DataKind kind) const = 0;

  DistanceStats stats() const {
    return DistanceStats{calls_.load(std::memory_order_relaxed),
                         ops_.load(std::memory_order_relaxed)};
  }

  /// Cumulative counters of the *calling thread*, across all metric
  /// instances. A kernel's computation never migrates threads, so a
  /// delta-based scope (gpu::KernelDistanceScope) reads exact per-kernel
  /// work from these even while other threads evaluate distances
  /// concurrently — the shared stats() deltas would attribute that
  /// concurrent work to every open scope at once.
  static DistanceStats ThreadStats() {
    return DistanceStats{tls_calls_, tls_ops_};
  }
  void ResetStats() {
    calls_.store(0, std::memory_order_relaxed);
    ops_.store(0, std::memory_order_relaxed);
  }

 protected:
  virtual float DistanceImpl(const Dataset& a, uint32_t i, const Dataset& b,
                             uint32_t j) const = 0;

  /// Implementations report their measured elementary operations here.
  void AddOps(uint64_t n) const {
    ops_.fetch_add(n, std::memory_order_relaxed);
    tls_ops_ += n;
  }

 private:
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> ops_{0};
  // Per-thread mirrors of the shared counters (never reset; consumers take
  // deltas). Class-wide on purpose: ThreadStats() feeds single-thread
  // work-delta scopes, which never interleave two metrics in one scope.
  static inline thread_local uint64_t tls_calls_ = 0;
  static inline thread_local uint64_t tls_ops_ = 0;
};

/// Factory for the metrics used by the paper's five datasets.
std::unique_ptr<DistanceMetric> MakeMetric(MetricKind kind);

}  // namespace gts

#endif  // GTS_METRIC_DISTANCE_H_
