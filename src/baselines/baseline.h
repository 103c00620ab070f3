// Common interface for every similarity-search method in the evaluation:
// the paper's CPU baselines (BST, MVPT, EGNAT), GPU baselines (GPU-Table,
// GPU-Tree, LBPG-Tree, GANNS), the exact reference scan, and GTS itself
// (adapter in baselines/gts_method.h). The benchmark harness drives all of
// them through this interface and reads their simulated clocks.
#ifndef GTS_BASELINES_BASELINE_H_
#define GTS_BASELINES_BASELINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "common/status.h"
#include "core/gts.h"
#include "gpu/device.h"
#include "metric/dataset.h"
#include "metric/distance.h"

namespace gts {

/// Resources and budgets available to a method. CPU methods charge the
/// host clock and observe `host_memory_bytes` (the scaled-down host RAM of
/// docs/ARCHITECTURE.md, "Scale and calibration"); GPU methods charge and
/// allocate on `device`.
struct MethodContext {
  gpu::Device* device = nullptr;
  uint64_t host_memory_bytes = UINT64_MAX;
  uint64_t seed = 42;
  /// Node capacity the GTS adapter builds with unless explicitly
  /// overridden. The harness uses 10: at 1/ρ of the paper's cardinality it
  /// preserves the paper's *tree height* (the pruning structure), which
  /// Nc = 20 would halve.
  uint32_t gts_node_capacity = 10;
};

class SimilarityIndex {
 public:
  explicit SimilarityIndex(MethodContext context)
      : context_(context), host_clock_(gpu::HostClockConfig()) {}
  virtual ~SimilarityIndex() = default;

  virtual std::string_view Name() const = 0;
  virtual bool IsGpuMethod() const = 0;
  /// False for approximate methods (GANNS).
  virtual bool IsExact() const { return true; }
  /// Whether the method can index this dataset/metric combination
  /// (special-purpose baselines are restricted — paper §6.1 Remark).
  virtual bool Supports(const Dataset& data,
                        const DistanceMetric& metric) const {
    return metric.SupportsKind(data.kind());
  }

  /// Builds (or rebuilds) the index. `data` and `metric` must outlive the
  /// method. Returns kMemoryLimit when the method's budget is exceeded
  /// (reported as "/" in Table 4).
  virtual Status Build(const Dataset* data, const DistanceMetric* metric) = 0;

  virtual Result<RangeResults> RangeBatch(const Dataset& queries,
                                          std::span<const float> radii) = 0;
  virtual Result<KnnResults> KnnBatch(const Dataset& queries, uint32_t k) = 0;

  /// Index storage footprint in bytes (Table 4 "Storage").
  virtual uint64_t IndexBytes() const = 0;

  /// Streaming-update cycle of §6.2: remove object `id`, then reinsert it.
  /// Default: full reconstruction (the paper's GPU special-purpose
  /// baselines "necessitate a complete rebuild for any data updates").
  virtual Status StreamRemoveInsert(uint32_t id);

  /// Batch-update cycle of §6.2: remove all `ids`, then reinsert them.
  /// Default: full reconstruction.
  virtual Status BatchRemoveInsert(std::span<const uint32_t> ids);

  /// Simulated seconds accumulated by this method since ResetClocks()
  /// (host clock for CPU methods, device clock for GPU methods).
  double SimSeconds() const;
  void ResetClocks();

  const MethodContext& context() const { return context_; }

 protected:
  /// Charges `ops` elementary operations on this method's clock.
  void ChargeOps(uint64_t items, uint64_t ops);
  /// Charges the metric-op delta since `start_ops` as `items` work items.
  void ChargeMetricDelta(uint64_t items, uint64_t start_ops);

  const Dataset* data_ = nullptr;
  const DistanceMetric* metric_ = nullptr;
  MethodContext context_;
  gpu::SimClock host_clock_;
};

/// Identifiers for the methods of the paper's evaluation.
enum class MethodId {
  kBst,
  kEgnat,
  kMvpt,
  kGpuTable,
  kGpuTree,
  kLbpgTree,
  kGanns,
  kGts,
  kBruteForce,
};

/// Factory covering every method in the evaluation.
std::unique_ptr<SimilarityIndex> MakeMethod(MethodId id, MethodContext context);

const char* MethodIdName(MethodId id);

}  // namespace gts

#endif  // GTS_BASELINES_BASELINE_H_
