// GPU-Tree — the paper's tree-based GPU baseline, implementing the G-PICS
// [38] strategy: a forest of VP-trees over object shards, queried with one
// fixed-size thread block per (query, tree) pair. Its two structural flaws
// drive the paper's findings and are reproduced here:
//  * construction assigns a kernel (block) per tree node, so launch overhead
//    dominates build time (Table 4);
//  * query blocks reserve fixed-size result buffers holding candidate object
//    copies with no memory-adaptive grouping, so large batches overflow the
//    device and hit the "memory deadlock" of Figs. 9 and 11.
#ifndef GTS_BASELINES_GPU_TREE_H_
#define GTS_BASELINES_GPU_TREE_H_

#include <vector>

#include "baselines/baseline.h"
#include "baselines/topk.h"
#include "common/rng.h"

namespace gts {

class GpuTree final : public SimilarityIndex {
 public:
  explicit GpuTree(MethodContext context) : SimilarityIndex(context) {}
  ~GpuTree() override;

  std::string_view Name() const override { return "GPU-Tree"; }
  bool IsGpuMethod() const override { return true; }

  Status Build(const Dataset* data, const DistanceMetric* metric) override;
  Result<RangeResults> RangeBatch(const Dataset& queries,
                                  std::span<const float> radii) override;
  Result<KnnResults> KnnBatch(const Dataset& queries, uint32_t k) override;
  uint64_t IndexBytes() const override;

  Status StreamRemoveInsert(uint32_t id) override;

 private:
  static constexpr uint32_t kNumTrees = 32;
  static constexpr uint32_t kFanout = 4;
  static constexpr uint32_t kLeafSize = 16;
  /// Lanes of one thread block (per-node construction kernels run at block
  /// width, not device width).
  static constexpr uint32_t kBlockLanes = 64;
  /// Each (query, tree) block reserves shard_size / kSlotDivisor fixed
  /// result slots, each holding a candidate object copy — G-PICS-style
  /// pessimistic block buffers with no memory-adaptive grouping. The
  /// divisor is the calibrated scaled-down block size (docs/ARCHITECTURE.md,
  /// "Scale and calibration"); the object-copy term is what makes wide
  /// objects (Color) deadlock while tiny ones (T-Loc) survive, as in
  /// Figs. 9 and 11.
  static constexpr uint32_t kSlotDivisor = 64;

  struct Node {
    uint32_t vp = kInvalidId;
    std::vector<float> ring_lo, ring_hi;
    std::vector<int32_t> children;
    std::vector<uint32_t> bucket;
    bool leaf = false;
  };

  int32_t BuildNode(std::vector<uint32_t> ids, std::vector<Node>* tree,
                    Rng* rng);
  /// Reserves the per-block fixed buffers; failure = the paper's deadlock.
  Result<gpu::DeviceBuffer<uint8_t>> ReserveBlockBuffers(uint32_t batch) const;
  void CollectRangeCandidates(const std::vector<Node>& tree, int32_t node,
                              const Dataset& queries, uint32_t q, float r,
                              std::vector<uint32_t>* candidates) const;
  void KnnRec(const std::vector<Node>& tree, int32_t node,
              const Dataset& queries, uint32_t q, TopK* topk) const;
  void DescendTouch(const std::vector<Node>& tree, uint32_t id) const;

  std::vector<std::vector<Node>> trees_;
  std::vector<uint32_t> shard_of_;
  std::vector<uint8_t> tombstone_;
  uint64_t resident_bytes_ = 0;
  uint64_t avg_object_bytes_ = 8;
};

}  // namespace gts

#endif  // GTS_BASELINES_GPU_TREE_H_
