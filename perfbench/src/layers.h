// Direct calls into the core and metric layers, shared by the closed-loop
// workloads and by tloc-serve's per-layer replay: batched range/kNN passes
// over a query pool, the streaming-update replay, the distance-kernel
// replay, and the counter snapshots taken around each phase.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "core/gts.h"
#include "trace.h"

namespace perfbench {

/// What one kind of batched query accumulated over a phase.
struct QueryTally {
  uint64_t queries = 0;
  uint64_t batches = 0;
  uint64_t failed = 0;  ///< queries of batches that returned an error
  uint64_t results = 0;  ///< range hits
  double wall_s = 0.0;
  double modeled_s = 0.0;
  uint64_t kernels = 0;
  uint64_t metric_ops = 0;  ///< elementary distance operations (DP cells...)
  gts::GtsQueryStats stats;
  std::vector<double> batch_ms;  ///< one per batch call, in call order
};

/// Answers kept for the brute-force check, by pool index.
struct KeptAnswers {
  std::vector<uint32_t> pool_index;
  std::vector<std::vector<uint32_t>> range;
  std::vector<std::vector<gts::Neighbor>> knn;
};

/// Splits a query pool into consecutive batches of `batch` queries.
std::vector<gts::Dataset> SplitPool(const gts::Dataset& queries,
                                    uint32_t batch);

/// One pass over the pool's batches: a range batch, then a kNN batch over
/// the same queries. Answers of the pool indices listed in `keep` (may be
/// null) are stored into it. Spans: core.RangeQueryBatch,
/// core.KnnQueryBatch (req = batch number).
void DirectPass(const gts::GtsIndex& index,
                std::span<const gts::Dataset> batches, float radius,
                uint32_t k, Tracer* tracer, QueryTally* range,
                QueryTally* knn, KeptAnswers* keep);

/// One streaming update of the write stream.
struct WriteOp {
  bool insert = false;
  uint32_t fresh = 0;      ///< object of the fresh reserve to insert
  uint32_t remove_id = 0;  ///< id to remove
};

/// `count` writes alternating insert / remove: the inserts take the fresh
/// reserve in a seeded order, the removes distinct seeded ids below
/// `corpus`, so the live set keeps its size.
std::vector<WriteOp> MakeWriteStream(uint32_t count, uint32_t fresh,
                                     uint32_t corpus, uint64_t seed);

struct WriteTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> insert_ms, remove_ms;
  std::vector<double> rebuild_ms;  ///< insert calls that rebuilt the index
  uint64_t rebuilds = 0;
  uint64_t retired = 0, reclaimed = 0, limbo_peak = 0;
  double wall_s = 0.0;
  /// Ids the inserts were given, in stream order.
  std::vector<uint32_t> inserted_ids;
};

/// Applies `ops` as direct Insert/Remove calls. Spans: core.Insert,
/// core.Remove (req = position in the stream).
WriteTally ReplayWrites(gts::GtsIndex* index, const gts::Dataset& fresh,
                        std::span<const WriteOp> ops, Tracer* tracer);

/// Compares kept answers of pool queries with the brute-force reference and
/// returns the number of wrong answers (a range and a kNN answer per kept
/// query). `corrupt` perturbs the first kept kNN answer first, the
/// self-test's proof that the check can fail.
uint64_t CheckAnswers(Reference* ref, const gts::Dataset& queries,
                      KeptAnswers* got, float radius, uint32_t k,
                      bool corrupt);

/// Times the metric layer's block entry points over the workload's corpus
/// and queries: DistanceBlock over a packed slice of the corpus and
/// DistanceBatch over the same ids (spans metric.DistanceBlock,
/// metric.DistanceBatch).
struct MetricReplay {
  double ns_per_dist = 0.0;
  double ops_per_dist = 0.0;
};
MetricReplay ReplayDistances(gts::DatasetId id, const gts::Dataset& corpus,
                             const gts::Dataset& queries, uint64_t seed,
                             Tracer* tracer);

/// Records the public counters of one index, its metric and its device as
/// `<prefix>.*` counters of `phase`.
void SnapshotCounters(Tracer* tracer, const std::string& phase,
                      const std::string& prefix, const gts::GtsIndex& index,
                      const gts::DistanceMetric& metric,
                      const gts::gpu::Device& device);

/// Per-layer core/metric/gpu metrics of direct query tallies (batch times
/// from the core.* spans).
void AddQueryLayerMetrics(const QueryTally& range, const QueryTally& knn,
                          const MetricReplay& replay, Tracer* tracer,
                          RunResult* out);
/// core.insert_us / remove_us (from the spans), rebuild_ms and rebuilds.
void AddWriteLayerMetrics(const WriteTally& writes, Tracer* tracer,
                          RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
