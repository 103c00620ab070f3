// Multi-threaded batch query executor — the concurrent serving layer on top
// of GtsIndex's thread-safe read path. A large query batch is split into
// shards, the shards are fanned out over a persistent worker-thread pool,
// and the per-shard results are merged back in input order. Per-query
// results are byte-identical to the single-threaded RangeQueryBatch /
// KnnQueryBatch (each query's descent depends only on its own state).
//
// Streaming updates may interleave with executor batches: GtsIndex
// publishes each update as a new immutable version, and every read pins
// the version current at its start via an epoch guard — no shard ever
// blocks on (or is blocked by) a writer. Each *shard* observes one
// consistent version; a multi-shard batch as a whole does not (an update
// can publish between two shards of the same batch). Callers that need a
// whole batch — or several batches — pinned to one version should query
// through GtsIndex::ReadSnapshot, as the streaming QuerySession
// (serve/query_session.h) does for each of its flush cycles.
#ifndef GTS_SERVE_QUERY_EXECUTOR_H_
#define GTS_SERVE_QUERY_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/gts.h"

namespace gts::serve {

struct ExecutorOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency() (at least 1).
  uint32_t num_threads = 0;
  /// Queries per shard. 0 = auto: the batch is split into about four shards
  /// per worker, so a straggling last shard stays short.
  uint32_t shard_size = 0;
};

/// One executor serves one index — or, constructed with a null index, acts
/// as a *pool-only* executor: Submit and ShardBounds still work (all a
/// QuerySession needs), while the direct batch entry points return
/// kInvalidArgument. A pool-only executor is how one worker pool is shared
/// across many indexes (serve::ShardedFrontend's replica sessions). The
/// executor itself is thread-safe: any number of caller threads may submit
/// batches concurrently; shards from all in-flight batches share the same
/// worker pool.
class QueryExecutor {
 public:
  /// `index` must outlive the executor; it may be null for a pool-only
  /// executor (see the class comment).
  explicit QueryExecutor(const GtsIndex* index, ExecutorOptions options = {});
  ~QueryExecutor();
  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Sharded batched range query; results in input order, identical to
  /// GtsIndex::RangeQueryBatch. `stats_out` (optional) receives the summed
  /// per-shard counters of this call.
  Result<RangeResults> RangeQueryBatch(const Dataset& queries,
                                       std::span<const float> radii,
                                       GtsQueryStats* stats_out = nullptr);

  /// Sharded batched kNN query; results in input order, identical to
  /// GtsIndex::KnnQueryBatch with the same `options` (per-query initial
  /// bounds are split along with the queries).
  Result<KnnResults> KnnQueryBatch(const Dataset& queries, uint32_t k,
                                   GtsQueryStats* stats_out = nullptr,
                                   const KnnOptions& options = {});

  /// Enqueues one heterogeneous work item on the pool and returns
  /// immediately. Work items share the FIFO queue with batch shards — the
  /// streaming QuerySession uses this to fan flushed batches out alongside
  /// any directly-submitted sharded batches. The item must not block on
  /// work that is *behind* it in the queue (it would deadlock a fully
  /// occupied pool).
  void Submit(std::function<void()> fn) EXCLUDES(mu_);

  /// Batched Submit: enqueues the whole group under ONE lock acquisition
  /// and one pool-wide wake, instead of a lock + wake per item — the
  /// amortization the serving layers' batched scatter rides (a session
  /// flush fans all its shard tasks out in one call). Same queue, same
  /// ordering (the group lands contiguously, in vector order), same
  /// no-blocking-on-later-work contract per item.
  void Submit(std::vector<std::function<void()>> fns) EXCLUDES(mu_);

  /// Worker threads in the pool.
  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }
  /// The index the batch entry points serve (null for pool-only).
  const GtsIndex* index() const { return index_; }

  /// The [begin, end) query ranges a batch of `n` queries is split into.
  /// Exposed for tests and the serve bench's makespan model.
  std::vector<std::pair<uint32_t, uint32_t>> ShardBounds(uint32_t n) const;

 private:
  /// Runs all tasks on the pool and blocks until every one completed.
  void RunAll(std::vector<std::function<void()>>* tasks) EXCLUDES(mu_);
  /// `worker` is the thread's pool index — the fault-injection key of the
  /// `executor.task-delay` site (common/fault.h), so a test can slow one
  /// specific worker deterministically.
  void WorkerLoop(uint32_t worker) EXCLUDES(mu_);

  /// Fans the precomputed shard `bounds` out on the pool, calling
  /// `run_shard(shard_index, begin, end)` for each, and returns the first
  /// failing shard's status (by shard order).
  Status RunSharded(const std::vector<std::pair<uint32_t, uint32_t>>& bounds,
                    const std::function<Status(size_t, uint32_t, uint32_t)>&
                        run_shard);

  const GtsIndex* index_;
  ExecutorOptions options_;

  Mutex mu_;
  CondVar work_cv_;  // workers wait for tasks
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace gts::serve

#endif  // GTS_SERVE_QUERY_EXECUTOR_H_
