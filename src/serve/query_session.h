// Streaming query submission with admission control — the serving front
// door on top of GtsIndex + QueryExecutor. Callers submit *individual*
// typed requests (serve::Request: range/kNN reads and update work items)
// through the unified Submit(Request) entry point and receive futures; an
// internal dynamic batcher coalesces queued queries into batches — GTS
// gets its throughput from batched level-synchronous search, so
// independently-arriving queries must be re-batched to keep the device
// busy (the Faiss-style GPU-serving recipe). Three policies shape the
// stream:
//
//  - Dynamic batching: a flush runs when `max_batch` queries are queued or
//    the oldest queued query has waited `max_wait_micros`, whichever comes
//    first. A flush cycle pins one GtsIndex::ReadSnapshot (an epoch-pinned
//    immutable version — acquiring it never blocks and never delays an
//    update), partitions the coalesced batch into per-(operation, k,
//    fraction) groups, shards the groups over the executor's worker pool,
//    and resolves every future — all queries of one flush observe the same
//    index version (cross-batch snapshot semantics).
//  - Deadline-aware composition: each read submission may carry a
//    `deadline_micros` target. A flush drains the queued queries with the
//    nearest deadlines, arrival order breaking ties (earliest deadline
//    first). A deadline-free read participates with an implicit deadline
//    of its arrival plus `no_deadline_slack_micros`: it yields to urgent
//    work but cannot be starved by a sustained urgent stream, since its
//    fixed absolute deadline eventually beats every later arrival's. With
//    no explicit deadline queued this is arrival order and costs nothing.
//    A query resolved after its deadline is still answered — the deadline
//    shapes scheduling, it is not a timeout — but is counted in
//    SessionStats::deadline_missed.
//  - Admission control: at most `max_queue` read queries may be queued.
//    An overflowing submission is either rejected immediately (its future
//    resolves with kResourceExhausted) or blocks the submitter until
//    space frees, per `admission`.
//  - Writes-first ordering: update work items (Insert/Remove/BatchUpdate/
//    Rebuild) are never rejected and cannot starve behind saturating
//    readers: the dispatcher applies every queued writer, in submission
//    order, before composing the next read flush, so a writer waits for at
//    most the one flush already in flight. No fairness gate is needed —
//    the index's read path is lock-free (readers pin immutable versions),
//    so an update never contends with in-flight reads at the index either;
//    ordering here is purely about when the dispatcher thread gets to it.
//
// Per-query results are byte-identical to the corresponding entry of a
// direct batched call: a query's descent depends only on its own state,
// so how the batcher happened to coalesce it is unobservable.
//
// Thread-safety: any number of threads may submit concurrently. The
// index and executor must outlive the session; destroying the session
// drains everything already submitted.
#ifndef GTS_SERVE_QUERY_SESSION_H_
#define GTS_SERVE_QUERY_SESSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <functional>
#include <future>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/gts.h"
#include "serve/query_executor.h"
#include "serve/request.h"

namespace gts::serve {

/// What to do with a read submission that finds the bounded queue full.
enum class AdmissionPolicy {
  kReject,  ///< fail fast: the future resolves with kResourceExhausted
  kBlock,   ///< backpressure: the submitter blocks until space frees
};

struct SessionOptions {
  /// Flush when this many read queries are queued.
  uint32_t max_batch = 64;
  /// Flush when the oldest queued read query has waited this long.
  uint32_t max_wait_micros = 200;
  /// Admission bound: queued (not yet flushed) read queries.
  uint32_t max_queue = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Implicit EDF deadline for deadline-free reads (see the file comment):
  /// the longest a deadline-free read can be out-ranked by urgent traffic.
  /// Missing the implicit deadline is not counted in deadline_missed.
  uint64_t no_deadline_slack_micros = 100'000;
  /// Fault-injection key of this session's `session.flush` /
  /// `session.flush-delay` sites (common/fault.h). The sharded frontend
  /// sets it to the session's REPLICA index, so one armed spec with a
  /// match key fails the same replica of every shard; standalone
  /// sessions keep the default 0.
  uint64_t fault_key = 0;
  /// Optional flush observer, invoked on the dispatcher thread as each
  /// read flush batch is composed (before it executes) with the batch's
  /// submission sequence numbers in flush order. A read's sequence number
  /// is its 0-based admission rank: the i-th read accepted into the queue
  /// has seq i. The span is valid only during the call. For tests and
  /// tracing; must not call back into the session.
  std::function<void(std::span<const uint64_t>)> on_flush;
};

/// Counters since construction. A consistent snapshot is returned by
/// QuerySession::stats().
struct SessionStats {
  uint64_t submitted = 0;   ///< read queries accepted into the queue
  uint64_t rejected = 0;    ///< read submissions refused (or invalid)
  uint64_t completed = 0;   ///< read queries whose futures were resolved
  uint64_t flushes = 0;     ///< read flush cycles dispatched
  uint64_t coalesced_batches = 0;  ///< per-(op,k,fraction) groups dispatched
  uint64_t writer_ops = 0;  ///< update work items applied
  /// Update submissions that carried a deadline envelope. Deadlines do
  /// not schedule writes (writes-first already runs every queued update
  /// before the next flush) — this is ops telemetry proving the envelope
  /// reached the session, which the sharded frontend's fan-out regression
  /// test (and dashboards watching for silently-dropped deadlines) read.
  uint64_t writer_deadline_carried = 0;
  /// Reads resolved after their requested deadline_micros (deadline-free
  /// reads never count). The answer is still delivered; this is the
  /// scheduling-quality counter the EDF order exists to minimize.
  uint64_t deadline_missed = 0;
  /// Submit→resolve wall latency percentiles over a sliding window of the
  /// most recent completed reads (see kLatencyWindow). Zero until the
  /// first read completes.
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
};

/// One streaming session over one index. See the file comment.
class QuerySession {
 public:
  /// `index` and `executor` must outlive the session. The executor may be
  /// shared with direct batch callers; session work rides the same pool.
  /// Sharing is deadlock-free by construction: a held ReadSnapshot is an
  /// epoch pin on an immutable version, so shard tasks queued behind
  /// direct-batch work never wait on a lock the held snapshot excludes —
  /// the index's read path takes no lock at all.
  QuerySession(GtsIndex* index, QueryExecutor* executor,
               SessionOptions options = {});
  /// Drains all submitted work, then stops the dispatcher.
  ~QuerySession();
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  // --- The unified entry point ------------------------------------------
  // One method serves all seven operations (serve/request.h). Reads
  // (Range/Knn/KnnApprox) are admission-controlled and dynamically
  // batched; a read failing serve::ValidRead (empty/multi-object query,
  // incompatible kind/dim, negative or NaN radius/bound, bad candidate
  // fraction) resolves immediately with kInvalidArgument and queue
  // overflow per the admission policy. A single read takes exactly the
  // SubmitBatch path.
  // `request.deadline_micros` (0 = none) asks for resolution within that
  // many microseconds of submission: urgent reads jump the queue, and a
  // read resolved late counts in SessionStats::deadline_missed (it is not
  // cancelled). Updates (Insert/Remove/BatchUpdate/Rebuild) are never
  // rejected; the dispatcher applies every queued update, in submission
  // order, before composing the next read flush.

  std::future<Response> Submit(Request request) EXCLUDES(mu_);

  /// Batched submission — Submit for a whole group of requests in one
  /// pass. Per-request semantics (validation, admission policy, deadline
  /// handling, response alternatives) are identical to Submit; what the
  /// batch amortizes is the queue entry: every admissible read of the
  /// group is enqueued under ONE lock acquisition and one dispatcher
  /// wake, where per-request Submit pays both per call. This is the
  /// sharded frontend's batched-scatter path. Caveats: all reads of the
  /// group share the call instant as their latency/deadline anchor, and
  /// under AdmissionPolicy::kBlock a full queue blocks the call
  /// mid-batch (already-enqueued group members may flush meanwhile).
  /// Updates in the group take the ordinary write path, in order.
  /// futures[i] corresponds to requests[i].
  std::vector<std::future<Response>> SubmitBatch(
      std::vector<Request> requests) EXCLUDES(mu_);

  /// Nudges the batcher: everything queued right now flushes without
  /// waiting for max_batch / max_wait_micros.
  void Flush() EXCLUDES(mu_);
  /// Blocks until every submission made before the call has completed.
  void Drain() EXCLUDES(mu_);

  /// Consistent snapshot of the counters and latency percentiles.
  SessionStats stats() const EXCLUDES(mu_);
  /// The index this session serves.
  const GtsIndex* index() const { return index_; }

  /// Completed-read latencies are aggregated over a ring of this many
  /// samples; stats() reports p50/p95 of the window.
  static constexpr size_t kLatencyWindow = 2048;

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingRead {
    enum class Kind { kRange, kKnn } kind = Kind::kRange;
    Dataset query = Dataset::Strings();  ///< exactly one object
    float radius = 0.0f;
    uint32_t k = 0;
    double candidate_fraction = 1.0;
    /// kNN initial pruning bound (KnnPayload::bound_cap; +inf = none).
    float bound_cap = std::numeric_limits<float>::infinity();
    uint64_t seq = 0;            ///< 0-based admission rank (EDF tie-break)
    bool has_deadline = false;   ///< explicit deadline (miss-counted)
    /// EDF key: the explicit deadline, or arrival + no_deadline_slack.
    Clock::time_point deadline;
    Clock::time_point enqueued_at;
    std::promise<Response> promise;
  };

  struct PendingWrite {
    enum class Kind { kInsert, kRemove, kBatchUpdate, kRebuild } kind =
        Kind::kRebuild;
    /// Insert object / batch-update inserts (placeholder kind until set).
    Dataset payload = Dataset::Strings();
    std::vector<uint32_t> removals;
    uint32_t remove_id = 0;
    std::promise<Response> promise;
  };

  /// Update path of Submit: translates the update payload and enqueues it
  /// for the dispatcher (never rejected while running). The deadline is
  /// telemetry only (SessionStats::writer_deadline_carried) —
  /// writes-first ordering already runs every queued update ahead of the
  /// next flush.
  std::future<Response> SubmitWrite(Request request) EXCLUDES(mu_);

  /// Translates a read payload into the internal work item, moving out of
  /// `payload`; the caller has checked Request::is_read().
  static PendingRead TranslateRead(RequestPayload* payload);
  /// Rejection response in the read's own alternative.
  static Response ReadError(const PendingRead& read, const Status& status);

  /// True when the read queue has admission room, waiting (kBlock) until
  /// it does; false when the submission must be rejected (kReject or
  /// stopping). Wakes the dispatcher before a kBlock wait so a backlog
  /// enqueued in the same (batched) call drains.
  bool AdmitRead() REQUIRES(mu_);
  /// Queue insertion of SubmitBatch: stamps the seq / deadline
  /// bookkeeping and pushes. `submitted_at` anchors the deadline and the
  /// latency sample at *submission*: under AdmissionPolicy::kBlock the
  /// admission wait is part of what the caller experiences, so it counts.
  /// The caller wakes the dispatcher.
  void EnqueueRead(PendingRead read, uint64_t deadline_micros,
                   Clock::time_point submitted_at) REQUIRES(mu_);

  void DispatchLoop() EXCLUDES(mu_);
  /// Runs one coalesced flush cycle; called off-lock on the dispatcher.
  void RunFlush(std::vector<PendingRead>* batch) EXCLUDES(mu_);
  /// Applies one update work item; called off-lock on the dispatcher.
  void RunWriter(PendingWrite* write);

  GtsIndex* index_;
  QueryExecutor* executor_;
  SessionOptions options_;

  mutable Mutex mu_;
  CondVar cv_dispatch_;  // dispatcher waits for work
  CondVar cv_space_;     // kBlock submitters wait for room
  CondVar cv_drained_;   // Drain() waits for quiescence
  std::deque<PendingRead> reads_ GUARDED_BY(mu_);
  std::vector<PendingWrite> writes_ GUARDED_BY(mu_);
  SessionStats stats_ GUARDED_BY(mu_);
  /// Admission rank of the next read.
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  /// Queued reads carrying a deadline.
  uint64_t queued_deadlines_ GUARDED_BY(mu_) = 0;
  /// Ring of recent completed-read ms.
  std::vector<double> latency_ms_ GUARDED_BY(mu_);
  size_t latency_next_ GUARDED_BY(mu_) = 0;
  bool flush_now_ GUARDED_BY(mu_) = false;
  /// Dispatcher is mid-flush / mid-write (off-lock).
  bool busy_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread dispatcher_;
};

}  // namespace gts::serve

#endif  // GTS_SERVE_QUERY_SESSION_H_
