// Hash-routed sharded serving — one corpus partitioned over N logical
// shards, each shard replicated over `replication_factor` GtsIndex
// replicas, behind the SAME unified entry point QuerySession has:
// Submit(serve::Request) -> std::future<serve::Response>. It is built the
// way Faiss-style multi-GPU serving composes (IndexShards/IndexReplicas):
// updates route to exactly one shard and fan out to ALL of its replicas,
// reads scatter to one replica per shard and gather through a
// deterministic merge, failing over to a sibling replica when the chosen
// one cannot serve.
//
//  - Updates (Insert/Remove/BatchUpdate): an insert routes by a stable
//    content hash of the object bytes (ShardForObject); a removal routes
//    by its id (the shard is recoverable from the global id, see below).
//    Rebuild fans out to every shard. Within the owning shard, the
//    update is submitted to EVERY replica under a per-shard write mutex,
//    so all replicas apply the same writes in the same order and stay
//    byte-identical (a routed insert gets the same local id everywhere).
//    Writes fan out regardless of replica health — an unhealthy replica
//    must not silently diverge. The gather demands an ack from every
//    replica: a PARTIAL ack (some replicas applied, some failed or lost
//    their ack) is an explicit kUnavailable naming the failed replica
//    set, never a silent success. A BatchUpdate's inserts are
//    compatibility-checked against every shard BEFORE any sub-update is
//    scattered, so a payload a single index would reject pre-mutation is
//    rejected here with no state change either; a shard failing MID
//    update (e.g. its memory budget) does not roll back its siblings —
//    cross-shard atomicity without a commit protocol is best-effort.
//  - Reads (Range/Knn/KnnApprox): PRUNED scatter/gather. Each shard
//    publishes a covering ball (GtsIndex::CoveringBall — a pivot object
//    plus a radius enclosing every alive object of the version), and the
//    frontend routes against it instead of scattering blindly:
//      * A range query skips every shard whose ball cannot intersect the
//        query ball — d(q, pivot_s) - radius_s > r, strictly, so a result
//        exactly at distance r can never be lost.
//      * An exact kNN query runs in two phases. Phase 1 submits only to
//        the seed shard (minimum lower bound d(q, pivot_s) - radius_s);
//        phase 2 takes the seed's k-th distance as a global upper bound
//        b, skips every remaining shard with lower bound strictly above
//        b, and submits to the rest with the bound as a search cap
//        (KnnPayload::bound_cap -> KnnOptions::initial_bounds). The
//        cap only tightens pruning: comparisons against it are strict, so
//        candidates tied at the bound survive, and capped shards may only
//        drop neighbors that provably cannot enter the global top-k.
//      * Approximate kNN still scatters to every shard: its per-shard
//        candidate budget already makes the sharded answer a different
//        (deterministic) approximation, and a bound would change it
//        again.
//    The surviving sub-queries of a SubmitBatch call are coalesced into
//    ONE batched submission per shard — to one replica of each shard,
//    chosen round-robin among the healthy replicas — and the per-shard
//    answers merge — through one merge routine for every read family —
//    in the canonical result order: ascending id for range, ascending
//    (dist, id) for kNN, the same total order GtsIndex::KnnQueryBatch
//    maintains internally. Selection by a total order commutes with
//    partitioning, so on a round-robin partition the merged result is
//    byte-identical to a single index over the whole corpus, and —
//    because replicas hold identical content — REGARDLESS of which
//    replica served each sub-query
//    (enforced by tests/serve_sharded_test.cc and
//    tests/serve_replica_test.cc). Only exact reads carry the
//    byte-identity guarantee. Pruning decisions are taken against each
//    shard's primary-replica version at planning time; a concurrently
//    published update lands in a later read's plan, the same freshness
//    contract any scatter has.
//  - Failover (replication_factor > 1): a sub-query whose replica
//    reports kUnavailable — or, when the read carries a deadline_micros
//    envelope, whose attempt exceeds its share of the remaining budget —
//    is retried on the next healthy replica of the shard, with a budget
//    of one attempt per replica. A failing replica is marked unhealthy
//    and stops receiving first-attempt reads; every `probe_period`-th
//    replica pick of its shard sends a probe its way, and one successful
//    answer restores it. With no healthy replica left, reads are served
//    anyway (degraded, counted in FrontendStats::degraded_reads) — a
//    marked-unhealthy replica may well recover. All failover traffic is
//    observable: FrontendStats::{failovers, read_retries,
//    unhealthy_transitions, health_probes, replica_recoveries}. The
//    deterministic fault-injection sites this machinery is tested
//    through are `shard.read` and `shard.write-ack` here, keyed by
//    REPLICA index (common/fault.h), plus the per-session `session.flush`
//    sites each replica session carries.
//
// Global id mapping. Shard-local object ids interleave into one global id
// space: global = local * N + shard (N = num_shards). Build the shards as
// a round-robin partition — object g of the corpus on shard g % N, i.e.
// shards[s] holds objects s, s+N, s+2N, ... in order — and global ids
// coincide with the unsharded corpus ids; routed inserts keep the mapping
// consistent (a new local id l on shard s becomes global l*N + s, and the
// per-shard write ordering gives the SAME local id on every replica).
//
// The gather side of a read resolves lazily: the returned future is
// deferred, and get()/wait() performs the per-shard gathers, failover
// retries, and the merge on the calling thread. The per-shard work itself
// is driven by the shard sessions regardless; only the merge waits for
// the caller. (Deferred futures report std::future_status::deferred from
// wait_for/wait_until and never turn ready — use get()/wait(), not
// readiness polling.) The frontend must outlive every returned future's
// consumption.
//
// Thread-safety: Submit may be called from any number of threads. The
// shard indexes must outlive the frontend; destroying the frontend drains
// every replica session.
#ifndef GTS_SERVE_SHARDED_FRONTEND_H_
#define GTS_SERVE_SHARDED_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/gts.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/request.h"

namespace gts::serve {

struct FrontendOptions {
  /// Per-replica batcher/admission configuration; every replica's
  /// QuerySession is constructed from this one template (its fault_key
  /// is overwritten with the replica index). Note the admission bound is
  /// per replica session: a scatter read occupies one queue slot on one
  /// replica of EVERY shard it reaches.
  SessionOptions session;
  /// Worker threads of the shared pool all replica flushes run on.
  /// 0 = std::thread::hardware_concurrency() (at least 1).
  uint32_t executor_threads = 4;
  /// Health probing cadence: every `probe_period`-th replica pick of a
  /// shard is offered to an unhealthy replica (if any) instead of the
  /// round-robin healthy choice, so a recovered replica is rediscovered.
  /// 0 disables probing (unhealthy replicas only serve degraded reads).
  uint32_t probe_period = 8;
};

/// Whole-frontend counters: per-replica session stats plus sums. A
/// scatter read counts once per sub-query on the replica session that
/// served it; routed updates count once per REPLICA of their home shard
/// (writes fan out). The replication counters are the failover story:
/// every retried read, health transition, probe, and degraded pick is
/// accounted here (and asserted on by tests/serve_replica_test.cc).
struct FrontendStats {
  /// One entry per replica session, shard-major: replica r of shard s is
  /// shards[s * replication_factor + r]. At replication_factor 1 this is
  /// exactly the per-shard vector it always was.
  std::vector<SessionStats> shards;
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t writer_ops = 0;
  uint64_t deadline_missed = 0;
  /// Valid reads the frontend planned a scatter for (one per read, not
  /// per shard).
  uint64_t scatter_reads = 0;
  /// Per-shard sub-queries the covering-ball planner skipped. For every
  /// planned read, submitted sub-queries + pruned sub-queries = N shards
  /// (exact kNN counts its phase-2 skips here too), so the pruned
  /// fraction is pruned_shard_queries / (scatter_reads * N).
  uint64_t pruned_shard_queries = 0;
  /// Replicas per shard (1 = unreplicated).
  uint32_t replication_factor = 1;
  /// Sub-queries that needed at least one failover retry.
  uint64_t failovers = 0;
  /// Total failover resubmissions (>= failovers).
  uint64_t read_retries = 0;
  /// healthy -> unhealthy replica transitions.
  uint64_t unhealthy_transitions = 0;
  /// First-attempt picks deliberately offered to an unhealthy replica.
  uint64_t health_probes = 0;
  /// unhealthy -> healthy transitions (a probe or retry succeeded).
  uint64_t replica_recoveries = 0;
  /// Replica picks made with NO healthy replica in the shard.
  uint64_t degraded_reads = 0;
  /// Write fan-outs where SOME but not all replicas acked (reported to
  /// the caller as kUnavailable with the failed replica set).
  uint64_t partial_write_acks = 0;
};

/// The sharded, replicated front door. See the file comment.
class ShardedFrontend {
 public:
  /// `shards[s]` lists the replicas of shard `s` (one entry for an
  /// unreplicated shard), all holding IDENTICAL content (same objects,
  /// same local ids — build them from the same slice, and route all
  /// updates through the frontend so they stay identical). Every index
  /// must outlive the frontend. Every shard needs at least one replica
  /// and every shard the SAME replica count; a malformed layout yields a
  /// frontend with no shards (every submission errors). For the
  /// global-id mapping to reproduce corpus ids, build the shards as the
  /// round-robin partition described in the file comment.
  explicit ShardedFrontend(std::vector<std::vector<GtsIndex*>> shards,
                           FrontendOptions options = {});
  /// Drains every replica session, then stops the shared pool.
  ~ShardedFrontend();
  ShardedFrontend(const ShardedFrontend&) = delete;
  ShardedFrontend& operator=(const ShardedFrontend&) = delete;

  /// The unified entry point: routes updates, scatters/gathers reads.
  /// Routing is by hash and id, not caller choice. Read responses use
  /// frontend-global ids.
  std::future<Response> Submit(Request request);

  /// Batched entry point: plans every read of the group in one pass and
  /// coalesces the surviving sub-queries into ONE batched submission per
  /// shard (to that shard's picked replica) — one admission lock pass
  /// and one dispatcher wake per shard for the whole group, instead of
  /// per read per shard. Updates in the group take the same routed path
  /// as Submit. Futures are returned in request order; each resolves
  /// independently.
  std::vector<std::future<Response>> SubmitBatch(
      std::vector<Request> requests);

  /// Nudges every replica session's batcher (QuerySession::Flush).
  void Flush();
  /// Blocks until every submission made before the call has completed,
  /// across all shards and replicas. Deferred read futures may still
  /// await their caller's get(); the underlying per-shard answers are
  /// resolved.
  void Drain();

  /// Whole-frontend counters snapshot (one session lock per replica; not
  /// a single atomic cut across shards).
  FrontendStats stats() const;

  /// Mounted shards.
  uint32_t num_shards() const {
    return static_cast<uint32_t>(groups_.size());
  }
  /// Replicas per shard (0 for an empty frontend).
  uint32_t replication_factor() const;
  /// Direct access to one shard's PRIMARY (replica 0) session (tests,
  /// single-shard flushes); null for an unknown shard id. Owned by the
  /// frontend.
  QuerySession* session(uint32_t shard) { return session(shard, 0); }
  /// Direct access to one replica's session; null for unknown ids.
  QuerySession* session(uint32_t shard, uint32_t replica);

  // --- Global id mapping (see the file comment) -------------------------

  /// The global id of shard-local object `local` on `shard`. Unchecked
  /// convenience for tests and round-trip math; the gather paths remap
  /// through ComposeGlobalId, which range-checks.
  uint32_t GlobalId(uint32_t shard, uint32_t local) const {
    return local * num_shards() + shard;
  }
  /// The checked global-id composition every merge path uses: the product
  /// is carried in 64 bits and an id beyond the 32-bit global id space is
  /// an explicit kInvalidArgument, not a silent wrap (a shard near the
  /// 2^32 / N boundary would otherwise alias a small id).
  static Result<uint32_t> ComposeGlobalId(uint64_t local, uint32_t shard,
                                          uint32_t num_shards);
  /// The shard a global id lives on.
  uint32_t ShardOfId(uint32_t global_id) const {
    return global_id % num_shards();
  }
  /// The shard-local id of a global id.
  uint32_t LocalId(uint32_t global_id) const {
    return global_id / num_shards();
  }
  /// The shard an insert of object `idx` of `src` routes to: a stable
  /// FNV-1a hash of the object bytes, independent of submission order and
  /// of the process. Exposed so callers (and tests) can predict routing.
  uint32_t ShardForObject(const Dataset& src, uint32_t idx) const;

 private:
  struct KnnScatter;  // shared gather state of one batch's exact-kNN reads

  /// One shard's replica set: the sessions, their health flags, the
  /// round-robin read cursor, and the write-ordering mutex (held while a
  /// routed update is enqueued to ALL replicas, so every replica applies
  /// the same writes in the same order and local ids never diverge).
  struct ReplicaGroup {
    explicit ReplicaGroup(size_t rf) : healthy(rf) {}
    std::vector<std::unique_ptr<QuerySession>> replicas;
    /// healthy[r]: replica r serves first-attempt reads. Writes ignore
    /// health (divergence is worse than a failed ack).
    std::vector<std::atomic<bool>> healthy;
    std::atomic<uint32_t> rr{0};     ///< first-attempt pick cursor
    std::atomic<uint32_t> picks{0};  ///< probe cadence counter
    /// Ordering capability, not a data guard: held across the full
    /// submit-to-all-replicas span of FanWrite so every replica enqueues
    /// this shard's updates in the same sequence. No fields hang off it.
    Mutex write_mu;
  };

  /// One sub-query's failover state: the shard, the replica currently
  /// serving it, the kept request (resubmitted verbatim on failover),
  /// and the in-flight future.
  struct SubRead {
    uint32_t shard = 0;
    uint32_t replica = 0;
    Request request;
    std::future<Response> future;
  };

  /// The phase-2 driver: a frontend thread that pops each batch's
  /// KnnScatter group in submission order and runs its phase 2 (wait for
  /// the seeds, derive the bounds, submit the capped fan-out) as soon as
  /// the seed results land — WITHOUT waiting for any caller to gather.
  /// Successive groups' phase-2 sub-queries therefore coalesce in the
  /// shard batchers and their flushes overlap, instead of serializing
  /// behind a caller that gathers groups one at a time. Gather keeps its
  /// own idempotent RunPhase2 fallback, so correctness never depends on
  /// the driver's progress. Kept on measurement: without it, batched
  /// sharded kNN throughput drops (docs/ARCHITECTURE.md, sharded reads).
  void DriverLoop() EXCLUDES(driver_mu_);

  /// First-attempt replica pick for one shard's scatter wave:
  /// round-robin among the healthy replicas, with every probe_period-th
  /// pick offered to an unhealthy one (health probe), and a degraded
  /// pick when nothing is healthy.
  uint32_t PickReplica(uint32_t shard);
  /// Failover pick: the next healthy replica after `after` (wrapping),
  /// or simply the next replica (degraded) when none is healthy.
  uint32_t NextReplica(uint32_t shard, uint32_t after);
  /// Publishes one attempt's outcome into the replica's health flag and
  /// the transition counters.
  void MarkReplicaResult(uint32_t shard, uint32_t replica, bool served);
  /// Resolves one sub-query WITH failover: waits for the current
  /// attempt (bounded by the request's per-attempt deadline share when
  /// it carries one), retries kUnavailable / timed-out attempts on the
  /// next replica — one attempt per replica of the shard — and maintains
  /// replica health. Runs on the gathering thread.
  Response AwaitRead(SubRead* sub);
  /// Submits one shard's coalesced sub-query wave to the shard's picked
  /// replica (ONE batched SubmitBatch) and returns the failover-capable
  /// SubReads; the kept request copies power AwaitRead's resubmission
  /// (skipped for an unreplicated shard — nothing to fail over to).
  std::vector<SubRead> SubmitShardWave(uint32_t shard,
                                       std::vector<Request> requests);

  /// Routes one update request (Insert/Remove/BatchUpdate/Rebuild).
  std::future<Response> SubmitUpdate(Request request);
  /// Submits a copy of `request` to EVERY replica of `shard` under the
  /// group's write mutex; returns the per-replica ack futures in replica
  /// order.
  std::vector<std::future<Response>> FanWrite(uint32_t shard,
                                              const Request& request);
  /// The one write-ack gather: waits for one shard's per-replica acks
  /// and returns Ok iff every replica acked. Applies the
  /// `shard.write-ack` fault per replica (a lost ack becomes an
  /// unavailable reply). A partial ack set is an explicit kUnavailable
  /// naming the failed replicas; a unanimous identical rejection (every
  /// replica refused with the same non-unavailable code, e.g. an invalid
  /// payload) passes through unchanged — the rejection IS the answer.
  /// `replies` (optional) receives the replies in replica order, for
  /// Insert's local-id check. Runs on the gathering thread.
  Status GatherAcks(uint32_t shard, std::vector<std::future<Response>>* acks,
                    std::vector<Response>* replies = nullptr);
  /// Deferred whole-scatter ack gather: first failing shard's status (by
  /// shard order), through GatherAcks per shard.
  std::future<Response> GatherStatus(
      std::vector<std::vector<std::future<Response>>> acks);

  FrontendOptions options_;
  /// Declared before the groups so sessions (whose flushes use the
  /// pool) are destroyed first.
  std::unique_ptr<QueryExecutor> executor_;
  std::vector<std::unique_ptr<ReplicaGroup>> groups_;
  /// FrontendStats counters (relaxed; stats() reads them alongside the
  /// per-replica session snapshots).
  std::atomic<uint64_t> scatter_reads_{0};
  std::atomic<uint64_t> pruned_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> unhealthy_transitions_{0};
  std::atomic<uint64_t> health_probes_{0};
  std::atomic<uint64_t> replica_recoveries_{0};
  std::atomic<uint64_t> degraded_reads_{0};
  std::atomic<uint64_t> partial_write_acks_{0};

  /// Phase-2 driver state (see DriverLoop). The queue holds the groups
  /// whose phase 2 has not been driven yet; the destructor stops the
  /// driver before draining the sessions.
  Mutex driver_mu_;
  CondVar driver_cv_;
  std::deque<std::shared_ptr<KnnScatter>> driver_queue_ GUARDED_BY(driver_mu_);
  bool driver_stop_ GUARDED_BY(driver_mu_) = false;
  std::thread driver_;
};

}  // namespace gts::serve

#endif  // GTS_SERVE_SHARDED_FRONTEND_H_
