// GtsIndex — the paper's primary contribution: a GPU-resident pivot-based
// balanced tree stored as contiguous tables, with level-synchronous batched
// similarity search, a memory-bounded two-stage query strategy, LSM-style
// streaming updates through a cache table, and batch updates via full
// parallel reconstruction.
//
// Thread-safety: reads are lock-free. All index state a query touches
// (dataset, tree tables, liveness, cache table) lives in an immutable
// Version published behind an atomic pointer; a query pins an epoch guard,
// loads the current version, and runs entirely against that version — it
// never blocks on, and is never blocked by, the update strategies. Updates
// (Insert/Remove/BatchUpdate/Rebuild) serialize on a writer-only mutex,
// build replacement state beside the live version (copy-on-write for
// streaming updates, full build-beside for reconstruction), publish it with
// one atomic pointer swap, and retire the superseded version through an
// epoch-reclamation domain (common/epoch.h) that frees it once the last
// pinned reader releases. See serve/query_executor.h for the
// multi-threaded batch executor and serve/query_session.h for the
// streaming (per-query) submission front door with admission control.
//
// Typical use:
//   auto device = std::make_unique<gpu::Device>();
//   auto metric = MakeMetric(MetricKind::kL2);
//   auto index  = GtsIndex::Build(std::move(data), metric.get(),
//                                 device.get(), GtsOptions{});
//   auto res    = index.value()->RangeQueryBatch(queries, radii);
#ifndef GTS_CORE_GTS_H_
#define GTS_CORE_GTS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/cache_list.h"
#include "core/node.h"
#include "gpu/device.h"
#include "metric/dataset.h"
#include "metric/distance.h"
#include "metric/soa.h"

namespace gts {

/// One kNN answer.
struct Neighbor {
  uint32_t id;
  float dist;
};

/// Per-query result containers for batched queries.
using RangeResults = std::vector<std::vector<uint32_t>>;
using KnnResults = std::vector<std::vector<Neighbor>>;

struct GtsOptions {
  /// Node capacity Nc — the fan-out that trades pruning power for
  /// parallelism (paper §5.3; default from the paper's Fig. 6 finding).
  uint32_t node_capacity = 20;
  /// Seed for the random first pivot (paper §4.3: FFT's initial pivot).
  uint64_t seed = 42;
  /// Streaming-update cache-table budget; overflowing it triggers a full
  /// parallel rebuild (paper §4.4; Table 5 recommends ~5 KB).
  uint64_t cache_capacity_bytes = 5 * 1024;
  /// Rebuild when more than this fraction of indexed objects is tombstoned.
  double max_tombstone_fraction = 0.5;
  /// FFT pivot selection uses up to this many ancestor pivots as the
  /// reference set (parent distances are already cached in the table list).
  uint32_t fft_ancestors = 2;
};

/// Aggregate counters exposed for tests, benchmarks and the cost model.
struct GtsQueryStats {
  uint64_t distance_computations = 0;  ///< exact distances evaluated
  uint64_t nodes_visited = 0;          ///< frontier entries expanded
  uint64_t objects_verified = 0;       ///< leaf objects distance-checked
  uint64_t query_groups = 0;           ///< two-stage groups processed
  uint64_t nodes_pruned = 0;           ///< children cut by the ring bounds

  bool operator==(const GtsQueryStats&) const = default;
  GtsQueryStats& operator+=(const GtsQueryStats& o) {
    distance_computations += o.distance_computations;
    nodes_visited += o.nodes_visited;
    objects_verified += o.objects_verified;
    query_groups += o.query_groups;
    nodes_pruned += o.nodes_pruned;
    return *this;
  }
};

/// Per-call options of GtsIndex::KnnQueryBatch. The defaults are the
/// exact query.
struct KnnOptions {
  /// Approximate MkNNQ (the paper's §7 future-work direction): leaf
  /// verification examines only the best `candidate_fraction` of each
  /// query's surviving candidates (ascending annulus-gap order, never
  /// fewer than 2k), trading recall for throughput. Must be in (0, 1];
  /// 1.0 is the exact query.
  double candidate_fraction = 1.0;
  /// Per-query initial pruning bounds: empty (no bounds) or one
  /// non-negative value per query, a caller-proven upper bound on that
  /// query's k-th nearest distance (+inf = none). The descent prunes
  /// against min(bound, running k-th) instead of the running k-th alone,
  /// so a tight bound cuts subtrees and leaf candidates the cold-started
  /// search would still expand. A query with a finite bound also skips the
  /// nearest-ring probe that seeds an unbounded query's running k-th before
  /// the descent (search_knn.cc): the caller has already paid for a bound,
  /// and re-probing every shard of a scatter would charge each shard a
  /// probe. The result contract weakens only beyond
  /// the bound: every true top-k member with distance <= the bound is
  /// present, in canonical (dist, id) order; entries with distance > the
  /// bound may be missing or replaced (by the caller's premise they cannot
  /// matter). With +inf bounds the result is byte-identical to the
  /// unbounded query — all ring/gap comparisons are strict, so candidates
  /// AT the bound always survive. This is the shared cross-shard bound of
  /// the sharded frontend's refined scatter (serve/sharded_frontend.h).
  std::span<const float> initial_bounds = {};
};

/// A ball covering every alive object of one published version: d(pivot,
/// x) <= radius for all alive x. The pivot is a dataset-resident object id
/// (the tree's root pivot when there is one), NOT necessarily alive — the
/// ball only needs to cover. Maintained conservatively: rebuilds and batch
/// updates recompute it exactly, a streaming insert grows the radius by
/// one distance, a streaming remove leaves it untouched (over-covering is
/// safe, it can only under-prune). `valid` is false only when the version
/// has never held an object. The sharded frontend lifts the paper's
/// triangle-inequality pruning to the shard level with this:
/// d(q, pivot) - radius > r proves the shard holds no range hit
/// (serve/sharded_frontend.h).
struct CoveringBall {
  bool valid = false;
  uint32_t pivot = 0;
  float radius = 0.0f;
};

/// The paper's GPU-tree index. See the file comment for the design and the
/// thread-safety contract; docs/ARCHITECTURE.md places it in the system.
class GtsIndex {
 private:
  struct Version;  // one immutable published state; defined below

 public:
  /// Builds the index over `data` (the index takes ownership; updates
  /// publish grown copies as new versions). `metric` and `device` must
  /// outlive the index. An object with a NaN or infinite coordinate is
  /// kInvalidArgument, as it is for Insert and BatchUpdate.
  static Result<std::unique_ptr<GtsIndex>> Build(Dataset data,
                                                 const DistanceMetric* metric,
                                                 gpu::Device* device,
                                                 const GtsOptions& options);

  /// Releases the index's device-resident reservation and frees every
  /// version still in the epoch domain's limbo list. No ReadSnapshot may
  /// outlive the index.
  ~GtsIndex();
  GtsIndex(const GtsIndex&) = delete;
  GtsIndex& operator=(const GtsIndex&) = delete;

  // --- Queries (lock-free read path) ------------------------------------
  // The batched queries are const and data-race-free: all per-call scratch
  // lives in a per-call context, so any number of threads may query one
  // index concurrently. Each call pins an epoch guard, loads the current
  // version, and runs wholly against it — no lock is taken, and a
  // concurrent update (which publishes a *new* version) can neither block
  // the query nor mutate anything it reads. A query therefore always
  // observes one consistent version of the tree, liveness and cache tables.
  // When `stats_out` is non-null it receives this call's counters; the
  // aggregate query_stats() is maintained either way (atomically). A batch
  // holding a query with a NaN or infinite coordinate is kInvalidArgument.

  /// Batched metric range query (Algorithm 4). `radii[i]` is the radius of
  /// query object `i` of `queries`. Exact.
  Result<RangeResults> RangeQueryBatch(const Dataset& queries,
                                       std::span<const float> radii,
                                       GtsQueryStats* stats_out = nullptr) const;

  /// Batched metric k-nearest-neighbour query (Algorithm 5). Exact under
  /// the default `options`. Each per-query result is ascending by (dist,
  /// id) — distance ties break toward the smaller object id. The canonical
  /// order is part of the result contract: it makes per-shard top-k lists
  /// of a partitioned corpus merge back byte-identically
  /// (serve::ShardedFrontend). KnnOptions selects the approximate mode and
  /// the per-query initial bounds; invalid options are kInvalidArgument.
  Result<KnnResults> KnnQueryBatch(const Dataset& queries, uint32_t k,
                                   GtsQueryStats* stats_out = nullptr,
                                   const KnnOptions& options = {}) const;

  /// Single-query conveniences over the same per-call context path: query
  /// object `idx` of `queries`, one result vector. Results are identical to
  /// the corresponding entry of a batched call (each query's descent
  /// depends only on its own state). The streaming serve layer
  /// (serve/query_session.h) is the batching front door for callers with
  /// many independent single queries.
  Result<std::vector<uint32_t>> RangeQuery(const Dataset& queries,
                                           uint32_t idx, float radius,
                                           GtsQueryStats* stats_out = nullptr) const;
  Result<std::vector<Neighbor>> KnnQuery(const Dataset& queries, uint32_t idx,
                                         uint32_t k,
                                         GtsQueryStats* stats_out = nullptr) const;

  /// A pinned read view with cross-batch snapshot semantics: holds an
  /// epoch guard on the version that was current at construction, so
  /// *every* query through it — any number, from any thread — observes
  /// exactly that version, byte for byte, no matter how many updates or
  /// rebuilds land while it is held. (A plain multi-batch or multi-shard
  /// sequence has no such guarantee: an update can publish a new version
  /// between two calls.) Acquiring a snapshot never blocks and never
  /// delays a writer; the superseded version is simply kept alive until
  /// the snapshot is released. The guard is thread-agnostic — the
  /// snapshot may be created on one thread, queried from many, and
  /// destroyed on another, which is how the streaming serve layer fans a
  /// flush cycle out over a worker pool. Holding a snapshot across calls
  /// to the update strategies is allowed from any thread, including the
  /// holding thread (no self-deadlock: updates only wait for each other).
  class ReadSnapshot {
   public:
    ReadSnapshot(ReadSnapshot&&) = default;
    ReadSnapshot& operator=(ReadSnapshot&&) = default;
    ReadSnapshot(const ReadSnapshot&) = delete;
    ReadSnapshot& operator=(const ReadSnapshot&) = delete;

    /// Batched range query through the pinned version.
    Result<RangeResults> RangeQueryBatch(
        const Dataset& queries, std::span<const float> radii,
        GtsQueryStats* stats_out = nullptr) const;
    /// Batched kNN query through the pinned version (GtsIndex::
    /// KnnQueryBatch, same options).
    Result<KnnResults> KnnQueryBatch(const Dataset& queries, uint32_t k,
                                     GtsQueryStats* stats_out = nullptr,
                                     const KnnOptions& options = {}) const;

    // Introspection through the pinned version. Unlike the index's live
    // accessors (which report the current version at each call), these
    // read the snapshot's own version and are therefore stable and
    // mutually consistent with each other and with the snapshot's queries
    // under any concurrent updates. The sharded frontend plans a batch
    // against one snapshot per shard this way.

    /// Total objects ever stored (including tombstoned ones).
    uint32_t size() const;
    /// Objects alive (not tombstoned) in this version.
    uint32_t alive_size() const;
    /// Tree height of this version.
    uint32_t height() const;
    /// Cache-table entries of this version.
    uint32_t cache_size() const;
    /// Rebuilds the index had performed when this version was published.
    uint64_t rebuild_count() const;
    /// This version's covering ball (see CoveringBall).
    CoveringBall covering_ball() const;
    /// Distance from query object `idx` of `queries` to object `id` of
    /// the pinned version's dataset — the sharded frontend's shard-routing
    /// probe against the covering-ball pivot. Charged to the device clock
    /// as one concurrent single-distance kernel, and counted in the
    /// aggregate query stats, exactly like a query's own distance
    /// evaluations. `id` must be < size() (tombstoned ids are fine: the
    /// dataset keeps their bytes).
    float RoutingDistance(const Dataset& queries, uint32_t idx,
                          uint32_t id) const;

    /// Declares every subsequent query through this snapshot part of ONE
    /// concurrent device dispatch wave: each call's private sub-timeline
    /// is anchored at the device-clock reading taken HERE, so the wave
    /// folds into the shared clock as its parallel makespan (max of the
    /// per-call times) no matter how the host happens to schedule the
    /// calling threads. Without the anchor each call starts at whatever
    /// the clock reads when its thread runs — on a host with fewer cores
    /// than callers the calls serialize in wall time and their modeled
    /// times SUM, turning a logically concurrent fan-out into a
    /// host-dependent number. The serving flush cycle (one batch split
    /// over pool workers) and the sharded frontend's planning probes are
    /// exactly such waves and anchor their snapshots.
    ///
    /// Only anchor calls that really are concurrent: sequential queries
    /// through an anchored snapshot fold too, under-charging serial work.
    /// Re-anchor (or use a fresh snapshot) for each successive wave.
    void AnchorClock();
    /// The underlying index (for identity checks; updates through it are
    /// safe but invisible to this snapshot).
    const GtsIndex* index() const { return index_; }

   private:
    friend class GtsIndex;
    explicit ReadSnapshot(const GtsIndex* index);

    const GtsIndex* index_;
    epoch::Guard guard_;       // pinned BEFORE version_ is loaded
    const Version* version_;
    double anchor_ns_ = -1.0;  // < 0 = unanchored (see AnchorClock)
  };

  /// Pins the current version and returns the read view. Never blocks —
  /// not even while a rebuild is in flight (the rebuild runs beside the
  /// published version and swaps in afterwards).
  ReadSnapshot SnapshotForRead() const { return ReadSnapshot(this); }

  // --- Updates (serialized writers) -------------------------------------
  // Update calls serialize on the writer-only mutex, never on readers.
  // Each builds its successor state beside the published version —
  // copy-on-write of the touched components for the streaming strategies,
  // a full build-beside for reconstruction — publishes it with one atomic
  // swap, and retires the superseded version through the epoch domain. A
  // failed update publishes nothing: the current version is unchanged.

  /// Streaming insert: copies object `idx` of `src` into the cache table
  /// (O(1) modeled device cost); rebuilds when the cache budget overflows.
  /// On the host the new version shares the tree and the dataset payload
  /// (the object is appended in place, see metric/dataset.h) and copies
  /// the liveness bits (n/8 bytes) and the cache list. Returns the new id.
  /// An incompatible `src`, an `idx` past its end or an object with a NaN
  /// or infinite coordinate is kInvalidArgument.
  Result<uint32_t> Insert(const Dataset& src, uint32_t idx)
      EXCLUDES(writer_mu_);

  /// Streaming delete: removes from the cache when present, otherwise
  /// tombstones the table-list entry (O(1) modeled device cost). On the
  /// host the new version shares the tree and the dataset and copies the
  /// liveness bits (n/8 bytes) and the cache list.
  Status Remove(uint32_t id) EXCLUDES(writer_mu_);

  /// Batch update: applies all removals and inserts, then reconstructs the
  /// index with the parallel builder (paper §4.4 "Batch Updates"). The
  /// whole batch lands in one published version: a concurrent reader sees
  /// either none of it or all of it.
  Status BatchUpdate(const Dataset& inserts,
                     std::span<const uint32_t> removals) EXCLUDES(writer_mu_);

  /// Forces full reconstruction over the alive objects. Double-buffered:
  /// the new tree is built beside the published version (readers keep
  /// querying the old tables at full speed) and swapped in at the end.
  Status Rebuild() EXCLUDES(writer_mu_);

  /// Persists the complete index state (options, dataset, tree tables,
  /// liveness, cache) to a binary file. Serializes one pinned version —
  /// consistent under concurrent updates, and never blocking them.
  Status SaveTo(const std::string& path) const;

  /// Restores an index saved with SaveTo. `metric` must match the saved
  /// metric kind; the restored index takes a device-resident reservation
  /// on `device`.
  static Result<std::unique_ptr<GtsIndex>> Load(const std::string& path,
                                                const DistanceMetric* metric,
                                                gpu::Device* device);

  // --- Introspection ----------------------------------------------------
  // Each value accessor pins the current version for the duration of the
  // call, so it is safe under concurrent updates — but two successive
  // calls may observe different versions. Read through a ReadSnapshot for
  // a mutually consistent set.

  /// Tree height (layers).
  uint32_t height() const;
  /// Node capacity Nc the index was built with.
  uint32_t node_capacity() const { return options_.node_capacity; }
  /// Nodes in the tree (the 1-based node list minus its unused slot 0).
  uint64_t num_nodes() const;
  /// Total objects ever stored (including tombstoned ones).
  uint32_t size() const;
  /// Objects alive (not tombstoned).
  uint32_t alive_size() const;
  /// Entries currently in the streaming-update cache table.
  uint32_t cache_size() const;
  /// Full reconstructions performed since construction.
  uint64_t rebuild_count() const;
  /// Whether object `id` is alive (in the current version).
  bool IsAlive(uint32_t id) const;
  /// The covering ball of the current version (see CoveringBall).
  CoveringBall covering_ball() const;

  /// Index storage footprint: node list + table list + cache table
  /// (excluding the dataset payload).
  uint64_t IndexBytes() const;
  /// Device-resident bytes including the dataset payload.
  uint64_t DeviceResidentBytes() const;

  /// Data kind of the indexed corpus. Immutable for the index's lifetime
  /// (updates must insert compatible objects), so callers may validate
  /// incoming queries against it with no synchronization at all — the
  /// serve layers do exactly that off their dispatcher threads.
  DataKind data_kind() const { return data_kind_; }
  /// Dimensionality of the indexed corpus (0 for non-vector kinds).
  /// Immutable, like data_kind().
  uint32_t data_dim() const { return data_dim_; }
  /// Whether `d`'s objects could be inserted into / queried against this
  /// index. Equivalent to Dataset::CompatibleWith on the indexed corpus,
  /// but reads only the immutable kind/dim — safe with zero sync.
  bool CompatibleData(const Dataset& d) const {
    return d.kind() == data_kind_ && d.dim() == data_dim_;
  }

  // Reference accessors into the current version. The returned
  // references/spans are valid until the next update call publishes a new
  // version; callers needing stability under concurrent updates must hold
  // a ReadSnapshot for the duration instead (tests and single-threaded
  // tools use these directly).

  /// The indexed dataset of the current version.
  const Dataset& data() const;
  /// The simulated device the index charges kernel time to.
  gpu::Device* device() const { return device_; }
  /// Node `id` of the contiguous node list (1-based).
  const GtsNode& node(uint64_t id) const;
  /// The table list's object column (leaf object ids, by node slot).
  std::span<const uint32_t> table_objects() const;
  /// The table list's distance column (d(object, parent pivot)).
  std::span<const float> table_dis() const;

  /// Snapshot of the aggregate query counters (accumulated atomically
  /// across all concurrent query calls since the last reset).
  GtsQueryStats query_stats() const;
  /// Zeroes the aggregate query counters.
  void ResetQueryStats();

  // --- Test hooks -------------------------------------------------------

  /// The writer mutex, for tests that lock it directly (gts::MutexLock)
  /// to stall every update strategy. Reads must still complete while it is
  /// held — tests/gts_snapshot_test.cc holds it across a full query batch
  /// to prove the read path never touches the writer lock.
  Mutex* WriterMutexForTest() RETURN_CAPABILITY(writer_mu_) {
    return &writer_mu_;
  }

  /// Superseded versions handed to the epoch domain since construction.
  uint64_t versions_retired() const { return epoch_.retired_count(); }
  /// Superseded versions actually freed (release of the last guard that
  /// could observe a version makes it reclaimable).
  uint64_t versions_reclaimed() const { return epoch_.reclaimed_count(); }

 private:
  GtsIndex(const DistanceMetric* metric, gpu::Device* device,
           const GtsOptions& options, DataKind data_kind, uint32_t data_dim);

  // --- Versioned state ---------------------------------------------------
  // Everything a query reads is bundled into an immutable Version behind
  // `current_`. Components are individually shared_ptr'd so an update can
  // copy only what it touches. A streaming write (Insert/Remove) copies the
  // liveness bits (n/8 bytes) and the cache list (bounded by the cache
  // budget) and shares the tree tables. A Remove shares the dataset; an
  // Insert copies it in O(1), because dataset copies share one append-only
  // payload and the successor's append lands past every slot a reader of
  // the predecessor reads (metric/dataset.h). The flat GPU-table layout
  // makes the tree one component — per-node copy-on-write would degenerate
  // to copying the contiguous tables anyway.

  /// The tree: contiguous node list (1-based; slot 0 unused) + table list.
  struct TreeTables {
    std::vector<GtsNode> node_list;
    std::vector<uint32_t> tl_object;
    std::vector<float> tl_dis;
    /// Lane-packed (SoA) mirror of the indexed objects in tl_object order,
    /// so a leaf's slot range [pos, pos+size) is a contiguous lane range
    /// and verification scores a whole node with one block-kernel call
    /// (metric/kernels.h). Built once per (re)build/load — immutable like
    /// the rest of the tables — and a host-side execution detail: it is
    /// deliberately absent from IndexBytesOf's modeled device footprint.
    SoaPack pack;
    uint32_t height = 1;
    uint32_t indexed_count = 0;  ///< objects covered by the tree
  };

  /// Liveness and tombstone accounting: one bit per object id, so a
  /// streaming write copies n/8 bytes of it. `bits` holds ceil(n / 64)
  /// words for the n objects of the version's dataset; bits past n are 0.
  struct Liveness {
    std::vector<uint64_t> bits;  ///< bit id % 64 of word id / 64: id alive
    uint32_t alive_count = 0;
    uint32_t tombstones_in_tree = 0;

    bool alive(uint32_t id) const { return (bits[id / 64] >> (id % 64)) & 1; }
    /// Marks `id` alive; `id` may be the next id past the array's end.
    void MarkAlive(uint32_t id) {
      if (id / 64 == bits.size()) bits.push_back(0);
      bits[id / 64] |= uint64_t{1} << (id % 64);
    }
    void MarkDead(uint32_t id) { bits[id / 64] &= ~(uint64_t{1} << (id % 64)); }
  };

  /// One immutable published state of the index. Readers hold it via an
  /// epoch guard; the writer retires it when a successor is published.
  struct Version {
    std::shared_ptr<const Dataset> data;
    std::shared_ptr<const TreeTables> tree;
    std::shared_ptr<const Liveness> live;
    std::shared_ptr<const CacheList> cache;
    uint64_t rebuild_count = 0;
    uint64_t resident_bytes = 0;  ///< device reservation backing this version
    uint64_t version_id = 0;      ///< monotonically increasing publication id
    /// Ball covering every alive object (see CoveringBall); by value —
    /// it is three words, copy-on-write would cost more than the copy.
    CoveringBall ball;
  };

  /// A frontier element of the level-synchronous search: `node` (at the
  /// current layer) must still be examined for `query`; `parent_dq` carries
  /// d(query, parent(node).pivot), the value leaf verification filters with.
  struct Entry {
    uint32_t node;
    uint32_t query;
    float parent_dq;
  };

  /// Per-call scratch of one batched query: the pinned version it runs
  /// against, its counters, the approximate-mode candidate budget, and a
  /// private simulated-time accumulator. Everything a query mutates lives
  /// here (or in function-local buffers), and everything it reads hangs
  /// off the immutable version, which together make the read path const,
  /// lock-free and data-race-free. Every kernel the call runs charges the
  /// context clock; AccumulateStats folds the total into the shared device
  /// clock as a concurrent sub-timeline (SimClock::MergeConcurrent), so
  /// overlapping query calls model parallel device occupancy (max) instead
  /// of over-charging the shared clock with their sum.
  struct QueryContext {
    QueryContext(const gpu::Device& device, const Version& version)
        : v(&version),
          clock(device.clock().config()),
          start_ns(device.clock().ElapsedNs()) {}

    const Version* v;  ///< the version this call runs against
    GtsQueryStats stats;
    double candidate_fraction = 1.0;  ///< leaf-verification budget (1 = exact)
    gpu::SimClock clock;              ///< this call's elapsed accumulator
    double start_ns = 0.0;  ///< shared-clock reading at call start

    // Shorthands over the pinned version.
    const Dataset& data() const { return *v->data; }
    const GtsNode& node(uint64_t id) const { return v->tree->node_list[id]; }
    std::span<const uint32_t> tl_object() const { return v->tree->tl_object; }
    std::span<const float> tl_dis() const { return v->tree->tl_dis; }
    const Liveness& live() const { return *v->live; }
    const CacheList& cache() const { return *v->cache; }
    uint32_t height() const { return v->tree->height; }
    uint32_t indexed_count() const { return v->tree->indexed_count; }
    uint64_t resident_bytes() const { return v->resident_bytes; }
  };

  /// Per-query running top-k state for MkNNQ (deduplicated by object id so
  /// a pivot later re-seen in a leaf cannot shrink the bound twice).
  struct KnnState {
    std::vector<Neighbor> topk;  // ascending by (dist, id), size <= k
    uint32_t k = 0;
    /// Caller-proven upper bound on the k-th nearest distance (+inf =
    /// none; see KnnOptions::initial_bounds). Tightens Bound() only — Offer()
    /// never consults it, so the top-k list itself stays exact for every
    /// candidate the capped descent reaches.
    float cap = std::numeric_limits<float>::infinity();
    /// Left by the nearest-ring probe (ProbeKnn): d(query, root pivot), NaN
    /// when the query was not probed, and the leaves the probe verified,
    /// ascending by node id.
    float root_dq = std::numeric_limits<float>::quiet_NaN();
    std::vector<uint32_t> probed_leaves;
    float Bound() const {
      const float own = topk.size() < k ? std::numeric_limits<float>::infinity()
                                        : topk.back().dist;
      return own < cap ? own : cap;
    }
    void Offer(uint32_t id, float dist);
  };

  // builder.cc ------------------------------------------------------------
  // The builder writes only into `out` and per-call scratch (plus the
  // thread-safe device clock and metric counters), so a rebuild can run
  // beside live readers of the published version.
  /// (Re)constructs the tree over the given object ids (Algorithms 1-3)
  /// into `out`. `rebuild_seq` varies the FFT root-pivot seed per rebuild.
  Status BuildTreeOver(const Dataset& data, std::vector<uint32_t> ids,
                       uint64_t rebuild_seq, TreeTables* out) const;
  void MapLevel(const Dataset& data, uint32_t layer, Rng* rng,
                TreeTables* t) const;                        // Algorithm 2
  Status PartitionLevel(uint32_t layer, TreeTables* t) const;  // Algorithm 3
  uint32_t SelectPivotFft(const Dataset& data, const TreeTables& t,
                          uint64_t node_id, Rng* rng) const;

  // search_range.cc ---------------------------------------------------
  /// Query bodies shared by the public entry points and the ReadSnapshot
  /// view; `v` is the pinned version the call runs against (the caller
  /// guarantees it stays alive, via an epoch guard).
  /// `anchor_ns` >= 0 pins the call's sub-timeline start (see
  /// ReadSnapshot::AnchorClock); < 0 starts at the current clock reading.
  Result<RangeResults> RangeQueryBatchOn(const Version& v,
                                         const Dataset& queries,
                                         std::span<const float> radii,
                                         GtsQueryStats* stats_out,
                                         double anchor_ns = -1.0) const;
  Status RangeLevel(std::span<const Entry> frontier, uint32_t layer,
                    const Dataset& queries, std::span<const float> radii,
                    RangeResults* out, QueryContext* ctx) const;
  void VerifyRangeLeaves(std::span<const Entry> frontier,
                         const Dataset& queries, std::span<const float> radii,
                         RangeResults* out, QueryContext* ctx) const;
  void SearchCacheRange(const Dataset& queries, std::span<const float> radii,
                        RangeResults* out, QueryContext* ctx) const;

  // search_knn.cc -------------------------------------------------------
  /// See RangeQueryBatchOn; `options` as in KnnQueryBatch.
  Result<KnnResults> KnnQueryBatchOn(const Version& v, const Dataset& queries,
                                     uint32_t k, const KnnOptions& options,
                                     GtsQueryStats* stats_out,
                                     double anchor_ns = -1.0) const;
  Result<KnnResults> KnnQueryBatchImpl(const Dataset& queries, uint32_t k,
                                       std::span<const float> initial_bounds,
                                       QueryContext* ctx) const;
  /// Runs the nearest-ring probe for every query without a finite cap and
  /// returns the level-1 frontier of the queries left to descend.
  std::vector<Entry> ProbeKnn(const Dataset& queries,
                              std::vector<KnnState>* states,
                              QueryContext* ctx) const;
  Status KnnLevel(std::span<const Entry> frontier, uint32_t layer,
                  const Dataset& queries, std::vector<KnnState>* states,
                  QueryContext* ctx) const;
  void VerifyKnnLeaves(std::span<const Entry> frontier, const Dataset& queries,
                       std::vector<KnnState>* states, QueryContext* ctx) const;
  void SearchCacheKnn(const Dataset& queries, std::vector<KnnState>* states,
                      QueryContext* ctx) const;

  /// Frontier-entry budget for `layer` (paper §5.1):
  /// size_GPU / ((h - layer + 1) * Nc), expressed in entries.
  uint64_t LevelEntryLimit(uint32_t layer, const QueryContext& ctx) const;
  /// Splits a frontier (sorted by query) into groups of whole queries whose
  /// expansion fits the limit. Returns [begin, end) offsets.
  std::vector<std::pair<size_t, size_t>> GroupFrontier(
      std::span<const Entry> frontier, uint64_t limit_entries) const;

  // gts.cc ----------------------------------------------------------------
  /// Pins the current version (the caller must hold an epoch guard or the
  /// writer mutex for the returned reference to stay valid).
  const Version& Current() const {
    return *current_.load(std::memory_order_seq_cst);
  }
  /// Index footprint of one version (node list + table list + cache).
  static uint64_t IndexBytesOf(const Version& v);
  /// Recomputes `v`'s device residency, adjusts the device reservation by
  /// the delta from the previous version, and stamps v->resident_bytes.
  /// Caller holds the writer mutex.
  Status UpdateResidentBytes(Version* v) REQUIRES(writer_mu_);
  /// Rebuilds `v`'s tree over its alive objects (build-beside: readers of
  /// the published version are untouched), resets its tombstone count,
  /// empties its cache and recomputes its covering ball. Caller holds the
  /// writer mutex.
  Status RebuildVersion(Version* v) const REQUIRES(writer_mu_);
  /// Exact covering ball of `v`'s alive objects: pivot = the tree's root
  /// pivot (central by FFT construction) or the first alive id, radius =
  /// one scan of alive distances, charged to the device clock. Caller
  /// holds the writer mutex (Build/Load lock it for the construction tail
  /// so the contract is uniform even though the index is not yet shared).
  CoveringBall ComputeCoveringBall(const Version& v) const
      REQUIRES(writer_mu_);
  /// Publishes `next` as the current version and retires the predecessor
  /// through the epoch domain. Caller holds the writer mutex.
  void Publish(std::unique_ptr<Version> next) REQUIRES(writer_mu_);
  /// Completes one query call: folds its counters into the atomic
  /// aggregate, merges its private clock into the shared device clock as a
  /// concurrent sub-timeline, and copies the counters to `stats_out` when
  /// requested.
  void AccumulateStats(const QueryContext& ctx, GtsQueryStats* stats_out) const;
  /// kInvalidArgument unless objects [begin, end) of `d` pass
  /// Dataset::AllFinite. A NaN or infinite coordinate makes every distance
  /// to the object NaN or infinite: as a query no bound would prune
  /// anything and the answer would be meaningless, and as an indexed object
  /// it would surface, at distance NaN, in exact answers.
  static Status CheckFinite(const Dataset& d, uint32_t begin, uint32_t end);
  float QueryObjectDistance(const Dataset& queries, uint32_t q, uint32_t id,
                            QueryContext* ctx) const {
    ++ctx->stats.distance_computations;
    return metric_->Distance(queries, q, ctx->data(), id);
  }
  /// Blocked QueryObjectDistance over `count` consecutive table-list slots
  /// starting at `pos` (slot s scores object tl_object[s], via the tree's
  /// SoA pack): one kernel call per node instead of one virtual call per
  /// object, with bitwise-identical distances and identical accounting.
  void QuerySlotDistances(const Dataset& queries, uint32_t q, uint32_t pos,
                          uint32_t count, QueryContext* ctx,
                          float* out) const {
    ctx->stats.distance_computations += count;
    metric_->DistanceBlock(queries, q, ctx->data(), ctx->v->tree->pack, pos,
                           count, out);
  }
  /// Batched QueryObjectDistance over explicit object ids (the gather
  /// path: cache tables, pruned candidate lists). Same equivalence.
  void QueryObjectDistances(const Dataset& queries, uint32_t q,
                            std::span<const uint32_t> ids, QueryContext* ctx,
                            float* out) const {
    ctx->stats.distance_computations += ids.size();
    metric_->DistanceBatch(queries, q, ctx->data(), ids, out);
  }

  const DistanceMetric* metric_;
  gpu::Device* device_;
  GtsOptions options_;
  DataKind data_kind_;  ///< immutable corpus kind (see data_kind())
  uint32_t data_dim_;   ///< immutable corpus dimensionality

  // Concurrency control (see the file comment): `current_` is the
  // published version, `epoch_` reclaims superseded ones, and `writer_mu_`
  // serializes the update strategies against each other — never against
  // readers. Invariants:
  //   - `current_` only changes under `writer_mu_`, via Publish().
  //   - A Version reachable from `current_` is immutable forever; writers
  //     build successors beside it and swap, so readers need no fences
  //     beyond the seq_cst pointer load their epoch guard brackets.
  //   - A superseded version is retired, never deleted in place; the
  //     epoch domain frees it after the last straddling guard releases.
  //   - `resident_bytes_` and `next_version_id_` are writer-owned (guarded
  //     by `writer_mu_`); per-version copies serve the read path.
  // The aggregate stats are relaxed atomics so concurrent (const) queries
  // can fold their counters in lock-free.
  std::atomic<const Version*> current_{nullptr};
  mutable epoch::Domain epoch_;
  Mutex writer_mu_;
  uint64_t next_version_id_ GUARDED_BY(writer_mu_) = 1;
  /// Current device reservation.
  uint64_t resident_bytes_ GUARDED_BY(writer_mu_) = 0;

  mutable std::atomic<uint64_t> stat_distances_{0};
  mutable std::atomic<uint64_t> stat_nodes_{0};
  mutable std::atomic<uint64_t> stat_objects_{0};
  mutable std::atomic<uint64_t> stat_groups_{0};
  mutable std::atomic<uint64_t> stat_pruned_{0};
};

}  // namespace gts

#endif  // GTS_CORE_GTS_H_
