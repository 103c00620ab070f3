// GtsIndex lifecycle and update strategies (paper §4.4):
// streaming updates through the cache table (O(1) insert/delete, rebuild on
// overflow) and batch updates via full parallel reconstruction.
//
// Every update here follows one shape: copy the touched components of the
// current version (the untouched ones are shared), mutate the copies,
// publish the assembled successor with one atomic swap, and retire the
// predecessor through the epoch domain. Nothing a concurrent reader holds
// is ever mutated, and a failed update publishes nothing.

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/gts.h"
#include "gpu/primitives.h"

namespace gts {

GtsIndex::GtsIndex(const DistanceMetric* metric, gpu::Device* device,
                   const GtsOptions& options, DataKind data_kind,
                   uint32_t data_dim)
    : metric_(metric),
      device_(device),
      options_(options),
      data_kind_(data_kind),
      data_dim_(data_dim) {}

GtsIndex::~GtsIndex() {
  // No reader can be live (the contract forbids a ReadSnapshot outliving
  // the index), so the current version and everything in limbo is ours.
  delete current_.load(std::memory_order_seq_cst);
  epoch_.Reclaim();  // the domain destructor frees whatever remains
  if (device_ != nullptr && resident_bytes_ > 0) {
    device_->Free(resident_bytes_);
  }
}

Result<std::unique_ptr<GtsIndex>> GtsIndex::Build(Dataset data,
                                                  const DistanceMetric* metric,
                                                  gpu::Device* device,
                                                  const GtsOptions& options) {
  if (metric == nullptr || device == nullptr) {
    return Status::InvalidArgument("metric and device are required");
  }
  if (!metric->SupportsKind(data.kind())) {
    return Status::Unsupported("metric does not support this data kind");
  }
  if (options.node_capacity < 2) {
    return Status::InvalidArgument("node_capacity must be >= 2");
  }
  GTS_RETURN_IF_ERROR(CheckFinite(data, 0, data.size()));
  std::unique_ptr<GtsIndex> index(
      new GtsIndex(metric, device, options, data.kind(), data.dim()));

  auto live = std::make_shared<Liveness>();
  for (uint32_t id = 0; id < data.size(); ++id) live->MarkAlive(id);
  live->alive_count = data.size();

  std::vector<uint32_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0u);
  auto tree = std::make_shared<TreeTables>();
  GTS_RETURN_IF_ERROR(
      index->BuildTreeOver(data, std::move(ids), /*rebuild_seq=*/0,
                           tree.get()));

  auto version = std::make_unique<Version>();
  version->data = std::make_shared<const Dataset>(std::move(data));
  version->tree = std::move(tree);
  version->live = std::move(live);
  version->cache = std::make_shared<const CacheList>();
  // Exclusive construction — no other thread can see the index yet — but
  // the guarded fields contractually demand the writer mutex, so take it
  // for the tail. Uncontended, and the analysis stays uniform.
  MutexLock lock(&index->writer_mu_);
  version->version_id = index->next_version_id_++;
  version->ball = index->ComputeCoveringBall(*version);
  GTS_RETURN_IF_ERROR(index->UpdateResidentBytes(version.get()));
  index->current_.store(version.release(), std::memory_order_seq_cst);
  return index;
}

CoveringBall GtsIndex::ComputeCoveringBall(const Version& v) const {
  CoveringBall ball;
  const Dataset& data = *v.data;
  const Liveness& live = *v.live;
  if (live.alive_count == 0) return ball;
  // The tree's root pivot is central by FFT construction — the tightest
  // cheap center. A single-level tree's root is a leaf (pivot ==
  // kInvalidId), and a freshly-loaded empty tree has none: fall back to
  // the first alive object; the ball only needs to cover, not be minimal.
  uint32_t pivot = kInvalidId;
  if (v.tree->indexed_count > 0 && v.tree->node_list.size() > 1) {
    pivot = v.tree->node_list[1].pivot;
  }
  if (pivot == kInvalidId) {
    for (uint32_t id = 0; id < data.size(); ++id) {
      if (live.alive(id)) {
        pivot = id;
        break;
      }
    }
  }
  ball.valid = true;
  ball.pivot = pivot;
  // One device-wide distance kernel over the alive objects — the same
  // cost shape as a build level's pivot-distance pass. Scored as one
  // batched kernel call; the max-reduction consumes the identical
  // distance values the per-object loop produced.
  gpu::KernelDistanceScope scope(&device_->clock(), metric_,
                                 live.alive_count);
  std::vector<uint32_t> ids;
  ids.reserve(live.alive_count);
  for (uint32_t id = 0; id < data.size(); ++id) {
    if (live.alive(id)) ids.push_back(id);
  }
  std::vector<float> dist(ids.size());
  metric_->DistanceBatch(data, pivot, data, ids, dist.data());
  for (const float d : dist) ball.radius = std::max(ball.radius, d);
  return ball;
}

uint64_t GtsIndex::IndexBytesOf(const Version& v) {
  return v.tree->node_list.size() * sizeof(GtsNode) +
         v.tree->tl_object.size() * (sizeof(uint32_t) + sizeof(float)) +
         v.cache->size() * sizeof(uint32_t) + v.cache->bytes();
}

uint64_t GtsIndex::IndexBytes() const {
  epoch::Guard guard(&epoch_);
  return IndexBytesOf(Current());
}

Status GtsIndex::UpdateResidentBytes(Version* v) {
  // Device residency: the dataset payload (alive objects), the index
  // structures, and the cache table. The reservation tracks the *published*
  // footprint — a rebuild's transient second copy (the build-beside tables)
  // is host-side staging in this model and intentionally not charged.
  uint64_t bytes = IndexBytesOf(*v);
  const Dataset& data = *v->data;
  for (uint32_t id = 0; id < data.size(); ++id) {
    if (v->live->alive(id)) bytes += data.ObjectBytes(id);
  }
  if (bytes > resident_bytes_) {
    GTS_RETURN_IF_ERROR(
        device_->Allocate(bytes - resident_bytes_, "GTS resident"));
  } else {
    device_->Free(resident_bytes_ - bytes);
  }
  resident_bytes_ = bytes;
  v->resident_bytes = bytes;
  return Status::Ok();
}

void GtsIndex::Publish(std::unique_ptr<Version> next) {
  const Version* old =
      current_.exchange(next.release(), std::memory_order_seq_cst);
  if (old != nullptr) epoch_.Retire(old);
}

GtsQueryStats GtsIndex::query_stats() const {
  GtsQueryStats s;
  s.distance_computations = stat_distances_.load(std::memory_order_relaxed);
  s.nodes_visited = stat_nodes_.load(std::memory_order_relaxed);
  s.objects_verified = stat_objects_.load(std::memory_order_relaxed);
  s.query_groups = stat_groups_.load(std::memory_order_relaxed);
  s.nodes_pruned = stat_pruned_.load(std::memory_order_relaxed);
  return s;
}

void GtsIndex::ResetQueryStats() {
  stat_distances_.store(0, std::memory_order_relaxed);
  stat_nodes_.store(0, std::memory_order_relaxed);
  stat_objects_.store(0, std::memory_order_relaxed);
  stat_groups_.store(0, std::memory_order_relaxed);
  stat_pruned_.store(0, std::memory_order_relaxed);
}

void GtsIndex::AccumulateStats(const QueryContext& ctx,
                               GtsQueryStats* stats_out) const {
  const GtsQueryStats& s = ctx.stats;
  stat_distances_.fetch_add(s.distance_computations, std::memory_order_relaxed);
  stat_nodes_.fetch_add(s.nodes_visited, std::memory_order_relaxed);
  stat_objects_.fetch_add(s.objects_verified, std::memory_order_relaxed);
  stat_groups_.fetch_add(s.query_groups, std::memory_order_relaxed);
  stat_pruned_.fetch_add(s.nodes_pruned, std::memory_order_relaxed);
  device_->clock().MergeConcurrent(ctx.start_ns, ctx.clock.ElapsedNs(),
                                   ctx.clock.kernels_launched());
  if (stats_out != nullptr) *stats_out = s;
}

// --- Introspection (pinned value reads) -----------------------------------

uint32_t GtsIndex::height() const {
  epoch::Guard guard(&epoch_);
  return Current().tree->height;
}

uint64_t GtsIndex::num_nodes() const {
  epoch::Guard guard(&epoch_);
  return Current().tree->node_list.size() - 1;
}

uint32_t GtsIndex::size() const {
  epoch::Guard guard(&epoch_);
  return Current().data->size();
}

uint32_t GtsIndex::alive_size() const {
  epoch::Guard guard(&epoch_);
  return Current().live->alive_count;
}

uint32_t GtsIndex::cache_size() const {
  epoch::Guard guard(&epoch_);
  return Current().cache->size();
}

uint64_t GtsIndex::rebuild_count() const {
  epoch::Guard guard(&epoch_);
  return Current().rebuild_count;
}

bool GtsIndex::IsAlive(uint32_t id) const {
  epoch::Guard guard(&epoch_);
  return Current().live->alive(id);
}

CoveringBall GtsIndex::covering_ball() const {
  epoch::Guard guard(&epoch_);
  return Current().ball;
}

uint64_t GtsIndex::DeviceResidentBytes() const {
  epoch::Guard guard(&epoch_);
  return Current().resident_bytes;
}

// Reference accessors: valid until the next update publishes a successor;
// see the header for the external-synchronization contract.

const Dataset& GtsIndex::data() const { return *Current().data; }

const GtsNode& GtsIndex::node(uint64_t id) const {
  return Current().tree->node_list[id];
}

std::span<const uint32_t> GtsIndex::table_objects() const {
  return Current().tree->tl_object;
}

std::span<const float> GtsIndex::table_dis() const {
  return Current().tree->tl_dis;
}

Status GtsIndex::CheckFinite(const Dataset& d, uint32_t begin, uint32_t end) {
  if (!d.AllFinite(begin, end)) {
    return Status::InvalidArgument("object coordinates must be finite");
  }
  return Status::Ok();
}

// --- Single-query conveniences --------------------------------------------

Result<std::vector<uint32_t>> GtsIndex::RangeQuery(
    const Dataset& queries, uint32_t idx, float radius,
    GtsQueryStats* stats_out) const {
  if (idx >= queries.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  const uint32_t ids[] = {idx};
  const float radii[] = {radius};
  auto res = RangeQueryBatch(queries.Slice(ids), radii, stats_out);
  if (!res.ok()) return res.status();
  return std::move(res.value()[0]);
}

Result<std::vector<Neighbor>> GtsIndex::KnnQuery(
    const Dataset& queries, uint32_t idx, uint32_t k,
    GtsQueryStats* stats_out) const {
  if (idx >= queries.size()) {
    return Status::InvalidArgument("query index out of range");
  }
  const uint32_t ids[] = {idx};
  auto res = KnnQueryBatch(queries.Slice(ids), k, stats_out);
  if (!res.ok()) return res.status();
  return std::move(res.value()[0]);
}

// --- ReadSnapshot ----------------------------------------------------------

GtsIndex::ReadSnapshot::ReadSnapshot(const GtsIndex* index)
    : index_(index),
      guard_(&index->epoch_),  // pin BEFORE the version load
      version_(index->current_.load(std::memory_order_seq_cst)) {}

uint32_t GtsIndex::ReadSnapshot::size() const { return version_->data->size(); }

uint32_t GtsIndex::ReadSnapshot::alive_size() const {
  return version_->live->alive_count;
}

uint32_t GtsIndex::ReadSnapshot::height() const {
  return version_->tree->height;
}

uint32_t GtsIndex::ReadSnapshot::cache_size() const {
  return version_->cache->size();
}

uint64_t GtsIndex::ReadSnapshot::rebuild_count() const {
  return version_->rebuild_count;
}

CoveringBall GtsIndex::ReadSnapshot::covering_ball() const {
  return version_->ball;
}

float GtsIndex::ReadSnapshot::RoutingDistance(const Dataset& queries,
                                              uint32_t idx,
                                              uint32_t id) const {
  // One distance, accounted exactly like a query's own evaluations: a
  // private sub-timeline merged into the device clock as concurrent work,
  // plus the aggregate distance counter. Routing probes are real device
  // work — the pruned scatter must not look free in the modeled numbers.
  QueryContext ctx(*index_->device_, *version_);
  if (anchor_ns_ >= 0.0) ctx.start_ns = anchor_ns_;
  float d = 0.0f;
  {
    gpu::KernelDistanceScope scope(&ctx.clock, index_->metric_, 1);
    d = index_->QueryObjectDistance(queries, idx, id, &ctx);
  }
  index_->AccumulateStats(ctx, nullptr);
  return d;
}

void GtsIndex::ReadSnapshot::AnchorClock() {
  anchor_ns_ = index_->device_->clock().ElapsedNs();
}

Result<RangeResults> GtsIndex::ReadSnapshot::RangeQueryBatch(
    const Dataset& queries, std::span<const float> radii,
    GtsQueryStats* stats_out) const {
  return index_->RangeQueryBatchOn(*version_, queries, radii, stats_out,
                                   anchor_ns_);
}

Result<KnnResults> GtsIndex::ReadSnapshot::KnnQueryBatch(
    const Dataset& queries, uint32_t k, GtsQueryStats* stats_out,
    const KnnOptions& options) const {
  return index_->KnnQueryBatchOn(*version_, queries, k, options, stats_out,
                                 anchor_ns_);
}

// --- Update strategies -----------------------------------------------------

Result<uint32_t> GtsIndex::Insert(const Dataset& src, uint32_t idx) {
  MutexLock lock(&writer_mu_);
  if (!CompatibleData(src)) {
    return Status::InvalidArgument("inserted object incompatible with dataset");
  }
  if (idx >= src.size()) {
    return Status::InvalidArgument("insert index out of range");
  }
  GTS_RETURN_IF_ERROR(CheckFinite(src, idx, idx + 1));
  const Version& cur = Current();
  const uint64_t obj_bytes = src.ObjectBytes(idx);
  GTS_RETURN_IF_ERROR(device_->Allocate(obj_bytes, "GTS cache insert"));
  resident_bytes_ += obj_bytes;

  // The dataset copy shares its payload, and the append lands in place
  // (metric/dataset.h); the liveness copy is n/8 bytes.
  auto data = std::make_shared<Dataset>(*cur.data);
  data->AppendFrom(src, idx);
  const uint32_t id = data->size() - 1;

  auto live = std::make_shared<Liveness>(*cur.live);
  live->MarkAlive(id);
  ++live->alive_count;

  auto cache = std::make_shared<CacheList>(*cur.cache);
  cache->Add(id, obj_bytes);
  device_->clock().ChargeKernel(1, 4);  // O(1) cache append

  auto next = std::make_unique<Version>();
  next->data = std::move(data);
  next->tree = cur.tree;  // untouched: shared with the predecessor
  next->live = std::move(live);
  next->cache = std::move(cache);
  next->rebuild_count = cur.rebuild_count;
  next->version_id = next_version_id_++;

  // Grow the covering ball incrementally: one distance to the pivot keeps
  // it exact for inserts (a rebuild below recomputes from scratch anyway).
  next->ball = cur.ball;
  if (!next->ball.valid) {
    next->ball = CoveringBall{true, id, 0.0f};
  } else {
    gpu::KernelDistanceScope scope(&device_->clock(), metric_, 1);
    next->ball.radius =
        std::max(next->ball.radius,
                 metric_->Distance(*next->data, next->ball.pivot, *next->data,
                                   id));
  }

  if (next->cache->bytes() > options_.cache_capacity_bytes) {
    GTS_RETURN_IF_ERROR(RebuildVersion(next.get()));
    GTS_RETURN_IF_ERROR(UpdateResidentBytes(next.get()));
  } else {
    next->resident_bytes = resident_bytes_;  // incremental: + the new object
  }
  Publish(std::move(next));
  return id;
}

Status GtsIndex::Remove(uint32_t id) {
  MutexLock lock(&writer_mu_);
  const Version& cur = Current();
  if (id >= cur.data->size() || !cur.live->alive(id)) {
    return Status::NotFound("object not present");
  }
  auto live = std::make_shared<Liveness>(*cur.live);
  live->MarkDead(id);
  --live->alive_count;
  auto cache = std::make_shared<CacheList>(*cur.cache);
  device_->clock().ChargeKernel(1, 4);  // O(1) locate + mark

  bool rebuild = false;
  if (!cache->Erase(id)) {
    ++live->tombstones_in_tree;
    const uint32_t indexed = cur.tree->indexed_count;
    rebuild = indexed > 0 &&
              static_cast<double>(live->tombstones_in_tree) >
                  options_.max_tombstone_fraction *
                      static_cast<double>(indexed);
  }

  auto next = std::make_unique<Version>();
  next->data = cur.data;  // untouched: shared with the predecessor
  next->tree = cur.tree;
  next->live = std::move(live);
  next->cache = std::move(cache);
  next->rebuild_count = cur.rebuild_count;
  next->version_id = next_version_id_++;
  // The ball stays: removal can only shrink the true covering radius, and
  // an over-covering ball merely under-prunes (a rebuild re-tightens it).
  next->ball = cur.ball;

  if (rebuild) {
    GTS_RETURN_IF_ERROR(RebuildVersion(next.get()));
    GTS_RETURN_IF_ERROR(UpdateResidentBytes(next.get()));
  } else {
    // A tombstone frees no reservation until the next reconstruction.
    next->resident_bytes = cur.resident_bytes;
  }
  Publish(std::move(next));
  return Status::Ok();
}

Status GtsIndex::BatchUpdate(const Dataset& inserts,
                             std::span<const uint32_t> removals) {
  MutexLock lock(&writer_mu_);
  if (!inserts.empty() && !CompatibleData(inserts)) {
    return Status::InvalidArgument("inserted objects incompatible with dataset");
  }
  GTS_RETURN_IF_ERROR(CheckFinite(inserts, 0, inserts.size()));
  const Version& cur = Current();
  auto data = std::make_shared<Dataset>(*cur.data);
  auto live = std::make_shared<Liveness>(*cur.live);
  for (const uint32_t id : removals) {
    if (id >= data->size() || !live->alive(id)) continue;
    live->MarkDead(id);
    --live->alive_count;
  }
  for (uint32_t i = 0; i < inserts.size(); ++i) {
    data->AppendFrom(inserts, i);
    live->MarkAlive(data->size() - 1);
    ++live->alive_count;
  }
  device_->clock().ChargeKernel(removals.size() + inserts.size(),
                                (removals.size() + inserts.size()) * 2);

  auto next = std::make_unique<Version>();
  next->data = std::move(data);
  next->live = std::move(live);
  next->tree = cur.tree;    // replaced by RebuildVersion below
  next->cache = cur.cache;  // ditto
  next->rebuild_count = cur.rebuild_count;
  next->version_id = next_version_id_++;

  // One published version carries the whole batch: removals, inserts and
  // the reconstruction land atomically from any reader's point of view.
  GTS_RETURN_IF_ERROR(RebuildVersion(next.get()));
  GTS_RETURN_IF_ERROR(UpdateResidentBytes(next.get()));
  Publish(std::move(next));
  return Status::Ok();
}

Status GtsIndex::Rebuild() {
  MutexLock lock(&writer_mu_);
  const Version& cur = Current();
  auto next = std::make_unique<Version>();
  next->data = cur.data;
  next->live = cur.live;
  next->tree = cur.tree;    // replaced by RebuildVersion below
  next->cache = cur.cache;  // ditto
  next->rebuild_count = cur.rebuild_count;
  next->version_id = next_version_id_++;
  GTS_RETURN_IF_ERROR(RebuildVersion(next.get()));
  GTS_RETURN_IF_ERROR(UpdateResidentBytes(next.get()));
  Publish(std::move(next));
  return Status::Ok();
}

Status GtsIndex::RebuildVersion(Version* v) const {
  // Double-buffered reconstruction: the new tree tables are built beside
  // the published version — readers keep descending the old tables at full
  // speed for the whole build — and v simply absorbs them; the caller's
  // Publish() is the swap.
  std::vector<uint32_t> ids;
  ids.reserve(v->live->alive_count);
  for (uint32_t id = 0; id < v->data->size(); ++id) {
    if (v->live->alive(id)) ids.push_back(id);
  }
  ++v->rebuild_count;
  auto tree = std::make_shared<TreeTables>();
  GTS_RETURN_IF_ERROR(
      BuildTreeOver(*v->data, std::move(ids), v->rebuild_count, tree.get()));
  v->tree = std::move(tree);
  auto live = std::make_shared<Liveness>(*v->live);
  live->tombstones_in_tree = 0;  // every alive object is in the new tree
  v->live = std::move(live);
  v->cache = std::make_shared<const CacheList>();  // absorbed into the tree
  v->ball = ComputeCoveringBall(*v);  // re-tighten after the churn
  return Status::Ok();
}

}  // namespace gts
