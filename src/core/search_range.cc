// Batched metric range query (paper Algorithm 4).
//
// The frontier of {node, query} entries descends the tree level by level.
// Before expanding a level, the frontier is compared against the per-layer
// budget size_GPU / ((h - layer + 1) * Nc); when it does not fit, queries
// are split into groups processed sequentially to completion — the paper's
// two-stage strategy that avoids the memory deadlock of fixed-buffer
// GPU indexes.
//
// The whole descent reads exclusively through the QueryContext's pinned
// version: no index member is touched, so the call is lock-free and immune
// to concurrent updates (which publish new versions, never mutate this one).

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/gts.h"
#include "gpu/primitives.h"

namespace gts {

namespace {
constexpr float kNoParent = std::numeric_limits<float>::quiet_NaN();
}  // namespace

uint64_t GtsIndex::LevelEntryLimit(uint32_t layer,
                                   const QueryContext& ctx) const {
  const uint64_t mem = device_->memory_bytes();
  const uint64_t resident = std::min(ctx.resident_bytes(), mem);
  const uint64_t avail = mem - resident;
  const uint64_t denom = static_cast<uint64_t>(ctx.height() - layer + 1) *
                         options_.node_capacity * sizeof(Entry);
  return std::max<uint64_t>(avail / std::max<uint64_t>(denom, 1), 1);
}

std::vector<std::pair<size_t, size_t>> GtsIndex::GroupFrontier(
    std::span<const Entry> frontier, uint64_t limit_entries) const {
  std::vector<std::pair<size_t, size_t>> groups;
  const uint32_t nc = options_.node_capacity;
  size_t group_begin = 0;
  uint64_t group_expansion = 0;
  size_t i = 0;
  while (i < frontier.size()) {
    // One query's contiguous segment (the frontier is sorted by query).
    size_t j = i;
    while (j < frontier.size() && frontier[j].query == frontier[i].query) ++j;
    const uint64_t seg_expansion = static_cast<uint64_t>(j - i) * nc;
    if (group_expansion > 0 && group_expansion + seg_expansion > limit_entries) {
      groups.emplace_back(group_begin, i);
      group_begin = i;
      group_expansion = 0;
    }
    group_expansion += seg_expansion;
    i = j;
  }
  if (group_begin < frontier.size()) {
    groups.emplace_back(group_begin, frontier.size());
  }
  return groups;
}

Result<RangeResults> GtsIndex::RangeQueryBatch(
    const Dataset& queries, std::span<const float> radii,
    GtsQueryStats* stats_out) const {
  epoch::Guard guard(&epoch_);  // pin BEFORE the version load
  return RangeQueryBatchOn(Current(), queries, radii, stats_out);
}

Result<RangeResults> GtsIndex::RangeQueryBatchOn(
    const Version& v, const Dataset& queries, std::span<const float> radii,
    GtsQueryStats* stats_out, double anchor_ns) const {
  if (queries.size() != radii.size()) {
    return Status::InvalidArgument("one radius per query required");
  }
  for (const float r : radii) {
    if (!(r >= 0.0f)) {  // rejects negatives and NaN
      return Status::InvalidArgument("radii must be non-negative");
    }
  }
  if (!queries.CompatibleWith(*v.data)) {
    return Status::InvalidArgument("query objects incompatible with dataset");
  }
  GTS_RETURN_IF_ERROR(CheckFinite(queries, 0, queries.size()));
  QueryContext ctx(*device_, v);
  if (anchor_ns >= 0.0) ctx.start_ns = anchor_ns;
  RangeResults out(queries.size());
  if (ctx.indexed_count() > 0) {
    std::vector<Entry> frontier;
    frontier.reserve(queries.size());
    for (uint32_t q = 0; q < queries.size(); ++q) {
      frontier.push_back(Entry{1, q, kNoParent});
    }
    GTS_RETURN_IF_ERROR(RangeLevel(frontier, 1, queries, radii, &out, &ctx));
  }
  SearchCacheRange(queries, radii, &out, &ctx);
  for (auto& ids : out) gpu::RadixSort(ids);
  AccumulateStats(ctx, stats_out);
  return out;
}

Status GtsIndex::RangeLevel(std::span<const Entry> frontier, uint32_t layer,
                            const Dataset& queries,
                            std::span<const float> radii, RangeResults* out,
                            QueryContext* ctx) const {
  if (frontier.empty()) return Status::Ok();
  if (layer == ctx->height()) {
    VerifyRangeLeaves(frontier, queries, radii, out, ctx);
    return Status::Ok();
  }

  const uint32_t nc = options_.node_capacity;
  const auto groups = GroupFrontier(frontier, LevelEntryLimit(layer, *ctx));
  ctx->stats.query_groups += groups.size();

  for (const auto& [begin, end] : groups) {
    const auto group = frontier.subspan(begin, end - begin);

    // Next-level frontier buffer; its allocation is what the two-stage
    // grouping keeps below the device budget.
    auto buf_r = gpu::DeviceBuffer<Entry>::Create(
        device_, group.size() * nc, "MRQ frontier");
    if (!buf_r.ok()) return buf_r.status();
    auto& buf = buf_r.value();

    // Kernel A: one distance per entry to the entry node's pivot, batched
    // over each query's contiguous segment (the frontier is sorted by
    // query) — same evaluations, one kernel call per segment.
    std::vector<float> dq(group.size());
    {
      gpu::KernelDistanceScope scope(&ctx->clock, metric_, group.size());
      std::vector<uint32_t> pivots;
      size_t i = 0;
      while (i < group.size()) {
        size_t j = i;
        pivots.clear();
        while (j < group.size() && group[j].query == group[i].query) {
          pivots.push_back(ctx->node(group[j].node).pivot);
          ++j;
        }
        QueryObjectDistances(queries, group[i].query, pivots, ctx,
                             dq.data() + i);
        i = j;
      }
    }
    ctx->stats.nodes_visited += group.size();

    // Kernel B: ring pruning (Lemma 5.1) over entry x child pairs.
    size_t emitted = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      const float r = radii[group[i].query];
      for (uint32_t j = 0; j < nc; ++j) {
        const uint64_t cid = ChildNodeId(group[i].node, j, nc);
        const GtsNode& child = ctx->node(cid);
        if (child.size == 0) continue;
        if (dq[i] + r < child.min_dis || dq[i] - r > child.max_dis) {
          ++ctx->stats.nodes_pruned;
          continue;
        }
        buf[emitted++] =
            Entry{static_cast<uint32_t>(cid), group[i].query, dq[i]};
      }
    }
    ctx->clock.ChargeKernel(static_cast<uint64_t>(group.size()) * nc,
                            static_cast<uint64_t>(group.size()) * nc * 4);

    GTS_RETURN_IF_ERROR(RangeLevel(
        std::span<const Entry>(buf.data(), emitted), layer + 1, queries,
        radii, out, ctx));
  }
  return Status::Ok();
}

void GtsIndex::VerifyRangeLeaves(std::span<const Entry> frontier,
                                 const Dataset& queries,
                                 std::span<const float> radii,
                                 RangeResults* out, QueryContext* ctx) const {
  const std::span<const float> tl_dis = ctx->tl_dis();
  const std::span<const uint32_t> tl_object = ctx->tl_object();
  const Liveness& live = ctx->live();

  // Charged as two kernels, as the device runs them: the pivot filter via
  // the stored leaf column (Lemma 5.1 with the leaf parent's pivot,
  // skipping tombstoned objects) over every slot of every reached leaf,
  // then exact verification of the survivors.
  uint64_t scanned = 0;
  for (const Entry& e : frontier) scanned += ctx->node(e.node).size;
  ctx->clock.ChargeKernel(scanned, scanned * 2);
  ctx->stats.objects_verified += scanned;

  // The host fuses them: one pass per query over its (leaf, query)
  // entries. Each run of surviving slots (consecutive in the table list,
  // across sibling leaves too) scores through the SoA pack with one block
  // call straight into the query's hit list, and isolated survivors
  // coalesce into one gather call per query. Both paths produce
  // bitwise-identical distances with identical accounting, so the
  // verified set and every charge are those of a filter pass followed by
  // one distance pass.
  gpu::KernelDistanceScope scope(&ctx->clock, metric_,
                                 gpu::KernelDistanceScope::kAutoItems);
  std::vector<float> dist;
  std::vector<uint32_t> singles;
  size_t i = 0;
  while (i < frontier.size()) {
    const uint32_t q = frontier[i].query;
    const float r = radii[q];
    std::vector<uint32_t>& hits = (*out)[q];
    singles.clear();
    uint32_t run_begin = 0, run_end = 0;  // the open run of survivors
    const auto close_run = [&] {
      const uint32_t len = run_end - run_begin;
      if (len == 1) {
        singles.push_back(tl_object[run_begin]);
      } else if (len > 1) {
        dist.resize(len);
        QuerySlotDistances(queries, q, run_begin, len, ctx, dist.data());
        for (uint32_t t = 0; t < len; ++t) {
          if (dist[t] <= r) hits.push_back(tl_object[run_begin + t]);
        }
      }
    };
    for (; i < frontier.size() && frontier[i].query == q; ++i) {
      const Entry& e = frontier[i];
      const GtsNode& leaf = ctx->node(e.node);
      const bool has_parent = e.node != 1;
      for (uint32_t s = leaf.pos; s < leaf.pos + leaf.size; ++s) {
        if (has_parent && std::fabs(tl_dis[s] - e.parent_dq) > r) continue;
        if (!live.alive(tl_object[s])) continue;
        if (s != run_end) {
          close_run();
          run_begin = s;
        }
        run_end = s + 1;
      }
    }
    close_run();
    if (!singles.empty()) {
      dist.resize(singles.size());
      QueryObjectDistances(queries, q, singles, ctx, dist.data());
      for (size_t g = 0; g < singles.size(); ++g) {
        if (dist[g] <= r) hits.push_back(singles[g]);
      }
    }
  }
}

void GtsIndex::SearchCacheRange(const Dataset& queries,
                                std::span<const float> radii,
                                RangeResults* out, QueryContext* ctx) const {
  const CacheList& cache = ctx->cache();
  if (cache.empty()) return;
  const auto ids = cache.ids();
  gpu::KernelDistanceScope scope(&ctx->clock, metric_,
                                 static_cast<uint64_t>(queries.size()) *
                                     ids.size());
  std::vector<float> dist(ids.size());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    QueryObjectDistances(queries, q, ids, ctx, dist.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (dist[i] <= radii[q]) (*out)[q].push_back(ids[i]);
    }
  }
}

}  // namespace gts
