// Batched metric kNN query (paper Algorithm 5).
//
// Level-synchronous descent like Algorithm 4; every probed pivot is a real
// dataset object, so its distance feeds a per-query running top-k whose k-th
// value is the pruning bound of Lemma 5.2. The running top-k deduplicates by
// object id (a pivot is re-seen when its leaf is verified) and skips
// tombstoned objects, both required for exactness.
//
// Before the descent, each query without a finite initial bound runs a
// nearest-ring probe (ProbeKnn): a depth-first walk from the root that
// enters children in ascending ring-gap order, evaluates one pivot per
// inner node it enters, verifies every alive object of each leaf it
// reaches, and stops once it has verified a leaf and holds k alive
// objects. The descent then prunes from level 1 against that k-th
// distance, where a cold start would prune against +inf until k pivots had
// been seen. The probe is exact for the same reason the descent is: every
// bound it leaves is the k-th of k real alive distances, so it is never
// below the true k-th nearest distance, and the descent discards only
// candidates whose lower bound strictly exceeds it. Leaves the probe
// verified are skipped at the leaf level (each of their alive objects has
// been offered already), and level 1 reuses the probe's root distance, so
// neither is evaluated twice.
//
// Like the range query, the descent reads only through the QueryContext's
// pinned version — lock-free, and unperturbed by concurrent updates.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "core/gts.h"
#include "gpu/primitives.h"

namespace gts {

namespace {
constexpr float kNoParent = std::numeric_limits<float>::quiet_NaN();

// Hands out the keys of a span in ascending order, one per Next(), and
// orders only as much of the span as it has handed out: an incremental
// quicksort (Paredes and Navarro, "Optimal Incremental Sorting", ALENEX
// 2006). Handing out the m smallest of n keys costs O(n + m log m)
// expected. Ranges are partitioned around a median-of-three pivot; once
// partitioning has moved 2 n log2 n keys, which only bad pivots or deep
// recursion can cost, everything not yet handed out is sorted outright,
// keeping the worst case at O(n log n).
class AscendingKeys {
 public:
  explicit AscendingKeys(std::span<uint64_t> keys)
      : keys_(keys),
        work_left_(2 * keys.size() *
                   static_cast<size_t>(std::bit_width(keys.size()))) {
    pivots_.push_back(keys.size());  // sentinel upper end
  }

  // The smallest key not handed out yet. At most keys.size() calls.
  uint64_t Next() {
    while (next_ >= sorted_end_) {
      // keys_[next_, hi) are unordered and below keys_[hi], if any.
      const size_t hi = pivots_.back();
      if (hi == next_) {  // keys_[next_] is a pivot, already in place
        pivots_.pop_back();
        break;
      }
      if (hi - next_ <= kSortBelow) {
        std::sort(keys_.begin() + next_, keys_.begin() + hi);
        sorted_end_ = hi;
        break;
      }
      if (hi - next_ > work_left_) {
        std::sort(keys_.begin() + next_, keys_.end());
        sorted_end_ = keys_.size();
        break;
      }
      work_left_ -= hi - next_;
      pivots_.push_back(Partition(next_, hi));
    }
    return keys_[next_++];
  }

 private:
  static constexpr size_t kSortBelow = 16;

  // Partitions keys_[lo, hi) around the median of its first, middle and
  // last key and returns the pivot's final index.
  size_t Partition(size_t lo, size_t hi) {
    uint64_t* a = keys_.data();
    const size_t mid = lo + (hi - lo) / 2;
    if (a[mid] < a[lo]) std::swap(a[mid], a[lo]);
    if (a[hi - 1] < a[lo]) std::swap(a[hi - 1], a[lo]);
    if (a[mid] < a[hi - 1]) std::swap(a[mid], a[hi - 1]);
    const uint64_t pivot = a[hi - 1];  // a[lo] <= pivot <= a[mid]
    size_t store = lo;
    for (size_t i = lo; i + 1 < hi; ++i) {  // branch-free Lomuto
      const uint64_t v = a[i];
      a[i] = a[store];
      a[store] = v;
      store += v < pivot;
    }
    std::swap(a[store], a[hi - 1]);
    return store;
  }

  std::span<uint64_t> keys_;
  std::vector<size_t> pivots_;  // final pivot indices, innermost last
  size_t next_ = 0;
  size_t sorted_end_ = 0;  // keys_[next_, sorted_end_) are in final order
  size_t work_left_;
};
}  // namespace

void GtsIndex::KnnState::Offer(uint32_t id, float dist) {
  // The running top-k keeps the canonical (dist, id) total order: distance
  // ties break toward the smaller object id. The order is a result
  // contract, not a convenience — selection by a total order commutes with
  // partitioning the candidate set, which is what lets an object-sharded
  // deployment (serve::ShardedFrontend) merge per-shard top-k lists back
  // byte-identically to a single-index run even on discrete metrics (edit
  // distance) where ties are everywhere. The pruning bound (Bound() =
  // topk.back().dist) is unchanged by the tie order, so traversal, stats,
  // and modeled time are identical to a tie-agnostic top-k.
  if (topk.size() == k &&
      (dist > topk.back().dist ||
       (dist == topk.back().dist && id >= topk.back().id))) {
    return;
  }
  for (const Neighbor& nb : topk) {
    if (nb.id == id) return;  // duplicate sample of the same object
  }
  const auto it = std::lower_bound(
      topk.begin(), topk.end(), Neighbor{id, dist},
      [](const Neighbor& a, const Neighbor& b) {
        if (a.dist != b.dist) return a.dist < b.dist;
        return a.id < b.id;
      });
  topk.insert(it, Neighbor{id, dist});
  if (topk.size() > k) topk.pop_back();
}

Result<KnnResults> GtsIndex::KnnQueryBatch(const Dataset& queries, uint32_t k,
                                           GtsQueryStats* stats_out,
                                           const KnnOptions& options) const {
  epoch::Guard guard(&epoch_);  // pin BEFORE the version load
  return KnnQueryBatchOn(Current(), queries, k, options, stats_out);
}

Result<KnnResults> GtsIndex::KnnQueryBatchOn(
    const Version& v, const Dataset& queries, uint32_t k,
    const KnnOptions& options, GtsQueryStats* stats_out,
    double anchor_ns) const {
  // Negated ranges reject NaN, which every ordered comparison fails.
  if (!(options.candidate_fraction > 0.0 &&
        options.candidate_fraction <= 1.0)) {
    return Status::InvalidArgument("candidate_fraction must be in (0, 1]");
  }
  if (!options.initial_bounds.empty() &&
      options.initial_bounds.size() != queries.size()) {
    return Status::InvalidArgument("one initial bound per query required");
  }
  for (const float b : options.initial_bounds) {
    if (!(b >= 0.0f)) {  // rejects negatives and NaN
      return Status::InvalidArgument("initial bounds must be non-negative");
    }
  }
  GTS_RETURN_IF_ERROR(CheckFinite(queries, 0, queries.size()));
  QueryContext ctx(*device_, v);
  if (anchor_ns >= 0.0) ctx.start_ns = anchor_ns;
  ctx.candidate_fraction = options.candidate_fraction;
  auto result = KnnQueryBatchImpl(queries, k, options.initial_bounds, &ctx);
  AccumulateStats(ctx, stats_out);
  return result;
}

Result<KnnResults> GtsIndex::KnnQueryBatchImpl(
    const Dataset& queries, uint32_t k, std::span<const float> initial_bounds,
    QueryContext* ctx) const {
  if (!queries.CompatibleWith(ctx->data())) {
    return Status::InvalidArgument("query objects incompatible with dataset");
  }
  KnnResults out(queries.size());
  if (k == 0) return out;

  std::vector<KnnState> states(queries.size());
  for (auto& s : states) s.k = k;
  for (size_t q = 0; q < initial_bounds.size(); ++q) {
    states[q].cap = initial_bounds[q];
  }

  if (ctx->indexed_count() > 0) {
    const std::vector<Entry> frontier = ProbeKnn(queries, &states, ctx);
    GTS_RETURN_IF_ERROR(KnnLevel(frontier, 1, queries, &states, ctx));
  }
  SearchCacheKnn(queries, &states, ctx);

  for (uint32_t q = 0; q < queries.size(); ++q) {
    out[q] = std::move(states[q].topk);
  }
  return out;
}

std::vector<GtsIndex::Entry> GtsIndex::ProbeKnn(
    const Dataset& queries, std::vector<KnnState>* states,
    QueryContext* ctx) const {
  const uint32_t nc = options_.node_capacity;
  const uint32_t height = ctx->height();
  const std::span<const uint32_t> tl_object = ctx->tl_object();
  const Liveness& live = ctx->live();

  // The walk's stack, by level: the inner node on the current path, its
  // non-empty children as ascending (ring gap bits << 32 | child index)
  // keys, and how many of those the walk has entered.
  std::vector<uint64_t> path(height);
  std::vector<uint64_t> children(static_cast<size_t>(height) * nc);
  std::vector<uint32_t> child_count(height), entered(height);
  // The distance work the probe evaluated at each level, across the batch.
  std::vector<DistanceStats> work(height + 1);
  const auto measure = [&work](uint32_t layer, const DistanceStats& before) {
    const DistanceStats now = DistanceMetric::ThreadStats();
    work[layer].calls += now.calls - before.calls;
    work[layer].ops += now.ops - before.ops;
  };
  std::vector<float> dist;
  // Walks query q's tree from the root until the stop rule holds; returns
  // true when it walked the whole tree instead.
  const auto walk = [&](uint32_t q, KnnState& state) {
    uint64_t node = 1;
    uint32_t layer = 1;
    for (;;) {
      const GtsNode& n = ctx->node(node);
      const DistanceStats before = DistanceMetric::ThreadStats();
      if (layer == height) {
        // One block call per run of alive slots.
        for (uint32_t j = 0; j < n.size;) {
          if (!live.alive(tl_object[n.pos + j])) {
            ++j;
            continue;
          }
          uint32_t run = j + 1;
          while (run < n.size && live.alive(tl_object[n.pos + run])) ++run;
          dist.resize(run - j);
          QuerySlotDistances(queries, q, n.pos + j, run - j, ctx, dist.data());
          for (uint32_t t = j; t < run; ++t) {
            state.Offer(tl_object[n.pos + t], dist[t - j]);
          }
          j = run;
        }
        measure(height, before);
        state.probed_leaves.push_back(static_cast<uint32_t>(node));
        ctx->stats.objects_verified += n.size;
        if (state.topk.size() >= state.k) return false;
      } else {
        float dq;
        QueryObjectDistances(queries, q, std::span(&n.pivot, 1), ctx, &dq);
        measure(layer, before);
        if (live.alive(n.pivot)) state.Offer(n.pivot, dq);
        if (layer == 1) state.root_dq = dq;
        ++ctx->stats.nodes_visited;
        if (!state.probed_leaves.empty() && state.topk.size() >= state.k) {
          return false;
        }
        path[layer] = node;
        uint64_t* keys = &children[(layer - 1) * nc];
        uint32_t m = 0;
        for (uint32_t j = 0; j < nc; ++j) {
          const GtsNode& child = ctx->node(ChildNodeId(node, j, nc));
          if (child.size == 0) continue;
          const float gap =
              std::max({0.0f, child.min_dis - dq, dq - child.max_dis});
          keys[m++] = uint64_t{std::bit_cast<uint32_t>(gap)} << 32 | j;
        }
        std::sort(keys, keys + m);
        child_count[layer] = m;
        entered[layer] = 0;
      }
      // Next: the nearest child not yet entered of the deepest inner node
      // on the path.
      uint32_t up = std::min(layer, height - 1);
      while (up > 0 && entered[up] == child_count[up]) --up;
      if (up == 0) return true;
      const uint64_t key = children[(up - 1) * nc + entered[up]++];
      node = ChildNodeId(path[up], static_cast<uint32_t>(key), nc);
      layer = up + 1;
    }
  };

  std::vector<Entry> frontier;
  frontier.reserve(queries.size());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    KnnState& state = (*states)[q];
    // Initial bounds are non-negative, so only +inf is infinite. A query
    // whose probe walked the whole tree has nothing left to descend into.
    if (std::isinf(state.cap) && walk(q, state)) continue;
    std::sort(state.probed_leaves.begin(), state.probed_leaves.end());
    frontier.push_back(Entry{1, q, kNoParent});
  }

  // Charged level by level, as the descent is: one query's step at a level
  // depends on its step above, so the steps of one level across the batch
  // form one kernel. Per inner level, the pivot distances evaluated there
  // and their ring tests (charged like kernel B); at the leaf level, the
  // verified objects. The charges depend only on the evaluated set, not on
  // the order the host walked it in.
  for (uint32_t layer = 1; layer < height; ++layer) {
    const uint64_t steps = work[layer].calls;
    ctx->clock.ChargeKernel(steps, work[layer].ops);
    ctx->clock.ChargeKernel(steps * nc, steps * nc * 4);
  }
  ctx->clock.ChargeKernel(work[height].calls, work[height].ops);
  return frontier;
}

Status GtsIndex::KnnLevel(std::span<const Entry> frontier, uint32_t layer,
                          const Dataset& queries,
                          std::vector<KnnState>* states,
                          QueryContext* ctx) const {
  if (frontier.empty()) return Status::Ok();
  if (layer == ctx->height()) {
    VerifyKnnLeaves(frontier, queries, states, ctx);
    return Status::Ok();
  }

  const uint32_t nc = options_.node_capacity;
  const auto groups = GroupFrontier(frontier, LevelEntryLimit(layer, *ctx));
  ctx->stats.query_groups += groups.size();

  for (const auto& [begin, end] : groups) {
    const auto group = frontier.subspan(begin, end - begin);

    auto buf_r = gpu::DeviceBuffer<Entry>::Create(
        device_, group.size() * nc, "MkNNQ frontier");
    if (!buf_r.ok()) return buf_r.status();
    auto& buf = buf_r.value();

    // Kernel A: pivot distances, batched per query segment (the frontier
    // is sorted by query); each is an exact object distance and feeds the
    // query's running top-k (Algorithm 5 lines 7-12). The Offers happen
    // after a segment's distances are computed, in the original entry
    // order — the top-k is a selection, so its content is order-free, and
    // the pruning bound is only read after this kernel completes. At the
    // root, a probed query's distance is the probe's, already offered, so
    // the kernel's items are the distances it evaluates.
    std::vector<float> dq(group.size());
    {
      gpu::KernelDistanceScope scope(&ctx->clock, metric_,
                                     gpu::KernelDistanceScope::kAutoItems);
      std::vector<uint32_t> pivots;
      size_t i = 0;
      while (i < group.size()) {
        const float root_dq = (*states)[group[i].query].root_dq;
        if (layer == 1 && !std::isnan(root_dq)) {  // one root entry a query
          dq[i++] = root_dq;
          continue;
        }
        size_t j = i;
        pivots.clear();
        while (j < group.size() && group[j].query == group[i].query) {
          pivots.push_back(ctx->node(group[j].node).pivot);
          ++j;
        }
        QueryObjectDistances(queries, group[i].query, pivots, ctx,
                             dq.data() + i);
        for (size_t t = i; t < j; ++t) {
          if (ctx->live().alive(pivots[t - i])) {
            (*states)[group[t].query].Offer(pivots[t - i], dq[t]);
          }
        }
        i = j;
      }
    }
    // The paper locates the running k-th distance with a device-wide
    // encode-sort of the candidate distances; charge the equivalent.
    ctx->clock.ChargeSort(group.size());
    ctx->stats.nodes_visited += group.size();

    // Kernel B: ring pruning with the current bound (Lemma 5.2).
    size_t emitted = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      const float bound = (*states)[group[i].query].Bound();
      for (uint32_t j = 0; j < nc; ++j) {
        const uint64_t cid = ChildNodeId(group[i].node, j, nc);
        const GtsNode& child = ctx->node(cid);
        if (child.size == 0) continue;
        if (dq[i] - child.max_dis > bound || child.min_dis - dq[i] > bound) {
          ++ctx->stats.nodes_pruned;
          continue;
        }
        buf[emitted++] =
            Entry{static_cast<uint32_t>(cid), group[i].query, dq[i]};
      }
    }
    ctx->clock.ChargeKernel(static_cast<uint64_t>(group.size()) * nc,
                            static_cast<uint64_t>(group.size()) * nc * 4);

    GTS_RETURN_IF_ERROR(KnnLevel(std::span<const Entry>(buf.data(), emitted),
                                 layer + 1, queries, states, ctx));
  }
  return Status::Ok();
}

void GtsIndex::VerifyKnnLeaves(std::span<const Entry> frontier,
                               const Dataset& queries,
                               std::vector<KnnState>* states,
                               QueryContext* ctx) const {
  const std::span<const float> tl_dis = ctx->tl_dis();
  const std::span<const uint32_t> tl_object = ctx->tl_object();
  const Liveness& live = ctx->live();

  // Leaf verification (Algorithm 5's "select the current best k to derive
  // the narrowed bound, then prune"): the bound comes from the probe, or
  // from the caller's cap, and kernels B1 and B2 filter and verify the
  // leaves the probe did not verify. Both run one query segment at a time:
  // the frontier is sorted by query, and a query's top-k depends only on
  // its own candidates. B1 filters the segment's leaf slots through the
  // stored pivot column against the bound; a survivor carries its annulus
  // gap |tl_dis - dq|, a lower bound on its true distance (Lemma 5.2).
  // B2 verifies the survivors in ascending (gap, slot) order, Algorithm
  // 5's encode-sort order, so the bound tightens as early as possible. The
  // table slot breaks gap ties, so ties at the k-th boundary never depend
  // on how the batch was composed (the sharded executor must be
  // byte-identical to the single-threaded batch).
  //
  // A candidate whose gap exceeds the bound the earlier Offers left is
  // skipped. The bound only shrinks while the gaps only grow, so once one
  // candidate is skipped every later one is too: the verified set is a
  // prefix of the order. The host therefore orders each query's
  // candidates lazily (AscendingKeys) and stops at the first skip; the
  // rest is never ordered. The evaluated set, every Offer and every
  // counter are those of the full sort, and ChargeSort below still
  // charges the device-wide encode-sort of the modeled kernel.
  //
  // A candidate is one 64-bit key, the gap's bits above the slot. Gaps are
  // non-negative, so their bit order is their value order; a NaN gap (from
  // a NaN object) orders after +inf instead of breaking the comparison.
  gpu::KernelDistanceScope scope(&ctx->clock, metric_,
                                 gpu::KernelDistanceScope::kAutoItems);
  std::vector<uint64_t> keys;  // reused across query segments
  uint64_t scanned = 0;
  uint64_t candidates = 0;
  for (size_t begin = 0, end = 0; begin < frontier.size(); begin = end) {
    const uint32_t q = frontier[begin].query;
    assert(begin == 0 || frontier[begin - 1].query < q);  // one segment
    KnnState& state = (*states)[q];
    const float bound = state.Bound();
    // The segment's leaves ascend by node id, as do the probed ones, so
    // one merge pass finds the leaves the probe already verified.
    const std::vector<uint32_t>& probed = state.probed_leaves;
    size_t next_probed = 0;
    keys.clear();
    for (end = begin; end < frontier.size() && frontier[end].query == q;
         ++end) {
      const Entry& e = frontier[end];
      assert(end == begin || frontier[end - 1].node < e.node);
      while (next_probed < probed.size() && probed[next_probed] < e.node) {
        ++next_probed;
      }
      if (next_probed < probed.size() && probed[next_probed] == e.node) {
        continue;  // verified by the probe
      }
      const GtsNode& leaf = ctx->node(e.node);
      const bool has_parent = e.node != 1;
      scanned += leaf.size;
      for (uint32_t j = 0; j < leaf.size; ++j) {
        const uint32_t idx = leaf.pos + j;
        const float gap =
            has_parent ? std::fabs(tl_dis[idx] - e.parent_dq) : 0.0f;
        if (gap > bound) continue;
        if (!live.alive(tl_object[idx])) continue;
        keys.push_back(uint64_t{std::bit_cast<uint32_t>(gap)} << 32 | idx);
      }
    }
    candidates += keys.size();

    // Approximate mode: only the best fraction of the query's candidates
    // (never fewer than 2k) may be visited; exact mode visits all.
    size_t budget = keys.size();
    if (ctx->candidate_fraction < 1.0) {
      budget = std::min<size_t>(
          budget,
          std::max<uint32_t>(state.k * 2,
                             static_cast<uint32_t>(ctx->candidate_fraction *
                                                   keys.size())));
    }
    AscendingKeys order(keys);
    for (; budget > 0; --budget) {
      const uint64_t key = order.Next();
      const float gap = std::bit_cast<float>(static_cast<uint32_t>(key >> 32));
      if (gap > state.Bound()) break;
      const uint32_t id = tl_object[static_cast<uint32_t>(key)];
      state.Offer(id, QueryObjectDistance(queries, q, id, ctx));
    }
  }
  ctx->clock.ChargeKernel(scanned, scanned * 2);
  ctx->stats.objects_verified += scanned;
  ctx->clock.ChargeSort(candidates);
}

void GtsIndex::SearchCacheKnn(const Dataset& queries,
                              std::vector<KnnState>* states,
                              QueryContext* ctx) const {
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
      (*states)[q].Offer(ids[i], dist[i]);
    }
  }
}

}  // namespace gts
