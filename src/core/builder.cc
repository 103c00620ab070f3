// Level-synchronous index construction (paper Algorithms 1-3).
//
// Per level: FFT pivot selection inside every node (Algorithm 2), then one
// *global* encode-sort-partition pass (Algorithm 3) that splits all nodes of
// the level at once — the key idea that turns tree construction into flat,
// device-wide kernels.
//
// The builder is a pure producer: it writes only into the TreeTables it is
// handed (plus the thread-safe device clock and metric counters), never into
// published index state. That is what lets Rebuild run double-buffered — a
// full build proceeds beside live readers of the current version, and the
// writer swaps the finished tables in with one atomic publication.

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/gts.h"
#include "gpu/primitives.h"

namespace gts {

Status GtsIndex::BuildTreeOver(const Dataset& data, std::vector<uint32_t> ids,
                               uint64_t rebuild_seq, TreeTables* out) const {
  const uint32_t nc = options_.node_capacity;
  const uint64_t n = ids.size();

  out->height = TreeHeight(n, nc);
  const uint64_t total = TotalNodes(out->height, nc);
  out->node_list.assign(total + 1, GtsNode{});
  out->tl_object = std::move(ids);
  out->tl_dis.assign(n, 0.0f);
  out->indexed_count = static_cast<uint32_t>(n);

  GtsNode& root = out->node_list[1];
  root.pos = 0;
  root.size = static_cast<uint32_t>(n);

  // Table-list initialization kernel (Algorithm 1 lines 4-5).
  device_->clock().ChargeKernel(n, n);

  Rng rng(options_.seed + 0x9e3779b9ull * rebuild_seq);
  for (uint32_t layer = 1; layer + 1 <= out->height; ++layer) {
    MapLevel(data, layer, &rng, out);
    GTS_RETURN_IF_ERROR(PartitionLevel(layer, out));
  }
  // Lane-pack the final table-list order for the block kernels. A pure
  // host-side layout copy: no metric work, no modeled device charge.
  out->pack = SoaPack::Pack(data, out->tl_object);
  return Status::Ok();
}

// FFT pivot selection (paper §4.3): the pivot of a node is the object
// farthest from the existing (ancestor) pivots; the root's pivot is random,
// following FFT/BPS/HF practice validated in [62]. The distance column to
// the parent's pivot is already resident in the table list, so only deeper
// ancestors cost extra distance computations.
uint32_t GtsIndex::SelectPivotFft(const Dataset& data, const TreeTables& t,
                                  uint64_t node_id, Rng* rng) const {
  const uint32_t nc = options_.node_capacity;
  const GtsNode& node = t.node_list[node_id];
  assert(node.size > 0);

  if (node_id == 1) {
    return t.tl_object[node.pos + rng->UniformU64(node.size)];
  }

  // Reference pivots: parent first, then deeper ancestors (capped).
  std::vector<uint32_t> refs;
  uint64_t ancestor = ParentNodeId(node_id, nc);
  for (;;) {
    refs.push_back(t.node_list[ancestor].pivot);
    if (ancestor == 1 || refs.size() >= options_.fft_ancestors) break;
    ancestor = ParentNodeId(ancestor, nc);
  }

  // Score = min distance to the reference set; tl_dis caches the parent
  // column, deeper ancestors are scored one batched kernel call per
  // reference (ref-major instead of the historical object-major order —
  // the same distance multiset, and min() commutes, so the selected pivot
  // and every counter total are unchanged).
  const auto objs = std::span<const uint32_t>(t.tl_object)
                        .subspan(node.pos, node.size);
  std::vector<float> score(t.tl_dis.begin() + node.pos,
                           t.tl_dis.begin() + node.pos + node.size);
  std::vector<float> dist(node.size);
  for (size_t rix = 1; rix < refs.size(); ++rix) {
    metric_->DistanceBatch(data, refs[rix], data, objs, dist.data());
    for (uint32_t j = 0; j < node.size; ++j) {
      score[j] = std::min(score[j], dist[j]);
    }
  }
  uint32_t best = objs[0];
  float best_score = -1.0f;
  for (uint32_t j = 0; j < node.size; ++j) {
    if (score[j] > best_score) {
      best_score = score[j];
      best = objs[j];
    }
  }
  return best;
}

void GtsIndex::MapLevel(const Dataset& data, uint32_t layer, Rng* rng,
                        TreeTables* t) const {
  const uint32_t nc = options_.node_capacity;
  const uint64_t start = LevelStart(layer, nc);
  const uint64_t count = LevelCount(layer, nc);

  // --- Pivot selection (one kernel: a block per node, threads per object).
  const uint64_t fft_ops_before = metric_->stats().ops;
  uint64_t fft_items = 0;
  for (uint64_t i = 0; i < count; ++i) {
    GtsNode& node = t->node_list[start + i];
    if (node.size == 0) continue;
    node.pivot = SelectPivotFft(data, *t, start + i, rng);
    if (layer > 1 && options_.fft_ancestors > 1) {
      fft_items += node.size;  // extra-ancestor distances per object
    }
  }
  if (fft_items > 0) {
    device_->clock().ChargeKernel(fft_items,
                                  metric_->stats().ops - fft_ops_before);
  }
  device_->clock().ChargeScan(t->indexed_count);  // per-node argmax reduction

  // --- Distance fill (Algorithm 2 lines 6-7): d(object, node pivot).
  // One batched kernel call per node, with the pivot's own slot written as
  // literal zero exactly like the historical per-object loop — it is NOT a
  // metric evaluation and must not be charged as one.
  gpu::KernelDistanceScope scope(device_, metric_, t->indexed_count);
  std::vector<uint32_t> ids;
  std::vector<uint32_t> slots;
  std::vector<float> dist;
  for (uint64_t i = 0; i < count; ++i) {
    const GtsNode& node = t->node_list[start + i];
    ids.clear();
    slots.clear();
    for (uint32_t j = 0; j < node.size; ++j) {
      const uint32_t obj = t->tl_object[node.pos + j];
      if (obj == node.pivot) {
        t->tl_dis[node.pos + j] = 0.0f;
      } else {
        ids.push_back(obj);
        slots.push_back(node.pos + j);
      }
    }
    dist.resize(ids.size());
    metric_->DistanceBatch(data, node.pivot, data, ids, dist.data());
    for (size_t j = 0; j < ids.size(); ++j) t->tl_dis[slots[j]] = dist[j];
  }
}

Status GtsIndex::PartitionLevel(uint32_t layer, TreeTables* t) const {
  const uint32_t nc = options_.node_capacity;
  const uint64_t start = LevelStart(layer, nc);
  const uint64_t count = LevelCount(layer, nc);
  const uint64_t n = t->indexed_count;

  // Normalization pass (Algorithm 3 lines 1-2): the paper's key divides
  // by the largest distance. The exact key below needs no bound, but the
  // modeled device still runs the pass.
  device_->clock().ChargeScan(n);

  // Encoding kernel (lines 3-6): node rank in the level, then the distance
  // to the node's pivot (gpu::TableKey).
  auto keys_r = gpu::DeviceBuffer<uint64_t>::Create(device_, n, "encode keys");
  if (!keys_r.ok()) return keys_r.status();
  auto& keys = keys_r.value();
  assert(count <= UINT32_MAX);
  for (uint64_t i = 0; i < count; ++i) {
    const GtsNode& node = t->node_list[start + i];
    for (uint32_t j = 0; j < node.size; ++j) {
      keys[node.pos + j] = gpu::TableKey(static_cast<uint32_t>(i),
                                         t->tl_dis[node.pos + j]);
    }
  }
  device_->clock().ChargeKernel(n, 2 * n);

  // Global concurrent sort (line 7) carrying the table list.
  gpu::SortTableByKey(device_, std::span<uint64_t>(keys.data(), n),
                      t->tl_object, t->tl_dis);

  // Child construction (lines 8-18): objects are split evenly; the last
  // child absorbs the remainder. Note: the paper's line 15 advances child
  // positions by Nc — a typo; positions must advance by the child size.
  for (uint64_t i = 0; i < count; ++i) {
    const GtsNode& node = t->node_list[start + i];
    const uint32_t avg = node.size / nc;
    for (uint32_t j = 0; j < nc; ++j) {
      GtsNode& child = t->node_list[ChildNodeId(start + i, j, nc)];
      child.pos = node.pos + j * avg;
      child.size = (j + 1 < nc) ? avg : node.size - avg * (nc - 1);
      child.pivot = kInvalidId;
      if (child.size > 0) {
        child.min_dis = t->tl_dis[child.pos];
        child.max_dis = t->tl_dis[child.pos + child.size - 1];
      }
    }
  }
  device_->clock().ChargeKernel(count * nc, 4 * count * nc);
  return Status::Ok();
}

}  // namespace gts
