#include "baselines/gpu_tree.h"

#include <algorithm>
#include <numeric>

#include "gpu/primitives.h"

namespace gts {

GpuTree::~GpuTree() {
  if (context_.device != nullptr && resident_bytes_ > 0) {
    context_.device->Free(resident_bytes_);
  }
}

Status GpuTree::Build(const Dataset* data, const DistanceMetric* metric) {
  if (!metric->SupportsKind(data->kind())) {
    return Status::Unsupported("metric does not support this data kind");
  }
  data_ = data;
  metric_ = metric;
  trees_.assign(kNumTrees, {});
  shard_of_.assign(data->size(), 0);
  tombstone_.assign(data->size(), 0);
  if (resident_bytes_ > 0) {
    context_.device->Free(resident_bytes_);
    resident_bytes_ = 0;
  }

  const uint32_t n = data->size();
  avg_object_bytes_ = n > 0 ? std::max<uint64_t>(8, data->TotalBytes() / n) : 8;

  // Shuffled round-robin sharding into kNumTrees small trees.
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  Rng rng(context_.seed);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformU64(i)]);
  }
  std::vector<std::vector<uint32_t>> shards(kNumTrees);
  for (uint32_t i = 0; i < n; ++i) {
    shards[i % kNumTrees].push_back(ids[i]);
    shard_of_[ids[i]] = i % kNumTrees;
  }
  for (uint32_t t = 0; t < kNumTrees; ++t) {
    if (!shards[t].empty()) {
      BuildNode(std::move(shards[t]), &trees_[t], &rng);
    }
  }

  uint64_t bytes = data->TotalBytes() + IndexBytes();
  const Status alloc = context_.device->Allocate(bytes, "GPU-Tree index");
  if (!alloc.ok()) {
    trees_.clear();
    return alloc;
  }
  resident_bytes_ = bytes;
  context_.device->clock().ChargeRawNs(static_cast<double>(bytes) *
                                       gpu::kPcieNsPerByte);
  return Status::Ok();
}

int32_t GpuTree::BuildNode(std::vector<uint32_t> ids, std::vector<Node>* tree,
                           Rng* rng) {
  const int32_t idx = static_cast<int32_t>(tree->size());
  tree->emplace_back();

  // One kernel (block) per node — the G-PICS construction pattern whose
  // launch overhead dominates build time.
  const uint64_t start_ops = metric_->stats().ops;

  if (ids.size() <= kLeafSize) {
    (*tree)[idx].leaf = true;
    (*tree)[idx].bucket = std::move(ids);
    context_.device->clock().ChargeKernel(1, 4);
    return idx;
  }

  const uint32_t vp = ids[rng->UniformU64(ids.size())];
  std::vector<float> dv(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    dv[i] = metric_->Distance(*data_, ids[i], vp);
  }
  // One *block* per node: only a block's worth of lanes participates, so
  // the per-item charge is paid at block width, not device width — the
  // construction bottleneck the paper measures in Table 4.
  context_.device->clock().ChargeKernel(
      std::min<uint64_t>(ids.size(), kBlockLanes),
      metric_->stats().ops - start_ops);

  std::vector<uint32_t> keys(ids.size()), order(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) keys[i] = gpu::FloatKey(dv[i]);
  std::iota(order.begin(), order.end(), 0u);
  gpu::RadixSort(keys, order);
  context_.device->clock().ChargeSort(ids.size());

  (*tree)[idx].vp = vp;
  (*tree)[idx].children.assign(kFanout, -1);
  (*tree)[idx].ring_lo.assign(kFanout, 0.0f);
  (*tree)[idx].ring_hi.assign(kFanout, 0.0f);

  const size_t per_child = ids.size() / kFanout;
  size_t begin = 0;
  for (uint32_t c = 0; c < kFanout; ++c) {
    const size_t end = (c + 1 == kFanout) ? ids.size() : begin + per_child;
    if (begin < end) {
      std::vector<uint32_t> child_ids;
      child_ids.reserve(end - begin);
      float lo = std::numeric_limits<float>::infinity(), hi = 0.0f;
      for (size_t i = begin; i < end; ++i) {
        child_ids.push_back(ids[order[i]]);
        lo = std::min(lo, dv[order[i]]);
        hi = std::max(hi, dv[order[i]]);
      }
      const int32_t child = BuildNode(std::move(child_ids), tree, rng);
      (*tree)[idx].children[c] = child;
      (*tree)[idx].ring_lo[c] = lo;
      (*tree)[idx].ring_hi[c] = hi;
    }
    begin = end;
  }
  return idx;
}

Result<gpu::DeviceBuffer<uint8_t>> GpuTree::ReserveBlockBuffers(
    uint32_t batch) const {
  // One block per (query, tree); each block reserves a fixed buffer of
  // candidate object copies plus bookkeeping, sized pessimistically from
  // the shard. No grouping fallback (the G-PICS flaw): an allocation
  // failure is the paper's memory deadlock.
  const uint64_t shard =
      std::max<uint64_t>(1, data_->size() / kNumTrees);
  const uint64_t slots = std::max<uint64_t>(1, shard / kSlotDivisor);
  const uint64_t bytes =
      uint64_t{batch} * kNumTrees * slots * (avg_object_bytes_ + 8);
  auto buf = gpu::DeviceBuffer<uint8_t>::Create(context_.device, bytes,
                                                "GPU-Tree block buffers");
  if (!buf.ok()) {
    return Status::Deadlock("GPU-Tree fixed block buffers exceed device memory: " +
                            buf.status().message());
  }
  return buf;
}

void GpuTree::CollectRangeCandidates(const std::vector<Node>& tree,
                                     int32_t node, const Dataset& queries,
                                     uint32_t q, float r,
                                     std::vector<uint32_t>* candidates) const {
  const Node& n = tree[node];
  if (n.leaf) {
    for (const uint32_t id : n.bucket) {
      if (!tombstone_[id]) candidates->push_back(id);
    }
    return;
  }
  const float dv = metric_->Distance(queries, q, *data_, n.vp);
  for (uint32_t c = 0; c < kFanout; ++c) {
    if (n.children[c] < 0) continue;
    if (dv + r < n.ring_lo[c] || dv - r > n.ring_hi[c]) continue;
    CollectRangeCandidates(tree, n.children[c], queries, q, r, candidates);
  }
}

Result<RangeResults> GpuTree::RangeBatch(const Dataset& queries,
                                         std::span<const float> radii) {
  RangeResults out(queries.size());
  if (trees_.empty()) return Status::Internal("GPU-Tree not built");

  auto blocks = ReserveBlockBuffers(queries.size());
  if (!blocks.ok()) return blocks.status();

  // Traversal: one block per (query, tree).
  uint64_t total_candidates = 0;
  std::vector<std::vector<uint32_t>> candidates(queries.size());
  {
    gpu::KernelDistanceScope scope(context_.device, metric_,
                                   gpu::KernelDistanceScope::kAutoItems);
    for (uint32_t q = 0; q < queries.size(); ++q) {
      for (const auto& tree : trees_) {
        if (tree.empty()) continue;
        CollectRangeCandidates(tree, 0, queries, q, radii[q], &candidates[q]);
      }
      total_candidates += candidates[q].size();
    }
  }

  // Candidates beyond the fixed slots spill into a global overflow pool of
  // object copies; if that pool cannot be allocated the batch deadlocks.
  const uint64_t slot_capacity =
      uint64_t{queries.size()} * kNumTrees *
      std::max<uint64_t>(1, data_->size() / kNumTrees / kSlotDivisor);
  if (total_candidates > slot_capacity) {
    // Spilled candidates are (id, dist) pairs awaiting verification.
    auto overflow = gpu::DeviceBuffer<uint8_t>::Create(
        context_.device, (total_candidates - slot_capacity) * 8,
        "GPU-Tree overflow pool");
    if (!overflow.ok()) {
      return Status::Deadlock("GPU-Tree result overflow: " +
                              overflow.status().message());
    }
    // Verification below happens while the pool is alive.
    gpu::KernelDistanceScope scope(context_.device, metric_, total_candidates);
    for (uint32_t q = 0; q < queries.size(); ++q) {
      for (const uint32_t id : candidates[q]) {
        if (metric_->Distance(queries, q, *data_, id) <= radii[q]) {
          out[q].push_back(id);
        }
      }
    }
    return out;
  }

  gpu::KernelDistanceScope scope(context_.device, metric_, total_candidates);
  for (uint32_t q = 0; q < queries.size(); ++q) {
    for (const uint32_t id : candidates[q]) {
      if (metric_->Distance(queries, q, *data_, id) <= radii[q]) {
        out[q].push_back(id);
      }
    }
  }
  return out;
}

void GpuTree::KnnRec(const std::vector<Node>& tree, int32_t node,
                     const Dataset& queries, uint32_t q, TopK* topk) const {
  const Node& n = tree[node];
  if (n.leaf) {
    for (const uint32_t id : n.bucket) {
      if (tombstone_[id]) continue;
      topk->Offer(id, metric_->Distance(queries, q, *data_, id));
    }
    return;
  }
  const float dv = metric_->Distance(queries, q, *data_, n.vp);
  std::vector<uint32_t> order;
  for (uint32_t c = 0; c < kFanout; ++c) {
    if (n.children[c] >= 0) order.push_back(c);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const auto gap = [&](uint32_t c) {
      if (dv < n.ring_lo[c]) return n.ring_lo[c] - dv;
      if (dv > n.ring_hi[c]) return dv - n.ring_hi[c];
      return 0.0f;
    };
    return gap(a) < gap(b);
  });
  for (const uint32_t c : order) {
    const float bound = topk->Bound();
    if (dv + bound < n.ring_lo[c] || dv - bound > n.ring_hi[c]) continue;
    KnnRec(tree, n.children[c], queries, q, topk);
  }
}

Result<KnnResults> GpuTree::KnnBatch(const Dataset& queries, uint32_t k) {
  KnnResults out(queries.size());
  if (trees_.empty()) return Status::Internal("GPU-Tree not built");
  if (k == 0) return out;

  auto blocks = ReserveBlockBuffers(queries.size());
  if (!blocks.ok()) return blocks.status();

  gpu::KernelDistanceScope scope(context_.device, metric_,
                                 gpu::KernelDistanceScope::kAutoItems);
  for (uint32_t q = 0; q < queries.size(); ++q) {
    // Each (query, tree) block runs an independent k-search (no cross-tree
    // bound sharing — the forest inefficiency); merged afterwards.
    TopK merged(k);
    for (const auto& tree : trees_) {
      if (tree.empty()) continue;
      TopK local(k);
      KnnRec(tree, 0, queries, q, &local);
      for (const Neighbor& nb : local.items) merged.Offer(nb.id, nb.dist);
    }
    context_.device->clock().ChargeSort(uint64_t{kNumTrees} * k);
    out[q] = std::move(merged.items);
  }
  return out;
}

uint64_t GpuTree::IndexBytes() const {
  uint64_t bytes = 0;
  for (const auto& tree : trees_) {
    for (const Node& n : tree) {
      bytes += 24;
      bytes += (n.ring_lo.size() + n.ring_hi.size()) * 4;
      bytes += n.children.size() * 4 + n.bucket.size() * 4;
    }
  }
  return bytes;
}

void GpuTree::DescendTouch(const std::vector<Node>& tree, uint32_t id) const {
  int32_t node = 0;
  while (node >= 0 && !tree[node].leaf) {
    const Node& n = tree[node];
    // Structural navigation on a single lane: one kernel per level — the
    // per-update bottleneck the paper attributes to GPU-Tree (Fig. 5a).
    const uint64_t start_ops = metric_->stats().ops;
    const float dv = metric_->Distance(*data_, id, n.vp);
    context_.device->clock().ChargeKernel(1, metric_->stats().ops - start_ops);
    int32_t next = -1;
    for (uint32_t c = 0; c < kFanout; ++c) {
      if (n.children[c] < 0) continue;
      next = n.children[c];
      if (dv <= n.ring_hi[c]) break;
    }
    node = next;
  }
}

Status GpuTree::StreamRemoveInsert(uint32_t id) {
  if (trees_.empty()) return Status::Internal("GPU-Tree not built");
  const auto& tree = trees_[shard_of_[id]];
  if (tree.empty()) return Status::Ok();
  DescendTouch(tree, id);
  tombstone_[id] = 1;
  DescendTouch(tree, id);
  tombstone_[id] = 0;
  return Status::Ok();
}

}  // namespace gts
