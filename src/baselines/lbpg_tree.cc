#include "baselines/lbpg_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gpu/primitives.h"

namespace gts {

LbpgTree::~LbpgTree() {
  if (context_.device != nullptr && resident_bytes_ > 0) {
    context_.device->Free(resident_bytes_);
  }
}

void LbpgTree::ComputeMbr(Node* node) const {
  const uint32_t dim = data_->dim();
  node->lo.assign(dim, std::numeric_limits<float>::infinity());
  node->hi.assign(dim, -std::numeric_limits<float>::infinity());
  for (const uint32_t id : node->bucket) {
    const auto v = data_->Vector(id);
    for (uint32_t d = 0; d < dim; ++d) {
      node->lo[d] = std::min(node->lo[d], v[d]);
      node->hi[d] = std::max(node->hi[d], v[d]);
    }
  }
  for (const int32_t c : node->children) {
    for (uint32_t d = 0; d < dim; ++d) {
      node->lo[d] = std::min(node->lo[d], nodes_[c].lo[d]);
      node->hi[d] = std::max(node->hi[d], nodes_[c].hi[d]);
    }
  }
}

Status LbpgTree::Build(const Dataset* data, const DistanceMetric* metric) {
  if (!Supports(*data, *metric)) {
    return Status::Unsupported("LBPG-Tree requires Lp-norm vector data");
  }
  data_ = data;
  metric_ = metric;
  nodes_.clear();
  root_ = -1;
  if (resident_bytes_ > 0) {
    context_.device->Free(resident_bytes_);
    resident_bytes_ = 0;
  }

  const uint32_t n = data->size();
  if (n == 0) return Status::Ok();

  // STR bulk load: slice by dim 0, sort slices by dim 1, pack leaves.
  std::vector<uint32_t> ids(n), keys(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (uint32_t i = 0; i < n; ++i) keys[i] = gpu::FloatKey(data->Vector(i)[0]);
  gpu::RadixSort(keys, ids);
  context_.device->clock().ChargeSort(n);
  const uint32_t num_leaves = (n + kLeafSize - 1) / kLeafSize;
  const uint32_t num_slices = static_cast<uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const uint32_t slice_len = (n + num_slices - 1) / num_slices;
  if (data->dim() > 1) {
    for (uint32_t s = 0; s < num_slices; ++s) {
      const uint32_t b = s * slice_len;
      const uint32_t e = std::min(n, b + slice_len);
      if (b >= e) break;
      for (uint32_t i = b; i < e; ++i) {
        keys[i] = gpu::FloatKey(data->Vector(ids[i])[1]);
      }
      gpu::RadixSort(std::span(keys).subspan(b, e - b),
                     std::span(ids).subspan(b, e - b));
    }
    context_.device->clock().ChargeSort(n);
  }

  // Leaf level.
  std::vector<int32_t> level;
  for (uint32_t b = 0; b < n; b += kLeafSize) {
    const uint32_t e = std::min(n, b + kLeafSize);
    Node leaf;
    leaf.bucket.assign(ids.begin() + b, ids.begin() + e);
    nodes_.push_back(std::move(leaf));
    ComputeMbr(&nodes_.back());
    level.push_back(static_cast<int32_t>(nodes_.size()) - 1);
  }
  context_.device->clock().ChargeKernel(n, uint64_t{n} * data->dim());

  // Upper levels.
  while (level.size() > 1) {
    std::vector<int32_t> next;
    for (size_t b = 0; b < level.size(); b += kFanout) {
      const size_t e = std::min(level.size(), b + kFanout);
      Node parent;
      parent.children.assign(level.begin() + b, level.begin() + e);
      nodes_.push_back(std::move(parent));
      ComputeMbr(&nodes_.back());
      next.push_back(static_cast<int32_t>(nodes_.size()) - 1);
    }
    context_.device->clock().ChargeKernel(level.size(),
                                          level.size() * data->dim() * 2);
    level = std::move(next);
  }
  root_ = level.empty() ? -1 : level[0];

  const uint64_t bytes = data->TotalBytes() + IndexBytes();
  const Status alloc = context_.device->Allocate(bytes, "LBPG-Tree index");
  if (!alloc.ok()) {
    nodes_.clear();
    return alloc;
  }
  resident_bytes_ = bytes;
  context_.device->clock().ChargeRawNs(static_cast<double>(bytes) *
                                       gpu::kPcieNsPerByte);
  return Status::Ok();
}

float LbpgTree::MinDist(const Dataset& queries, uint32_t q,
                        const Node& node) const {
  const auto v = queries.Vector(q);
  const uint32_t dim = queries.dim();
  double acc = 0.0;
  for (uint32_t d = 0; d < dim; ++d) {
    float gap = 0.0f;
    if (v[d] < node.lo[d]) gap = node.lo[d] - v[d];
    else if (v[d] > node.hi[d]) gap = v[d] - node.hi[d];
    if (metric_->kind() == MetricKind::kL1) {
      acc += gap;
    } else {
      acc += static_cast<double>(gap) * gap;
    }
  }
  return metric_->kind() == MetricKind::kL1
             ? static_cast<float>(acc)
             : static_cast<float>(std::sqrt(acc));
}

Result<RangeResults> LbpgTree::RangeBatch(const Dataset& queries,
                                          std::span<const float> radii) {
  RangeResults out(queries.size());
  if (root_ < 0) return out;

  // Level-synchronous descent; frontier allocations are NOT grouped, so a
  // poorly-pruning (high-dimensional) workload exhausts device memory.
  std::vector<FrontierEntry> frontier;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    frontier.push_back(FrontierEntry{root_, q, 0.0f});
  }
  while (!frontier.empty()) {
    bool leaves = nodes_[frontier[0].node].children.empty();
    if (leaves) break;
    auto buf_r = gpu::DeviceBuffer<FrontierEntry>::Create(
        context_.device, frontier.size() * kFanout, "LBPG frontier");
    if (!buf_r.ok()) return buf_r.status();
    auto& buf = buf_r.value();
    size_t emitted = 0;
    uint64_t tests = 0;
    for (const FrontierEntry& e : frontier) {
      for (const int32_t c : nodes_[e.node].children) {
        ++tests;
        const float md = MinDist(queries, e.query, nodes_[c]);
        if (md <= radii[e.query]) {
          buf[emitted++] = FrontierEntry{c, e.query, md};
        }
      }
    }
    context_.device->clock().ChargeKernel(tests, tests * queries.dim() * 2);
    context_.device->clock().ChargeSort(emitted);  // candidate compaction
    frontier.assign(buf.data(), buf.data() + emitted);
  }

  // Leaf verification: candidates are first compacted and sorted into a
  // device staging area (LBPG-Tree's candidate scheduling), sized without
  // grouping — the allocation that the 282-d dimension curse overruns.
  uint64_t verified = 0;
  for (const FrontierEntry& e : frontier) verified += nodes_[e.node].bucket.size();
  auto staging = gpu::DeviceBuffer<FrontierEntry>::Create(
      context_.device, verified, "LBPG candidate staging");
  if (!staging.ok()) return staging.status();
  context_.device->clock().ChargeSort(verified);
  gpu::KernelDistanceScope scope(context_.device, metric_, verified);
  for (const FrontierEntry& e : frontier) {
    for (const uint32_t id : nodes_[e.node].bucket) {
      if (metric_->Distance(queries, e.query, *data_, id) <= radii[e.query]) {
        out[e.query].push_back(id);
      }
    }
  }
  for (auto& v : out) std::sort(v.begin(), v.end());
  return out;
}

void LbpgTree::SeedKnnBound(const Dataset& queries, uint32_t q,
                            TopK* topk) const {
  int32_t node = root_;
  while (node >= 0 && !nodes_[node].children.empty()) {
    int32_t best = -1;
    float best_md = std::numeric_limits<float>::infinity();
    for (const int32_t c : nodes_[node].children) {
      const float md = MinDist(queries, q, nodes_[c]);
      if (md < best_md) {
        best_md = md;
        best = c;
      }
    }
    node = best;
  }
  if (node < 0) return;
  for (const uint32_t id : nodes_[node].bucket) {
    topk->Offer(id, metric_->Distance(queries, q, *data_, id));
  }
}

Result<KnnResults> LbpgTree::KnnBatch(const Dataset& queries, uint32_t k) {
  KnnResults out(queries.size());
  if (root_ < 0 || k == 0) return out;

  // Phase 1: greedy descent seeds the bound (the schedule optimization of
  // LBPG-Tree's compact-and-sort candidate processing).
  std::vector<TopK> states(queries.size(), TopK(k));
  {
    gpu::KernelDistanceScope scope(context_.device, metric_,
                                   gpu::KernelDistanceScope::kAutoItems);
    for (uint32_t q = 0; q < queries.size(); ++q) {
      SeedKnnBound(queries, q, &states[q]);
    }
  }

  // Phase 2: level-synchronous descent with MBR mindist pruning.
  std::vector<FrontierEntry> frontier;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    frontier.push_back(FrontierEntry{root_, q, 0.0f});
  }
  while (!frontier.empty() && !nodes_[frontier[0].node].children.empty()) {
    auto buf_r = gpu::DeviceBuffer<FrontierEntry>::Create(
        context_.device, frontier.size() * kFanout, "LBPG kNN frontier");
    if (!buf_r.ok()) return buf_r.status();
    auto& buf = buf_r.value();
    size_t emitted = 0;
    uint64_t tests = 0;
    for (const FrontierEntry& e : frontier) {
      for (const int32_t c : nodes_[e.node].children) {
        ++tests;
        const float md = MinDist(queries, e.query, nodes_[c]);
        if (md <= states[e.query].Bound()) {
          buf[emitted++] = FrontierEntry{c, e.query, md};
        }
      }
    }
    context_.device->clock().ChargeKernel(tests, tests * queries.dim() * 2);
    context_.device->clock().ChargeSort(emitted);
    frontier.assign(buf.data(), buf.data() + emitted);
  }

  uint64_t verified = 0;
  for (const FrontierEntry& e : frontier) verified += nodes_[e.node].bucket.size();
  auto staging = gpu::DeviceBuffer<FrontierEntry>::Create(
      context_.device, verified, "LBPG candidate staging");
  if (!staging.ok()) return staging.status();
  context_.device->clock().ChargeSort(verified);
  gpu::KernelDistanceScope scope(context_.device, metric_, verified);
  for (const FrontierEntry& e : frontier) {
    for (const uint32_t id : nodes_[e.node].bucket) {
      states[e.query].Offer(id,
                            metric_->Distance(queries, e.query, *data_, id));
    }
  }
  for (uint32_t q = 0; q < queries.size(); ++q) {
    out[q] = std::move(states[q].items);
  }
  return out;
}

uint64_t LbpgTree::IndexBytes() const {
  uint64_t bytes = 0;
  for (const Node& n : nodes_) {
    bytes += 16;
    bytes += (n.lo.size() + n.hi.size()) * 4;  // the dimension-curse term
    bytes += n.children.size() * 4 + n.bucket.size() * 4;
  }
  return bytes;
}

}  // namespace gts
