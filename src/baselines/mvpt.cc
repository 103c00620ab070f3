#include "baselines/mvpt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gpu/primitives.h"

namespace gts {

Status Mvpt::Build(const Dataset* data, const DistanceMetric* metric) {
  if (!metric->SupportsKind(data->kind())) {
    return Status::Unsupported("metric does not support this data kind");
  }
  data_ = data;
  metric_ = metric;
  nodes_.clear();
  tombstone_.assign(data->size(), 0);

  const uint64_t start_ops = metric_->stats().ops;
  std::vector<uint32_t> ids(data->size());
  std::iota(ids.begin(), ids.end(), 0u);
  Rng rng(context_.seed);
  if (!ids.empty()) {
    BuildNode(std::move(ids), std::vector<std::vector<float>>(data->size()),
              &rng);
  }
  ChargeMetricDelta(1, start_ops);
  ChargeOps(1, nodes_.size() * 8);

  if (IndexBytes() > context_.host_memory_bytes) {
    return Status::MemoryLimit("MVPT index exceeds host memory budget");
  }
  return Status::Ok();
}

int32_t Mvpt::BuildNode(std::vector<uint32_t> ids,
                        std::vector<std::vector<float>> cols, Rng* rng) {
  const int32_t idx = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();

  if (ids.size() <= kLeafSize) {
    Node& leaf = nodes_[idx];
    leaf.leaf = true;
    leaf.path_len = ids.empty() ? 0 : static_cast<uint32_t>(cols[0].size());
    leaf.bucket = ids;
    leaf.path_dists.reserve(ids.size() * leaf.path_len);
    for (const auto& col : cols) {
      for (const float d : col) leaf.path_dists.push_back(d);
    }
    return idx;
  }

  // Vantage point: the object farthest from the previous vantage point
  // (an FFT-style outlier pick); random at the root.
  uint32_t vp;
  if (cols[0].empty()) {
    vp = ids[rng->UniformU64(ids.size())];
  } else {
    size_t best_i = 0;
    for (size_t i = 1; i < ids.size(); ++i) {
      if (cols[i].back() > cols[best_i].back()) best_i = i;
    }
    vp = ids[best_i];
  }

  std::vector<float> dv(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    dv[i] = metric_->Distance(*data_, ids[i], vp);
  }

  std::vector<uint32_t> keys(ids.size()), order(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) keys[i] = gpu::FloatKey(dv[i]);
  std::iota(order.begin(), order.end(), 0u);
  gpu::RadixSort(keys, order);

  Node& node = nodes_[idx];
  node.vp = vp;
  node.children.assign(kFanout, -1);
  node.ring_lo.assign(kFanout, 0.0f);
  node.ring_hi.assign(kFanout, 0.0f);

  const size_t per_child = ids.size() / kFanout;
  std::vector<std::pair<size_t, size_t>> slices;
  size_t begin = 0;
  for (uint32_t c = 0; c < kFanout; ++c) {
    const size_t end = (c + 1 == kFanout) ? ids.size() : begin + per_child;
    slices.emplace_back(begin, end);
    begin = end;
  }

  for (uint32_t c = 0; c < kFanout; ++c) {
    const auto [b, e] = slices[c];
    if (b >= e) continue;
    std::vector<uint32_t> child_ids;
    std::vector<std::vector<float>> child_cols;
    child_ids.reserve(e - b);
    child_cols.reserve(e - b);
    float lo = std::numeric_limits<float>::infinity(), hi = 0.0f;
    for (size_t i = b; i < e; ++i) {
      const uint32_t oi = order[i];
      child_ids.push_back(ids[oi]);
      auto col = std::move(cols[oi]);
      col.push_back(dv[oi]);
      if (col.size() > kPathLen) col.erase(col.begin());
      child_cols.push_back(std::move(col));
      lo = std::min(lo, dv[oi]);
      hi = std::max(hi, dv[oi]);
    }
    const int32_t child = BuildNode(std::move(child_ids),
                                    std::move(child_cols), rng);
    nodes_[idx].children[c] = child;
    nodes_[idx].ring_lo[c] = lo;
    nodes_[idx].ring_hi[c] = hi;
  }
  return idx;
}

Result<RangeResults> Mvpt::RangeBatch(const Dataset& queries,
                                      std::span<const float> radii) {
  RangeResults out(queries.size());
  const uint64_t start_ops = metric_->stats().ops;
  std::vector<float> qpath;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    if (!nodes_.empty()) {
      qpath.clear();
      RangeRec(0, queries, q, radii[q], &qpath, &out[q]);
    }
    std::sort(out[q].begin(), out[q].end());
  }
  ChargeMetricDelta(1, start_ops);
  return out;
}

void Mvpt::RangeRec(int32_t node, const Dataset& queries, uint32_t q, float r,
                    std::vector<float>* qpath,
                    std::vector<uint32_t>* out) const {
  const Node& n = nodes_[node];
  if (n.leaf) {
    const size_t plen = n.path_len;
    const size_t qlen = qpath->size();
    for (size_t i = 0; i < n.bucket.size(); ++i) {
      const uint32_t id = n.bucket[i];
      if (tombstone_[id]) continue;
      // Filter with the stored ancestor distances (newest-aligned).
      bool pruned = false;
      const size_t use = std::min(plen, qlen);
      for (size_t p = 0; p < use && !pruned; ++p) {
        const float pd = n.path_dists[i * plen + (plen - 1 - p)];
        const float qd = (*qpath)[qlen - 1 - p];
        if (std::fabs(pd - qd) > r) pruned = true;
      }
      if (pruned) continue;
      if (metric_->Distance(queries, q, *data_, id) <= r) out->push_back(id);
    }
    return;
  }
  const float dv = metric_->Distance(queries, q, *data_, n.vp);
  qpath->push_back(dv);
  for (uint32_t c = 0; c < kFanout; ++c) {
    if (n.children[c] < 0) continue;
    if (dv + r < n.ring_lo[c] || dv - r > n.ring_hi[c]) continue;
    RangeRec(n.children[c], queries, q, r, qpath, out);
  }
  qpath->pop_back();
}

Result<KnnResults> Mvpt::KnnBatch(const Dataset& queries, uint32_t k) {
  KnnResults out(queries.size());
  if (k == 0) return out;
  const uint64_t start_ops = metric_->stats().ops;
  std::vector<float> qpath;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    TopK topk(k);
    if (!nodes_.empty()) {
      qpath.clear();
      KnnRec(0, queries, q, &qpath, &topk);
    }
    out[q] = std::move(topk.items);
  }
  ChargeMetricDelta(1, start_ops);
  return out;
}

void Mvpt::KnnRec(int32_t node, const Dataset& queries, uint32_t q,
                  std::vector<float>* qpath, TopK* topk) const {
  const Node& n = nodes_[node];
  if (n.leaf) {
    const size_t plen = n.path_len;
    const size_t qlen = qpath->size();
    for (size_t i = 0; i < n.bucket.size(); ++i) {
      const uint32_t id = n.bucket[i];
      if (tombstone_[id]) continue;
      bool pruned = false;
      const size_t use = std::min(plen, qlen);
      const float bound = topk->Bound();
      for (size_t p = 0; p < use && !pruned; ++p) {
        const float pd = n.path_dists[i * plen + (plen - 1 - p)];
        const float qd = (*qpath)[qlen - 1 - p];
        if (std::fabs(pd - qd) > bound) pruned = true;
      }
      if (pruned) continue;
      topk->Offer(id, metric_->Distance(queries, q, *data_, id));
    }
    return;
  }
  const float dv = metric_->Distance(queries, q, *data_, n.vp);
  qpath->push_back(dv);
  // Visit rings nearest to dv first so the bound tightens early.
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
    KnnRec(n.children[c], queries, q, qpath, topk);
  }
  qpath->pop_back();
}

uint64_t Mvpt::IndexBytes() const {
  uint64_t bytes = 0;
  for (const Node& n : nodes_) {
    bytes += 32;  // fixed fields
    bytes += (n.ring_lo.size() + n.ring_hi.size()) * sizeof(float);
    bytes += n.children.size() * sizeof(int32_t);
    bytes += n.bucket.size() * sizeof(uint32_t);
    bytes += n.path_dists.size() * sizeof(float);
  }
  return bytes;
}

void Mvpt::DescendTouch(uint32_t id) const {
  int32_t node = 0;
  while (node >= 0 && !nodes_[node].leaf) {
    const Node& n = nodes_[node];
    const float dv = metric_->Distance(*data_, id, n.vp);
    int32_t next = -1;
    for (uint32_t c = 0; c < kFanout; ++c) {
      if (n.children[c] < 0) continue;
      next = n.children[c];
      if (dv <= n.ring_hi[c]) break;
    }
    node = next;
  }
}

Status Mvpt::StreamRemoveInsert(uint32_t id) {
  if (nodes_.empty()) return Status::Ok();
  const uint64_t start_ops = metric_->stats().ops;
  DescendTouch(id);
  tombstone_[id] = 1;
  DescendTouch(id);
  tombstone_[id] = 0;
  ChargeMetricDelta(1, start_ops);
  ChargeOps(1, 16);
  return Status::Ok();
}

Status Mvpt::BatchRemoveInsert(std::span<const uint32_t> ids) {
  for (const uint32_t id : ids) GTS_RETURN_IF_ERROR(StreamRemoveInsert(id));
  return Status::Ok();
}

}  // namespace gts
