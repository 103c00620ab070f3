#include "metric/distance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "metric/kernels.h"
#include "metric/simd.h"
#include "metric/soa.h"

namespace gts {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1: return "L1";
    case MetricKind::kL2: return "L2";
    case MetricKind::kAngularCosine: return "AngularCosine";
    case MetricKind::kEdit: return "Edit";
  }
  return "Unknown";
}

namespace {

class L1Metric final : public DistanceMetric {
 public:
  MetricKind kind() const override { return MetricKind::kL1; }
  bool SupportsKind(DataKind k) const override {
    return k == DataKind::kFloatVector;
  }
  bool UsesBlockKernels() const override { return true; }

 protected:
  float DistanceImpl(const Dataset& a, uint32_t i, const Dataset& b,
                     uint32_t j) const override {
    const auto va = a.Vector(i);
    const auto vb = b.Vector(j);
    double sum = 0.0;
    for (size_t d = 0; d < va.size(); ++d) sum += std::fabs(va[d] - vb[d]);
    AddOps(va.size());
    return kernels::detail::SaturatingNarrow(sum);
  }
};

class L2Metric final : public DistanceMetric {
 public:
  MetricKind kind() const override { return MetricKind::kL2; }
  bool SupportsKind(DataKind k) const override {
    return k == DataKind::kFloatVector;
  }
  bool UsesBlockKernels() const override { return true; }

 protected:
  float DistanceImpl(const Dataset& a, uint32_t i, const Dataset& b,
                     uint32_t j) const override {
    const auto va = a.Vector(i);
    const auto vb = b.Vector(j);
    double sum = 0.0;
    for (size_t d = 0; d < va.size(); ++d) {
      const double diff = va[d] - vb[d];
      sum += diff * diff;
    }
    AddOps(va.size());
    return kernels::detail::SaturatingNarrow(
        std::sqrt(kernels::detail::ClearSign(sum)));
  }
};

// Angular distance acos(cos θ)/π ∈ [0, 1]. The raw "cosine distance"
// 1 - cos θ violates the triangle inequality; the angular form is the
// standard metric-space substitute and induces the same kNN ordering.
class AngularCosineMetric final : public DistanceMetric {
 public:
  MetricKind kind() const override { return MetricKind::kAngularCosine; }
  bool SupportsKind(DataKind k) const override {
    return k == DataKind::kFloatVector;
  }
  bool UsesBlockKernels() const override { return true; }

 protected:
  float DistanceImpl(const Dataset& a, uint32_t i, const Dataset& b,
                     uint32_t j) const override {
    const auto va = a.Vector(i);
    const auto vb = b.Vector(j);
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (size_t d = 0; d < va.size(); ++d) {
      dot += static_cast<double>(va[d]) * vb[d];
      na += static_cast<double>(va[d]) * va[d];
      nb += static_cast<double>(vb[d]) * vb[d];
    }
    AddOps(3 * va.size());
    const double denom = std::sqrt(na) * std::sqrt(nb);
    if (denom <= 0.0) return (na == nb) ? 0.0f : 1.0f;
    double c = std::clamp(dot / denom, -1.0, 1.0);
    // sqrt rounding can leave identical vectors a hair below cos = 1;
    // snap so the identity axiom holds exactly.
    if (c > 1.0 - 1e-12) c = 1.0;
    return static_cast<float>(kernels::detail::ClearSign(std::acos(c) / M_PI));
  }
};

// Levenshtein edit distance. The scalar tier runs the two-row DP, wider
// tiers the Myers bit-parallel kernel (metric/kernels.h) — both exact, so
// the value is tier-independent. The charged cost is the DP cell count
// m*n either way: the performance model prices the logical work of the
// metric, not the backend that happened to execute it.
class EditMetric final : public DistanceMetric {
 public:
  MetricKind kind() const override { return MetricKind::kEdit; }
  bool SupportsKind(DataKind k) const override {
    return k == DataKind::kString;
  }
  bool UsesBlockKernels() const override { return true; }

 protected:
  float DistanceImpl(const Dataset& a, uint32_t i, const Dataset& b,
                     uint32_t j) const override {
    const std::string_view sa = a.String(i);
    const std::string_view sb = b.String(j);
    AddOps(static_cast<uint64_t>(sa.size()) * sb.size());
    return static_cast<float>(
        kernels::EditDistance(simd::ActiveTier(), sa, sb));
  }
};

}  // namespace

void DistanceMetric::DistanceBatch(const Dataset& qd, uint32_t qi,
                                   const Dataset& objects,
                                   std::span<const uint32_t> ids, float* out,
                                   float bound) const {
  if (ids.empty()) return;
  if (!UsesBlockKernels()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = Distance(qd, qi, objects, ids[i]);
    }
    return;
  }
  const uint64_t n = ids.size();
  calls_.fetch_add(n, std::memory_order_relaxed);
  tls_calls_ += n;
  // Charge exactly what n per-object Distance() calls would have charged.
  uint64_t ops = n * kDistanceCallOps;
  const MetricKind k = kind();
  switch (k) {
    case MetricKind::kL1:
    case MetricKind::kL2:
      ops += n * objects.dim();
      break;
    case MetricKind::kAngularCosine:
      ops += n * 3ull * objects.dim();
      break;
    case MetricKind::kEdit: {
      const uint64_t qlen = qd.String(qi).size();
      for (const uint32_t id : ids) ops += qlen * objects.String(id).size();
      break;
    }
  }
  AddOps(ops);
  kernels::ScoreIds(k, simd::ActiveTier(), qd, qi, objects, ids, out, bound);
}

void DistanceMetric::DistanceBlock(const Dataset& qd, uint32_t qi,
                                   const Dataset& objects, const SoaPack& pack,
                                   uint32_t pos, uint32_t count,
                                   float* out, float bound) const {
  if (count == 0) return;
  if (pack.kind() != DataKind::kFloatVector || !UsesBlockKernels()) {
    // Strings have no lane-packed payload, and custom metrics must run
    // their own DistanceImpl; score by id from the pack order.
    DistanceBatch(qd, qi, objects, pack.order().subspan(pos, count), out,
                  bound);
    return;
  }
  calls_.fetch_add(count, std::memory_order_relaxed);
  tls_calls_ += count;
  const MetricKind k = kind();
  const uint64_t per_obj =
      (k == MetricKind::kAngularCosine ? 3ull : 1ull) * pack.dim();
  AddOps(count * (per_obj + kDistanceCallOps));
  kernels::ScoreBlockFloat(k, simd::ActiveTier(), qd.Vector(qi).data(), pack,
                           pos, count, out);
}

DistanceMetric::QueryScorer::QueryScorer(const DistanceMetric& metric,
                                         const Dataset& qd, uint32_t qi,
                                         const Dataset& objects,
                                         const SoaPack& pack)
    : metric_(metric),
      qd_(qd),
      qi_(qi),
      objects_(objects),
      pack_(pack),
      block_kernels_(metric.UsesBlockKernels()) {
  if (!block_kernels_) return;
  const MetricKind k = metric.kind();
  if (k == MetricKind::kEdit) {
    const std::string_view query = qd.String(qi);
    qlen_ = query.size();
    edit_.emplace(simd::ActiveTier(), query);
    return;
  }
  assert(pack.kind() == DataKind::kFloatVector);
  // Lane 0 of the scalar kernel, started `lane` floats into the slot's
  // block, reads exactly that lane: count 1 never touches another lane.
  lane_ = kernels::FloatBlockKernel(k, simd::Tier::kScalar);
  q_ = qd.Vector(qi).data();
  float_ops_ = (k == MetricKind::kAngularCosine ? 3ull : 1ull) * pack.dim() +
               kDistanceCallOps;
}

DistanceMetric::QueryScorer::~QueryScorer() {
  if (calls_ == 0) return;
  metric_.calls_.fetch_add(calls_, std::memory_order_relaxed);
  tls_calls_ += calls_;
  metric_.AddOps(ops_);
}

std::unique_ptr<DistanceMetric> MakeMetric(MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1: return std::make_unique<L1Metric>();
    case MetricKind::kL2: return std::make_unique<L2Metric>();
    case MetricKind::kAngularCosine:
      return std::make_unique<AngularCosineMetric>();
    case MetricKind::kEdit: return std::make_unique<EditMetric>();
  }
  return nullptr;
}

}  // namespace gts
