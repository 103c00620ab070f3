// Micro-benchmarks (google-benchmark, real wall time): distance kernels of
// the metric substrate — the elementary-op generators behind every
// simulated-clock charge.
//
// Three series families, all sized so one iteration scores the same 256
// objects (so throughput ratios between any two series are valid):
//
//   BM_Distance/<metric>          historical per-call latency (one call per
//                                 iteration) under the default dispatch.
//   gts-micro/percall-<m>@scalar  256 per-object Distance() calls per
//                                 iteration, scalar tier — the pre-SIMD
//                                 reference path.
//   gts-micro/block-<m>@{scalar,simd}
//                                 one DistanceBlock call scoring 256
//                                 SoA-packed objects per iteration, under
//                                 the forced scalar tier vs the widest
//                                 runnable tier.
//   gts-micro/edit-<ds>@{scalar,bitpar}
//                                 one 256-pair DistanceBatch per iteration:
//                                 scalar tier selects the two-row DP,
//                                 wider tiers the Myers bit-parallel kernel.
//   gts-micro/edit-Words@bounded  the edit-Words@bitpar pairs bounded at
//                                 words-batch's radius of 1, where a length
//                                 difference above the bound skips the
//                                 kernel (metric/kernels.h).
//
// CI gates the block/bit-parallel/bounded speedups with
// `diff_bench.py --require-ratio 'block-X@simd>=K*block-X@scalar'` — see
// .github/workflows/ci.yml.
#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "metric/simd.h"
#include "metric/soa.h"

namespace gts {
namespace {

constexpr uint32_t kObjects = 256;

void BM_Distance(benchmark::State& state, DatasetId id) {
  const uint32_t n = kObjects;
  const Dataset data = GenerateDataset(id, n, 3);
  const auto metric = MakeDatasetMetric(id);
  uint32_t i = 0, j = n / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric->Distance(data, i, j));
    i = (i + 1) % n;
    j = (j + 7) % n;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ops/call"] = static_cast<double>(metric->stats().ops) /
                               static_cast<double>(metric->stats().calls);
}

BENCHMARK_CAPTURE(BM_Distance, L2_TLoc_2d, DatasetId::kTLoc);
BENCHMARK_CAPTURE(BM_Distance, L1_Color_282d, DatasetId::kColor);
BENCHMARK_CAPTURE(BM_Distance, Cosine_Vector_300d, DatasetId::kVector);
BENCHMARK_CAPTURE(BM_Distance, Edit_Words, DatasetId::kWords);
BENCHMARK_CAPTURE(BM_Distance, Edit_DNA, DatasetId::kDna);

// One float-kernel configuration: dataset family providing the payload and
// the metric scoring it (L2_282d pairs the 282-d Color vectors with the L2
// metric, exercising the high-dimensional L2 kernel the 2-d T-Loc series
// cannot).
struct FloatConfig {
  const char* name;
  DatasetId id;
  MetricKind metric;
};

constexpr FloatConfig kFloatConfigs[] = {
    {"L2_TLoc", DatasetId::kTLoc, MetricKind::kL2},
    {"L1_Color", DatasetId::kColor, MetricKind::kL1},
    {"Cosine_Vector", DatasetId::kVector, MetricKind::kAngularCosine},
    {"L2_282d", DatasetId::kColor, MetricKind::kL2},
};

void BlockScore(benchmark::State& state, FloatConfig cfg, simd::Tier tier) {
  const Dataset data = GenerateDataset(cfg.id, kObjects, 3);
  const auto metric = MakeMetric(cfg.metric);
  std::vector<uint32_t> order(kObjects);
  std::iota(order.begin(), order.end(), 0u);
  const SoaPack pack = SoaPack::Pack(data, order);
  std::vector<float> out(kObjects);
  simd::ScopedTierForTest scoped(tier);
  for (auto _ : state) {
    metric->DistanceBlock(data, 0, data, pack, 0, kObjects, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}

void PerCallScore(benchmark::State& state, FloatConfig cfg) {
  const Dataset data = GenerateDataset(cfg.id, kObjects, 3);
  const auto metric = MakeMetric(cfg.metric);
  std::vector<float> out(kObjects);
  simd::ScopedTierForTest scoped(simd::Tier::kScalar);
  for (auto _ : state) {
    for (uint32_t j = 0; j < kObjects; ++j) {
      out[j] = metric->Distance(data, 0, data, j);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}

void EditScore(benchmark::State& state, DatasetId id, simd::Tier tier,
               float bound) {
  const Dataset data = GenerateDataset(id, kObjects, 3);
  const auto metric = MakeDatasetMetric(id);
  std::vector<uint32_t> ids(kObjects);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<float> out(kObjects);
  simd::ScopedTierForTest scoped(tier);
  for (auto _ : state) {
    metric->DistanceBatch(data, 0, data, ids, out.data(), bound);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}

// Explicit registration: the kernel series carry the stable `gts-micro/...`
// names the CI ratio gates reference, not BENCHMARK_CAPTURE's
// function-derived ones.
int RegisterKernelBenches() {
  for (const FloatConfig& cfg : kFloatConfigs) {
    const std::string base = std::string("gts-micro/block-") + cfg.name;
    benchmark::RegisterBenchmark((base + "@scalar").c_str(), BlockScore, cfg,
                                 simd::Tier::kScalar);
    benchmark::RegisterBenchmark((base + "@simd").c_str(), BlockScore, cfg,
                                 simd::BestTier());
    benchmark::RegisterBenchmark(
        (std::string("gts-micro/percall-") + cfg.name + "@scalar").c_str(),
        PerCallScore, cfg);
  }
  constexpr std::pair<const char*, DatasetId> kEditSets[] = {
      {"Words", DatasetId::kWords}, {"DNA", DatasetId::kDna}};
  for (const auto& [name, id] : kEditSets) {
    const std::string base = std::string("gts-micro/edit-") + name;
    benchmark::RegisterBenchmark((base + "@scalar").c_str(), EditScore, id,
                                 simd::Tier::kScalar, kNoBound);
    benchmark::RegisterBenchmark((base + "@bitpar").c_str(), EditScore, id,
                                 simd::BestTier(), kNoBound);
  }
  benchmark::RegisterBenchmark("gts-micro/edit-Words@bounded", EditScore,
                               DatasetId::kWords, simd::BestTier(), 1.0f);
  return 0;
}

const int kKernelBenchesRegistered = RegisterKernelBenches();

}  // namespace
}  // namespace gts
