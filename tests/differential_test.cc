// Randomized differential suite: for many random configurations (dataset
// family, cardinality, node capacity, radius selectivity, k, update mix),
// GTS, the CPU trees and the GPU baselines must all agree with the
// brute-force reference. This is the fuzz-style safety net on top of the
// targeted unit suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "baselines/brute_force.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllExactMethodsAgreeWithBruteForce) {
  Rng rng(GetParam());
  const DatasetId id =
      kAllDatasets[rng.UniformU64(std::size(kAllDatasets))];
  const uint32_t n = 100 + static_cast<uint32_t>(rng.UniformU64(
                               id == DatasetId::kDna ? 100 : 500));
  const uint32_t nc = 2 + static_cast<uint32_t>(rng.UniformU64(30));
  const double selectivity = 0.002 + rng.UniformDouble() * 0.08;
  const uint32_t k = 1 + static_cast<uint32_t>(rng.UniformU64(16));
  const uint32_t batch = 4 + static_cast<uint32_t>(rng.UniformU64(12));
  SCOPED_TRACE("dataset=" + std::string(GetDatasetSpec(id).name) +
               " n=" + std::to_string(n) + " nc=" + std::to_string(nc) +
               " k=" + std::to_string(k) + " sel=" +
               std::to_string(selectivity));

  const Dataset data = GenerateDataset(id, n, rng.NextU64());
  auto metric = MakeDatasetMetric(id);
  gpu::Device device;
  MethodContext ctx{&device, UINT64_MAX, rng.NextU64()};
  ctx.gts_node_capacity = nc;

  const Dataset queries = SampleQueries(data, batch, rng.NextU64());
  const float r = CalibrateRadius(data, *metric, selectivity, 80, 7);
  const std::vector<float> radii(queries.size(), r);

  BruteForce ref(ctx);
  ASSERT_TRUE(ref.Build(&data, metric.get()).ok());
  auto truth_r = ref.RangeBatch(queries, radii);
  auto truth_k = ref.KnnBatch(queries, k);
  ASSERT_TRUE(truth_r.ok() && truth_k.ok());

  for (const MethodId mid :
       {MethodId::kGts, MethodId::kBst, MethodId::kMvpt, MethodId::kEgnat,
        MethodId::kGpuTable, MethodId::kGpuTree, MethodId::kLbpgTree}) {
    auto method = MakeMethod(mid, ctx);
    if (!method->Supports(data, *metric)) continue;
    ASSERT_TRUE(method->Build(&data, metric.get()).ok()) << method->Name();

    auto got_r = method->RangeBatch(queries, radii);
    ASSERT_TRUE(got_r.ok()) << method->Name() << got_r.status().ToString();
    for (uint32_t q = 0; q < queries.size(); ++q) {
      std::vector<uint32_t> sorted = got_r.value()[q];
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, truth_r.value()[q])
          << method->Name() << " MRQ query " << q;
    }

    auto got_k = method->KnnBatch(queries, k);
    ASSERT_TRUE(got_k.ok()) << method->Name();
    for (uint32_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(got_k.value()[q].size(), truth_k.value()[q].size())
          << method->Name() << " kNN query " << q;
      for (size_t i = 0; i < got_k.value()[q].size(); ++i) {
        EXPECT_FLOAT_EQ(got_k.value()[q][i].dist, truth_k.value()[q][i].dist)
            << method->Name() << " kNN query " << q << " rank " << i;
      }
    }
  }
}

TEST_P(DifferentialTest, GtsStaysExactUnderRandomUpdates) {
  Rng rng(GetParam() ^ 0xABCDEF);
  const DatasetId id = rng.UniformU64(2) == 0 ? DatasetId::kTLoc
                                              : DatasetId::kColor;
  const uint32_t n = 150 + static_cast<uint32_t>(rng.UniformU64(350));
  const Dataset base = GenerateDataset(id, n, rng.NextU64());
  auto metric = MakeDatasetMetric(id);
  gpu::Device device;

  GtsOptions options;
  options.node_capacity = 2 + static_cast<uint32_t>(rng.UniformU64(20));
  options.cache_capacity_bytes = 1 + rng.UniformU64(4096);
  options.max_tombstone_fraction = 0.1 + rng.UniformDouble() * 0.6;
  auto built = GtsIndex::Build(base.Slice([&] {
                                 std::vector<uint32_t> ids(base.size());
                                 for (uint32_t i = 0; i < base.size(); ++i) {
                                   ids[i] = i;
                                 }
                                 return ids;
                               }()),
                               metric.get(), &device, options);
  ASSERT_TRUE(built.ok());
  GtsIndex& index = *built.value();

  const Dataset arrivals = GenerateDataset(id, 120, rng.NextU64());
  uint32_t next = 0;
  for (int step = 0; step < 150; ++step) {
    if (rng.UniformDouble() < 0.6 && next < arrivals.size()) {
      ASSERT_TRUE(index.Insert(arrivals, next++).ok());
    } else {
      const uint32_t victim =
          static_cast<uint32_t>(rng.UniformU64(index.size()));
      if (index.IsAlive(victim)) {
        ASSERT_TRUE(index.Remove(victim).ok());
      }
    }
  }

  const Dataset queries = SampleQueries(index.data(), 6, rng.NextU64());
  const float r = CalibrateRadius(index.data(), *metric, 0.03, 80, 7);
  const std::vector<float> radii(queries.size(), r);
  auto got = index.RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    std::vector<uint32_t> expect;
    for (uint32_t oid = 0; oid < index.size(); ++oid) {
      if (index.IsAlive(oid) &&
          metric->Distance(queries, q, index.data(), oid) <= r) {
        expect.push_back(oid);
      }
    }
    EXPECT_EQ(got.value()[q], expect) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// Finite coordinates whose L1 or L2 distance exceeds FLT_MAX. The metrics
// saturate at FLT_MAX; a distance of +inf would make the ring tests' lower
// bound |d(q,p) - d(o,p)| infinite and prune objects that are in range.
// Every exact method must match brute force at a radius inside the float
// range and at FLT_MAX itself, where LBPG-Tree's box bound has to saturate
// as the metric does.
TEST(OverflowShapeTest, ExactMethodsMatchBruteForceBeyondFloatRange) {
  Rng rng(2024);
  Dataset data = Dataset::FloatVectors(2);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>((rng.UniformDouble() * 2 - 1) * 3e38);
    const float y = static_cast<float>((rng.UniformDouble() * 2 - 1) * 3e38);
    data.AppendVector(std::vector<float>{x, y});
  }
  const Dataset queries = SampleQueries(data, 20, rng.NextU64());
  struct Config {
    MethodId method;
    uint32_t nc;  // GTS node capacity
  };
  constexpr Config kConfigs[] = {
      {MethodId::kGts, 2},       {MethodId::kGts, 4},
      {MethodId::kGts, 10},      {MethodId::kGts, 40},
      {MethodId::kBst, 10},      {MethodId::kMvpt, 10},
      {MethodId::kEgnat, 10},    {MethodId::kGpuTable, 10},
      {MethodId::kGpuTree, 10},  {MethodId::kLbpgTree, 10},
  };
  for (const MetricKind kind : {MetricKind::kL1, MetricKind::kL2}) {
    auto metric = MakeMetric(kind);
    gpu::Device device;
    MethodContext ctx{&device, UINT64_MAX, 5};
    BruteForce ref(ctx);
    ASSERT_TRUE(ref.Build(&data, metric.get()).ok());
    auto truth_k = ref.KnnBatch(queries, 10);
    ASSERT_TRUE(truth_k.ok());
    for (const Config cfg : kConfigs) {
      ctx.gts_node_capacity = cfg.nc;
      auto method = MakeMethod(cfg.method, ctx);
      SCOPED_TRACE(std::string(MetricKindName(kind)) + " " +
                   std::string(method->Name()) +
                   " nc=" + std::to_string(cfg.nc));
      ASSERT_TRUE(method->Build(&data, metric.get()).ok());
      for (const float r : {1e38f, std::numeric_limits<float>::max()}) {
        const std::vector<float> radii(queries.size(), r);
        auto truth_r = ref.RangeBatch(queries, radii);
        auto got_r = method->RangeBatch(queries, radii);
        ASSERT_TRUE(truth_r.ok() && got_r.ok());
        for (uint32_t q = 0; q < queries.size(); ++q) {
          std::vector<uint32_t> sorted = got_r.value()[q];
          std::sort(sorted.begin(), sorted.end());
          EXPECT_EQ(sorted, truth_r.value()[q])
              << "MRQ r=" << r << " query " << q;
        }
      }
      auto got_k = method->KnnBatch(queries, 10);
      ASSERT_TRUE(got_k.ok());
      for (uint32_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(got_k.value()[q].size(), truth_k.value()[q].size());
        for (size_t i = 0; i < got_k.value()[q].size(); ++i) {
          EXPECT_EQ(got_k.value()[q][i].dist, truth_k.value()[q][i].dist)
              << "kNN query " << q << " rank " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gts
