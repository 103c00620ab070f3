// Exactness of the batched metric kNN query (Algorithm 5) against brute
// force over the alive objects. Results are compared exactly, ids and
// distances: both sides keep the canonical (dist, id) order, so ties at
// the k-th distance must resolve to the same objects.
#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "baselines/brute_force.h"
#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

// The exact answer: every alive object of `index`, ascending by (dist, id),
// cut to k.
std::vector<Neighbor> AliveBruteForce(const GtsIndex& index,
                                      const DistanceMetric& metric,
                                      const Dataset& queries, uint32_t q,
                                      uint32_t k) {
  std::vector<Neighbor> all;
  for (uint32_t id = 0; id < index.size(); ++id) {
    if (index.IsAlive(id)) {
      all.push_back(
          Neighbor{id, metric.Distance(queries, q, index.data(), id)});
    }
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& expected,
                         uint32_t query) {
  ASSERT_EQ(got.size(), expected.size()) << "query " << query;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << "query " << query << " rank " << i;
    EXPECT_EQ(got[i].dist, expected[i].dist)
        << "query " << query << " rank " << i;
  }
}

void ExpectSameDistances(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& expected,
                         uint32_t query) {
  ASSERT_EQ(got.size(), expected.size()) << "query " << query;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_FLOAT_EQ(got[i].dist, expected[i].dist)
        << "query " << query << " rank " << i;
  }
}

struct Param {
  DatasetId dataset;
  uint32_t nc;
  uint32_t k;
};

std::string ParamName(const Param& p) {
  return std::string(GetDatasetSpec(p.dataset).name) + "_Nc" +
         std::to_string(p.nc) + "_k" + std::to_string(p.k);
}

// Builds the index over n objects of p.dataset, tombstones every
// remove_every-th id (0: none) and checks each query's k nearest alive
// objects against brute force. height != 0 pins the tree height the case
// needs.
void ExpectKnnMatchesBruteForce(const Param& p, uint32_t n,
                                uint32_t remove_every, uint32_t height) {
  Dataset data = GenerateDataset(p.dataset, n, 41);
  auto metric = MakeDatasetMetric(p.dataset);
  gpu::Device device;

  const Dataset queries = SampleQueries(data, 16, 13);
  GtsOptions options;
  options.node_capacity = p.nc;
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device,
                               options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  GtsIndex& index = *built.value();
  if (height != 0) {
    ASSERT_EQ(index.height(), height);
  }
  for (uint32_t id = 0; remove_every != 0 && id < n; id += remove_every) {
    ASSERT_TRUE(index.Remove(id).ok());
  }
  ASSERT_EQ(index.rebuild_count(), 0u);  // the tombstones stay in the tree
  GtsQueryStats stats;
  auto got = index.KnnQueryBatch(queries, p.k, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // No leaf slot is verified twice for one query (the probe's leaves are
  // skipped at the leaf level).
  EXPECT_LE(stats.objects_verified, uint64_t{queries.size()} * n);

  for (uint32_t q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(got.value()[q],
                        AliveBruteForce(index, *metric, queries, q, p.k), q);
  }
}

class GtsKnnTest : public ::testing::TestWithParam<Param> {};

TEST_P(GtsKnnTest, MatchesBruteForce) {
  const Param p = GetParam();
  ExpectKnnMatchesBruteForce(p, p.dataset == DatasetId::kDna ? 150 : 600,
                             0, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GtsKnnTest,
    ::testing::Values(Param{DatasetId::kWords, 4, 1},
                      Param{DatasetId::kWords, 20, 8},
                      Param{DatasetId::kTLoc, 2, 4},
                      Param{DatasetId::kTLoc, 20, 1},
                      Param{DatasetId::kTLoc, 20, 16},
                      Param{DatasetId::kTLoc, 80, 32},
                      Param{DatasetId::kVector, 10, 8},
                      Param{DatasetId::kDna, 4, 4},
                      Param{DatasetId::kColor, 20, 8},
                      Param{DatasetId::kColor, 5, 32}),
    [](const auto& info) { return SafeName(ParamName(info.param)); });

// Cases where the nearest-ring probe must go past its first leaf, or has
// no inner level to descend.
struct ProbeParam {
  Param base;
  uint32_t n;
  uint32_t remove_every;  ///< tombstone every such id (0: none)
  uint32_t height;        ///< the tree height the case needs (0: any)
};

class GtsKnnProbeTest : public ::testing::TestWithParam<ProbeParam> {};

TEST_P(GtsKnnProbeTest, MatchesBruteForce) {
  const ProbeParam p = GetParam();
  ExpectKnnMatchesBruteForce(p.base, p.n, p.remove_every, p.height);
}

INSTANTIATE_TEST_SUITE_P(
    Probe, GtsKnnProbeTest,
    ::testing::Values(
        // ~8 objects a leaf at Nc 4: the probe must verify several leaves
        // before it holds k = 16.
        ProbeParam{{DatasetId::kTLoc, 4, 16}, 2000, 0, 5},
        ProbeParam{{DatasetId::kTLoc, 4, 16}, 2000, 3, 5},
        // k above the alive count: the probe walks every leaf.
        ProbeParam{{DatasetId::kTLoc, 4, 500}, 600, 3, 0},
        // A single-level tree: the root is the only leaf.
        ProbeParam{{DatasetId::kTLoc, 80, 8}, 600, 3, 1}),
    [](const auto& info) {
      const ProbeParam& p = info.param;
      std::string name = ParamName(p.base) + "_n" + std::to_string(p.n);
      if (p.remove_every != 0) name += "_rm" + std::to_string(p.remove_every);
      return SafeName(name);
    });

class GtsKnnEdgeTest : public ::testing::Test {
 protected:
  gpu::Device device_;
  std::unique_ptr<DistanceMetric> metric_ = MakeMetric(MetricKind::kL2);
};

TEST_F(GtsKnnEdgeTest, KZeroReturnsEmpty) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 100, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), 4, 3);
  auto got = built.value()->KnnQueryBatch(queries, 0);
  ASSERT_TRUE(got.ok());
  for (const auto& res : got.value()) EXPECT_TRUE(res.empty());
}

TEST_F(GtsKnnEdgeTest, KLargerThanDatasetReturnsAll) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 60, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), 4, 3);
  auto got = built.value()->KnnQueryBatch(queries, 500);
  ASSERT_TRUE(got.ok());
  for (const auto& res : got.value()) {
    EXPECT_EQ(res.size(), 60u);
    for (size_t i = 1; i < res.size(); ++i) {
      EXPECT_GE(res[i].dist, res[i - 1].dist);  // ascending
    }
  }
}

TEST_F(GtsKnnEdgeTest, SelfQueryFindsSelfFirst) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 300, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), 10, 3);
  auto got = built.value()->KnnQueryBatch(queries, 3);
  ASSERT_TRUE(got.ok());
  for (const auto& res : got.value()) {
    ASSERT_EQ(res.size(), 3u);
    EXPECT_FLOAT_EQ(res[0].dist, 0.0f);
  }
}

TEST_F(GtsKnnEdgeTest, DuplicateHeavyDataIsExact) {
  Dataset data = GenerateWithDistinctFraction(DatasetId::kTLoc, 500, 0.2, 9);
  gpu::Device device;
  BruteForce ref(MethodContext{&device, UINT64_MAX, 42});
  ASSERT_TRUE(ref.Build(&data, metric_.get()).ok());
  const Dataset queries = SampleQueries(data, 12, 4);
  auto expected = ref.KnnBatch(queries, 8);
  ASSERT_TRUE(expected.ok());
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  auto got = built.value()->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(got.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ExpectSameDistances(got.value()[q], expected.value()[q], q);
  }
}

TEST_F(GtsKnnEdgeTest, PruningActuallyPrunes) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 2000, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  GtsIndex& idx = *built.value();
  const Dataset queries = SampleQueries(idx.data(), 16, 3);
  idx.ResetQueryStats();
  ASSERT_TRUE(idx.KnnQueryBatch(queries, 4).ok());
  EXPECT_LT(idx.query_stats().distance_computations, 16u * 2000u / 3u);
}

// The nearest-ring probe bounds every query before the descent, so leaf
// verification scans a few leaves per query instead of most of the corpus
// (a cold-started descent scanned ~65% of it here).
TEST_F(GtsKnnEdgeTest, ProbeBoundsLeafVerification) {
  constexpr uint32_t kN = 20000;
  constexpr uint32_t kQueries = 128;
  Dataset data = GenerateDataset(DatasetId::kTLoc, kN, 5);
  GtsOptions options;
  options.node_capacity = 20;
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               options);
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), kQueries, 3);
  GtsQueryStats stats;
  ASSERT_TRUE(built.value()->KnnQueryBatch(queries, 8, &stats).ok());
  EXPECT_LE(stats.objects_verified, kQueries * kN / 20);  // <= 5% per query
}

// Initial bounds skip the probe; a batch mixing +inf (probed) and the
// exact k-th distance (not probed) must return the unbounded answers.
TEST_F(GtsKnnEdgeTest, MixedInitialBoundsMatchUnbounded) {
  constexpr uint32_t kK = 16;
  Dataset data = GenerateDataset(DatasetId::kTLoc, 2000, 5);
  GtsOptions options;
  options.node_capacity = 4;
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               options);
  ASSERT_TRUE(built.ok());
  GtsIndex& idx = *built.value();
  for (uint32_t id = 0; id < idx.size(); id += 3) {
    ASSERT_TRUE(idx.Remove(id).ok());
  }
  const Dataset queries = SampleQueries(idx.data(), 16, 3);
  auto unbounded = idx.KnnQueryBatch(queries, kK);
  ASSERT_TRUE(unbounded.ok());
  std::vector<float> bounds;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(unbounded.value()[q].size(), kK);
    bounds.push_back(q % 2 == 1 ? unbounded.value()[q].back().dist
                                : std::numeric_limits<float>::infinity());
  }
  auto bounded = idx.KnnQueryBatch(queries, kK, nullptr,
                                   KnnOptions{.initial_bounds = bounds});
  ASSERT_TRUE(bounded.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ExpectSameNeighbors(bounded.value()[q], unbounded.value()[q], q);
    ExpectSameNeighbors(unbounded.value()[q],
                        AliveBruteForce(idx, *metric_, queries, q, kK), q);
  }
}

// Caps below each query's own k-th, as the sharded scatter hands a shard:
// the capped descent prunes harder, but every neighbor it returns must
// carry its true distance (leaf verification bounds its kernel by Offer's
// own bound, never by the cap), and the neighbors within the cap are the
// unbounded query's. Edit distance on Words, where the bounded kernel's
// length exit returns a value that is not the distance.
TEST(GtsKnnCapTest, CapsBelowKthReportTrueDistances) {
  constexpr uint32_t kK = 8;
  Dataset data = GenerateDataset(DatasetId::kWords, 3000, 7);
  auto metric = MakeDatasetMetric(DatasetId::kWords);
  gpu::Device device;
  GtsOptions options;
  options.node_capacity = 10;
  auto built =
      GtsIndex::Build(std::move(data), metric.get(), &device, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const GtsIndex& idx = *built.value();
  const Dataset queries = SampleQueries(idx.data(), 48, 11);
  auto unbounded = idx.KnnQueryBatch(queries, kK);
  ASSERT_TRUE(unbounded.ok());
  std::vector<float> caps;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(unbounded.value()[q].size(), kK);
    const float kth = unbounded.value()[q].back().dist;
    caps.push_back(std::max(0.0f, kth - 1.0f - static_cast<float>(q % 3)));
  }
  auto capped = idx.KnnQueryBatch(queries, kK, nullptr,
                                  KnnOptions{.initial_bounds = caps});
  ASSERT_TRUE(capped.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    for (const Neighbor& nb : capped.value()[q]) {
      EXPECT_EQ(nb.dist, metric->Distance(queries, q, idx.data(), nb.id))
          << "query " << q << " id " << nb.id << " cap " << caps[q];
    }
    const auto within = [&](const std::vector<Neighbor>& list) {
      std::vector<Neighbor> out;
      for (const Neighbor& nb : list) {
        if (nb.dist <= caps[q]) out.push_back(nb);
      }
      return out;
    };
    ExpectSameNeighbors(within(capped.value()[q]),
                        within(unbounded.value()[q]), q);
  }
}

}  // namespace
}  // namespace gts
