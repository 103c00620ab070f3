// Structural invariants of the built index, parameterized over dataset
// families and node capacities: the table list is a permutation of the
// objects, leaves partition it contiguously, every node's ring bounds are
// exactly the min/max distance of its objects to the parent pivot, and
// every pivot is an object of its own node. The same checks, and exact
// answers, hold when pivot distances span a range far wider than float
// precision.
#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "baselines/brute_force.h"
#include "common/rng.h"
#include "core/gts.h"
#include "core/node.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

void ExpectStructuralInvariants(const GtsIndex& idx,
                                const DistanceMetric* metric) {
  const uint32_t n = idx.size();

  // Table list is a permutation of all object ids.
  const auto objects = idx.table_objects();
  ASSERT_EQ(objects.size(), n);
  std::set<uint32_t> seen(objects.begin(), objects.end());
  EXPECT_EQ(seen.size(), n);

  const uint32_t nc = idx.node_capacity();
  const uint32_t h = idx.height();

  // Every level partitions [0, n) contiguously, in id order.
  for (uint32_t level = 1; level <= h; ++level) {
    uint64_t covered = 0;
    const uint64_t start = LevelStart(level, nc);
    for (uint64_t i = 0; i < LevelCount(level, nc); ++i) {
      const GtsNode& node = idx.node(start + i);
      if (node.size == 0) continue;
      EXPECT_EQ(node.pos, covered) << "level " << level << " node " << i;
      covered += node.size;
    }
    EXPECT_EQ(covered, n) << "level " << level;
  }

  // Children exactly tile their parent.
  for (uint32_t level = 1; level + 1 <= h; ++level) {
    const uint64_t start = LevelStart(level, nc);
    for (uint64_t i = 0; i < LevelCount(level, nc); ++i) {
      const GtsNode& parent = idx.node(start + i);
      uint64_t child_total = 0;
      for (uint32_t j = 0; j < nc; ++j) {
        const GtsNode& child = idx.node(ChildNodeId(start + i, j, nc));
        child_total += child.size;
        if (child.size > 0) {
          EXPECT_GE(child.pos, parent.pos);
          EXPECT_LE(child.pos + child.size, parent.pos + parent.size);
        }
      }
      EXPECT_EQ(child_total, parent.size);
    }
  }

  // Internal pivots are objects of their own node; rings are exact.
  for (uint32_t level = 1; level + 1 <= h; ++level) {
    const uint64_t start = LevelStart(level, nc);
    for (uint64_t i = 0; i < LevelCount(level, nc); ++i) {
      const uint64_t id = start + i;
      const GtsNode& node = idx.node(id);
      if (node.size == 0) continue;
      ASSERT_NE(node.pivot, kInvalidId);
      bool pivot_inside = false;
      for (uint32_t j = 0; j < node.size; ++j) {
        pivot_inside |= (objects[node.pos + j] == node.pivot);
      }
      EXPECT_TRUE(pivot_inside) << "node " << id;

      for (uint32_t j = 0; j < nc; ++j) {
        const GtsNode& child = idx.node(ChildNodeId(id, j, nc));
        if (child.size == 0) continue;
        float lo = std::numeric_limits<float>::infinity(), hi = 0.0f;
        for (uint32_t t = 0; t < child.size; ++t) {
          const float d = metric->Distance(idx.data(), objects[child.pos + t],
                                           node.pivot);
          lo = std::min(lo, d);
          hi = std::max(hi, d);
        }
        EXPECT_FLOAT_EQ(child.min_dis, lo);
        EXPECT_FLOAT_EQ(child.max_dis, hi);
      }
    }
  }

  // Leaf table distances are the distances to the leaf parent's pivot, and
  // ascending within each leaf.
  if (h >= 2) {
    const uint64_t start = LevelStart(h, nc);
    const auto dis = idx.table_dis();
    for (uint64_t i = 0; i < LevelCount(h, nc); ++i) {
      const GtsNode& leaf = idx.node(start + i);
      if (leaf.size == 0) continue;
      const GtsNode& parent = idx.node(ParentNodeId(start + i, nc));
      for (uint32_t t = 0; t < leaf.size; ++t) {
        const float expect = metric->Distance(
            idx.data(), objects[leaf.pos + t], parent.pivot);
        EXPECT_FLOAT_EQ(dis[leaf.pos + t], expect);
        if (t > 0) {
          EXPECT_GE(dis[leaf.pos + t], dis[leaf.pos + t - 1]);
        }
      }
    }
  }
}

struct Param {
  DatasetId dataset;
  uint32_t nc;
};

class GtsInvariantsTest : public ::testing::TestWithParam<Param> {};

TEST_P(GtsInvariantsTest, StructuralInvariants) {
  const Param p = GetParam();
  const uint32_t n = p.dataset == DatasetId::kDna ? 120 : 500;
  Dataset data = GenerateDataset(p.dataset, n, 21);
  auto metric = MakeDatasetMetric(p.dataset);
  gpu::Device device;
  GtsOptions options;
  options.node_capacity = p.nc;
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device,
                               options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectStructuralInvariants(*built.value(), metric.get());
}

TEST_P(GtsInvariantsTest, BalancedLeaves) {
  const Param p = GetParam();
  // Size the dataset so the tree always has height >= 2 (n >= Nc^2 forces a
  // level below the root): high node capacities like T_Loc/Nc=80 would
  // otherwise produce a single-level tree and leave the invariant untested.
  const uint32_t base = p.dataset == DatasetId::kDna ? 120 : 500;
  const uint32_t n = std::max(base, p.nc * p.nc + p.nc);
  Dataset data = GenerateDataset(p.dataset, n, 22);
  auto metric = MakeDatasetMetric(p.dataset);
  gpu::Device device;
  GtsOptions options;
  options.node_capacity = p.nc;
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device,
                               options);
  ASSERT_TRUE(built.ok());
  const GtsIndex& idx = *built.value();
  const uint32_t h = idx.height();
  ASSERT_GE(h, 2u) << "dataset sizing must yield a multi-level tree";
  // Even partitioning: leaf sizes differ by at most Nc (floor split with
  // the last child absorbing remainders at each of h-1 levels).
  uint32_t lo = n, hi = 0;
  const uint64_t start = LevelStart(h, idx.node_capacity());
  for (uint64_t i = 0; i < LevelCount(h, idx.node_capacity()); ++i) {
    const GtsNode& leaf = idx.node(start + i);
    lo = std::min(lo, leaf.size);
    hi = std::max(hi, leaf.size);
  }
  EXPECT_GT(lo, 0u) << "balanced trees have no empty leaves";
  EXPECT_LE(hi - lo, idx.node_capacity() * (h - 1));
}

// 3,000 uniform points in [0,1)^2 plus one at (1e30, 1e30): every node
// holding the far point has pivot distances spanning ~30 decades. The
// builder's partition key must still order each node's slots by distance,
// or the child rings are not the true extremes and answers go wrong.
TEST(GtsWideRangeTest, InvariantsAndAnswersMatchBruteForce) {
  for (const uint64_t seed : {1, 2, 3}) {
    Dataset data = Dataset::FloatVectors(2);
    Rng rng(seed);
    for (int i = 0; i < 3000; ++i) {
      data.AppendVector(std::vector<float>{rng.UniformFloat(0.0f, 1.0f),
                                           rng.UniformFloat(0.0f, 1.0f)});
    }
    data.AppendVector(std::vector<float>{1e30f, 1e30f});
    const Dataset queries = SampleQueries(data, 300, seed + 100);
    auto metric = MakeMetric(MetricKind::kL2);
    gpu::Device device;
    BruteForce ref(MethodContext{&device, UINT64_MAX, 42});
    ASSERT_TRUE(ref.Build(&data, metric.get()).ok());
    GtsOptions options;
    options.node_capacity = 10;
    options.seed = seed;
    auto built = GtsIndex::Build(data, metric.get(), &device, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const GtsIndex& idx = *built.value();
    ExpectStructuralInvariants(idx, metric.get());

    for (const float r : {0.0f, 0.01f}) {
      const std::vector<float> radii(queries.size(), r);
      auto expected = ref.RangeBatch(queries, radii);
      auto got = idx.RangeQueryBatch(queries, radii);
      ASSERT_TRUE(expected.ok() && got.ok());
      for (uint32_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(got.value()[q], expected.value()[q])
            << "seed " << seed << " r " << r << " query " << q;
      }
    }
    auto expected = ref.KnnBatch(queries, 5);
    auto got = idx.KnnQueryBatch(queries, 5);
    ASSERT_TRUE(expected.ok() && got.ok());
    for (uint32_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(got.value()[q].size(), expected.value()[q].size());
      for (size_t i = 0; i < got.value()[q].size(); ++i) {
        EXPECT_EQ(got.value()[q][i].dist, expected.value()[q][i].dist)
            << "seed " << seed << " query " << q << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndCapacities, GtsInvariantsTest,
    ::testing::Values(Param{DatasetId::kWords, 2}, Param{DatasetId::kWords, 10},
                      Param{DatasetId::kTLoc, 2}, Param{DatasetId::kTLoc, 4},
                      Param{DatasetId::kTLoc, 20}, Param{DatasetId::kTLoc, 80},
                      Param{DatasetId::kVector, 10},
                      Param{DatasetId::kDna, 4}, Param{DatasetId::kColor, 20},
                      Param{DatasetId::kColor, 3}),
    [](const auto& info) {
      return SafeName(std::string(GetDatasetSpec(info.param.dataset).name) + "_Nc" +
             std::to_string(info.param.nc));
    });

}  // namespace
}  // namespace gts
