// Streaming (cache table) and batch update semantics (paper §4.4):
// insert/remove correctness under queries, rebuild triggers on cache
// overflow and tombstone ratio, and batch reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "baselines/brute_force.h"
#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

class GtsUpdateTest : public ::testing::Test {
 protected:
  void Build(uint32_t n, uint64_t cache_bytes = 5 * 1024) {
    Dataset data = GenerateDataset(DatasetId::kTLoc, n, 51);
    GtsOptions options;
    options.cache_capacity_bytes = cache_bytes;
    auto built =
        GtsIndex::Build(std::move(data), metric_.get(), &device_, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(built).value();
  }

  // Brute-force range over the alive objects of the index's dataset.
  std::vector<uint32_t> AliveWithin(const Dataset& queries, uint32_t q,
                                    float r) {
    std::vector<uint32_t> out;
    for (uint32_t id = 0; id < index_->size(); ++id) {
      if (!index_->IsAlive(id)) continue;
      if (metric_->Distance(queries, q, index_->data(), id) <= r) {
        out.push_back(id);
      }
    }
    return out;
  }

  gpu::Device device_;
  std::unique_ptr<DistanceMetric> metric_ = MakeMetric(MetricKind::kL2);
  std::unique_ptr<GtsIndex> index_;
};

TEST_F(GtsUpdateTest, InsertGoesToCacheAndIsQueryable) {
  Build(300);
  Dataset extra = GenerateDataset(DatasetId::kTLoc, 5, 999);
  for (uint32_t i = 0; i < 5; ++i) {
    auto id = index_->Insert(extra, i);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.value(), 300u + i);
  }
  EXPECT_EQ(index_->cache_size(), 5u);
  EXPECT_EQ(index_->alive_size(), 305u);
  EXPECT_EQ(index_->rebuild_count(), 0u);

  // Inserted objects are found by both query types.
  Dataset queries = Dataset::FloatVectors(2);
  queries.AppendFrom(extra, 2);
  const std::vector<float> radii = {0.0f};
  auto range = index_->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(std::find(range.value()[0].begin(), range.value()[0].end(),
                        302u) != range.value()[0].end());
  auto knn = index_->KnnQueryBatch(queries, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_FLOAT_EQ(knn.value()[0][0].dist, 0.0f);
}

// An index past the end of the source dataset is rejected before the
// device allocation: nothing is read, allocated or published.
TEST_F(GtsUpdateTest, InsertRejectsIndexPastSource) {
  Build(300);
  const Dataset one = GenerateDataset(DatasetId::kTLoc, 1, 999);
  const uint64_t allocated = device_.allocated_bytes();
  for (const uint32_t idx : {1u, 1u << 30}) {
    EXPECT_EQ(index_->Insert(one, idx).status().code(),
              StatusCode::kInvalidArgument)
        << "idx " << idx;
  }
  EXPECT_EQ(index_->size(), 300u);
  EXPECT_EQ(index_->alive_size(), 300u);
  EXPECT_EQ(index_->cache_size(), 0u);
  EXPECT_EQ(device_.allocated_bytes(), allocated);
  auto id = index_->Insert(one, 0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.value(), 300u);
}

// An object with a NaN or infinite coordinate would surface, at distance
// NaN, in exact answers. Every write path rejects it before any mutation
// or device allocation.
TEST_F(GtsUpdateTest, NonFiniteObjectsRejectedOnEveryWritePath) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> bad = {
      {nan, 0.5f}, {inf, 0.5f}, {0.5f, -inf}};

  for (const auto& object : bad) {
    Dataset data = GenerateDataset(DatasetId::kTLoc, 300, 51);
    Dataset corpus = Dataset::FloatVectors(2);
    for (uint32_t i = 0; i < data.size(); ++i) {
      if (i == 123) {
        corpus.AppendVector(object);
      } else {
        corpus.AppendFrom(data, i);
      }
    }
    const uint64_t allocated = device_.allocated_bytes();
    auto built = GtsIndex::Build(std::move(corpus), metric_.get(), &device_,
                                 GtsOptions{});
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(device_.allocated_bytes(), allocated);
  }

  Build(300);
  const Dataset good = GenerateDataset(DatasetId::kTLoc, 4, 999);
  for (const auto& object : bad) {
    Dataset inserts = Dataset::FloatVectors(2);
    for (uint32_t i = 0; i < good.size(); ++i) inserts.AppendFrom(good, i);
    inserts.AppendVector(object);
    const uint32_t bad_idx = inserts.size() - 1;
    const uint32_t size = index_->size();
    const uint32_t alive = index_->alive_size();
    const uint32_t cached = index_->cache_size();
    const uint64_t allocated = device_.allocated_bytes();
    EXPECT_EQ(index_->Insert(inserts, bad_idx).status().code(),
              StatusCode::kInvalidArgument);
    const std::vector<uint32_t> removals = {0, 1};
    EXPECT_EQ(index_->BatchUpdate(inserts, removals).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index_->size(), size);
    EXPECT_EQ(index_->alive_size(), alive);
    EXPECT_EQ(index_->cache_size(), cached);
    EXPECT_EQ(device_.allocated_bytes(), allocated);
    // The finite objects of the same source are still accepted.
    auto id = index_->Insert(inserts, 0);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(index_->Remove(id.value()).ok());
  }
}

TEST_F(GtsUpdateTest, CacheOverflowTriggersRebuild) {
  Build(300, /*cache_bytes=*/10 * sizeof(float) * 2);  // ~10 points
  Dataset extra = GenerateDataset(DatasetId::kTLoc, 40, 999);
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(index_->Insert(extra, i).ok());
  }
  EXPECT_GT(index_->rebuild_count(), 0u);
  EXPECT_LT(index_->cache_size(), 40u);  // flushed into the tree
  EXPECT_EQ(index_->alive_size(), 340u);
}

TEST_F(GtsUpdateTest, RemoveFromCacheAndTree) {
  Build(300);
  Dataset extra = GenerateDataset(DatasetId::kTLoc, 2, 999);
  auto id = index_->Insert(extra, 0);
  ASSERT_TRUE(id.ok());
  // Cache removal.
  EXPECT_TRUE(index_->Remove(id.value()).ok());
  EXPECT_EQ(index_->cache_size(), 0u);
  EXPECT_FALSE(index_->IsAlive(id.value()));
  // Tree removal = tombstone.
  EXPECT_TRUE(index_->Remove(42).ok());
  EXPECT_FALSE(index_->IsAlive(42));
  EXPECT_EQ(index_->alive_size(), 299u);
  // Double remove fails.
  EXPECT_EQ(index_->Remove(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(index_->Remove(100000).code(), StatusCode::kNotFound);
}

TEST_F(GtsUpdateTest, RemovedObjectsNeverReturned) {
  Build(400);
  const Dataset queries = SampleQueries(index_->data(), 8, 3);
  for (uint32_t id = 0; id < 400; id += 3) {
    ASSERT_TRUE(index_->Remove(id).ok());
  }
  const float r = CalibrateRadius(index_->data(), *metric_, 0.05, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto range = index_->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(range.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(range.value()[q], AliveWithin(queries, q, r)) << "query " << q;
  }
  auto knn = index_->KnnQueryBatch(queries, 10);
  ASSERT_TRUE(knn.ok());
  for (const auto& res : knn.value()) {
    for (const auto& nb : res) EXPECT_TRUE(index_->IsAlive(nb.id));
  }
}

// Liveness is one bit per object. The ids on both sides of a word boundary
// (63, 64) and the last id of the partial last word (299 of 300) must each
// read dead on every path once tombstoned.
TEST_F(GtsUpdateTest, TombstonesAtBitsetWordEdgesAreDead) {
  Build(300);
  const std::vector<uint32_t> dead = {63, 64, 299};
  for (const uint32_t id : dead) ASSERT_TRUE(index_->Remove(id).ok());
  EXPECT_EQ(index_->rebuild_count(), 0u);  // tombstones in the tree
  EXPECT_EQ(index_->alive_size(), 297u);
  for (uint32_t id = 0; id < 300; ++id) {
    const bool is_dead = std::find(dead.begin(), dead.end(), id) != dead.end();
    EXPECT_EQ(index_->IsAlive(id), !is_dead) << "id " << id;
  }

  // Each dead object, as a query, finds only alive objects, itself never.
  const Dataset queries = index_->data().Slice(dead);
  const float r = CalibrateRadius(index_->data(), *metric_, 0.05, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto range = index_->RangeQueryBatch(queries, radii);
  auto knn = index_->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(range.ok() && knn.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(range.value()[q], AliveWithin(queries, q, r)) << "query " << q;
    ASSERT_EQ(knn.value()[q].size(), 8u);
    for (const Neighbor& nb : knn.value()[q]) {
      EXPECT_TRUE(index_->IsAlive(nb.id)) << "query " << q << " id " << nb.id;
    }
  }
}

TEST_F(GtsUpdateTest, TombstoneOverflowTriggersRebuild) {
  Build(300);
  // Default max_tombstone_fraction = 0.5.
  for (uint32_t id = 0; id < 160; ++id) {
    ASSERT_TRUE(index_->Remove(id).ok());
  }
  EXPECT_GT(index_->rebuild_count(), 0u);
  EXPECT_EQ(index_->alive_size(), 140u);
}

TEST_F(GtsUpdateTest, QueriesExactAfterManyMixedUpdates) {
  Build(300, /*cache_bytes=*/64);
  Dataset extra = GenerateDataset(DatasetId::kTLoc, 120, 999);
  Rng rng(5);
  uint32_t inserted = 0;
  for (uint32_t step = 0; step < 120; ++step) {
    if (step % 3 != 2) {
      ASSERT_TRUE(index_->Insert(extra, inserted++).ok());
    } else {
      // Remove a random alive object.
      for (;;) {
        const uint32_t id =
            static_cast<uint32_t>(rng.UniformU64(index_->size()));
        if (index_->IsAlive(id)) {
          ASSERT_TRUE(index_->Remove(id).ok());
          break;
        }
      }
    }
  }
  const Dataset queries = SampleQueries(index_->data(), 10, 3);
  const float r = CalibrateRadius(index_->data(), *metric_, 0.02, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto range = index_->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(range.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(range.value()[q], AliveWithin(queries, q, r)) << "query " << q;
  }
}

TEST_F(GtsUpdateTest, BatchUpdateReconstructs) {
  Build(300);
  Dataset inserts = GenerateDataset(DatasetId::kTLoc, 30, 999);
  std::vector<uint32_t> removals(30);
  std::iota(removals.begin(), removals.end(), 0u);
  const uint64_t rebuilds_before = index_->rebuild_count();
  ASSERT_TRUE(index_->BatchUpdate(inserts, removals).ok());
  EXPECT_EQ(index_->rebuild_count(), rebuilds_before + 1);
  EXPECT_EQ(index_->alive_size(), 300u);
  EXPECT_EQ(index_->cache_size(), 0u);
  for (uint32_t id = 0; id < 30; ++id) EXPECT_FALSE(index_->IsAlive(id));
}

TEST_F(GtsUpdateTest, RebuildPreservesQueryResults) {
  Build(400);
  const Dataset queries = SampleQueries(index_->data(), 8, 3);
  const float r = CalibrateRadius(index_->data(), *metric_, 0.02, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto before = index_->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(index_->Rebuild().ok());
  auto after = index_->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(after.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(before.value()[q], after.value()[q]);
  }
}

TEST_F(GtsUpdateTest, StreamCycleKeepsDeviceMemoryBounded) {
  Build(300, /*cache_bytes=*/256);
  const uint64_t resident_before = index_->DeviceResidentBytes();
  for (uint32_t cycle = 0; cycle < 200; ++cycle) {
    const uint32_t victim = cycle % 300;
    if (!index_->IsAlive(victim)) continue;
    ASSERT_TRUE(index_->Remove(victim).ok());
    ASSERT_TRUE(index_->Insert(index_->data(), victim).ok());
  }
  EXPECT_EQ(index_->alive_size(), 300u);
  // Rebuilds compact tombstones: residency grows by at most the cache.
  EXPECT_LT(index_->DeviceResidentBytes(), resident_before * 2);
}

}  // namespace
}  // namespace gts
