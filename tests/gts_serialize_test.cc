// Index persistence: a saved-and-reloaded index must answer every query
// identically, carry its update state (tombstones, cache) across the
// round-trip, and reject corrupt or mismatched files.
#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

class GtsSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as parallel processes, and
    // a shared path lets one case's TearDown delete another's index.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = ::testing::TempDir() + "/gts_index_" + SafeName(name) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  gpu::Device device_;
};

TEST_F(GtsSerializeTest, RoundTripPreservesQueries) {
  auto metric = MakeDatasetMetric(DatasetId::kWords);
  Dataset data = GenerateDataset(DatasetId::kWords, 600, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{.node_capacity = 8});
  ASSERT_TRUE(built.ok());
  GtsIndex& original = *built.value();

  const Dataset queries = SampleQueries(original.data(), 12, 3);
  const float r = CalibrateRadius(original.data(), *metric, 0.02, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto range_before = original.RangeQueryBatch(queries, radii);
  auto knn_before = original.KnnQueryBatch(queries, 8);
  ASSERT_TRUE(range_before.ok() && knn_before.ok());

  ASSERT_TRUE(original.SaveTo(path_).ok());
  gpu::Device device2;
  auto loaded = GtsIndex::Load(path_, metric.get(), &device2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->height(), original.height());
  EXPECT_EQ(loaded.value()->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.value()->alive_size(), original.alive_size());
  EXPECT_EQ(loaded.value()->IndexBytes(), original.IndexBytes());
  EXPECT_GT(device2.allocated_bytes(), 0u);

  auto range_after = loaded.value()->RangeQueryBatch(queries, radii);
  auto knn_after = loaded.value()->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(range_after.ok() && knn_after.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(range_after.value()[q], range_before.value()[q]);
    ASSERT_EQ(knn_after.value()[q].size(), knn_before.value()[q].size());
    for (size_t i = 0; i < knn_after.value()[q].size(); ++i) {
      EXPECT_FLOAT_EQ(knn_after.value()[q][i].dist,
                      knn_before.value()[q][i].dist);
    }
  }
}

TEST_F(GtsSerializeTest, RoundTripCarriesUpdateState) {
  auto metric = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 400, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{.cache_capacity_bytes = 1 << 20});
  ASSERT_TRUE(built.ok());
  GtsIndex& original = *built.value();

  // Tombstone a few objects, buffer a few inserts in the cache.
  for (uint32_t id = 0; id < 40; ++id) ASSERT_TRUE(original.Remove(id).ok());
  Dataset extra = GenerateDataset(DatasetId::kTLoc, 7, 99);
  for (uint32_t i = 0; i < 7; ++i) ASSERT_TRUE(original.Insert(extra, i).ok());
  ASSERT_EQ(original.cache_size(), 7u);

  ASSERT_TRUE(original.SaveTo(path_).ok());
  gpu::Device device2;
  auto loaded = GtsIndex::Load(path_, metric.get(), &device2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->cache_size(), 7u);
  EXPECT_EQ(loaded.value()->alive_size(), original.alive_size());
  for (uint32_t id = 0; id < 40; ++id) {
    EXPECT_FALSE(loaded.value()->IsAlive(id));
  }

  // Cached inserts remain queryable; tombstoned objects stay invisible.
  Dataset probe = Dataset::FloatVectors(2);
  probe.AppendFrom(extra, 3);
  auto knn = loaded.value()->KnnQueryBatch(probe, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_FLOAT_EQ(knn.value()[0][0].dist, 0.0f);
  for (const auto& res : knn.value()) {
    for (const auto& nb : res) EXPECT_TRUE(loaded.value()->IsAlive(nb.id));
  }
}

TEST_F(GtsSerializeTest, RejectsMetricMismatch) {
  auto l2 = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 100, 5);
  auto built = GtsIndex::Build(std::move(data), l2.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());

  auto l1 = MakeMetric(MetricKind::kL1);
  auto loaded = GtsIndex::Load(path_, l1.get(), &device_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GtsSerializeTest, RejectsGarbageAndTruncation) {
  auto metric = MakeMetric(MetricKind::kL2);
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not an index";
  }
  EXPECT_FALSE(GtsIndex::Load(path_, metric.get(), &device_).ok());

  // A valid file truncated mid-body must be rejected, not crash.
  Dataset data = GenerateDataset(DatasetId::kTLoc, 200, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), contents.size() / 2);
  }
  EXPECT_FALSE(GtsIndex::Load(path_, metric.get(), &device_).ok());
}

// Liveness is a bitset in memory and one byte per object on disk: the ids
// on both sides of a word boundary (63, 64) and the last id of the partial
// last word (299 of 300) stay dead through SaveTo and Load.
TEST_F(GtsSerializeTest, TombstonesAtBitsetWordEdgesSurviveRoundTrip) {
  auto metric = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 300, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const std::vector<uint32_t> dead = {63, 64, 299};
  for (const uint32_t id : dead) ASSERT_TRUE(built.value()->Remove(id).ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());

  gpu::Device device2;
  auto loaded = GtsIndex::Load(path_, metric.get(), &device2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  GtsIndex& index = *loaded.value();
  EXPECT_EQ(index.alive_size(), 297u);
  for (uint32_t id = 0; id < 300; ++id) {
    const bool is_dead = std::find(dead.begin(), dead.end(), id) != dead.end();
    EXPECT_EQ(index.IsAlive(id), !is_dead) << "id " << id;
  }
  // Each dead object, as a query, is in neither of its own answers.
  const Dataset queries = index.data().Slice(dead);
  const std::vector<float> radii(queries.size(), 0.0f);
  auto range = index.RangeQueryBatch(queries, radii);
  auto knn = index.KnnQueryBatch(queries, 8);
  ASSERT_TRUE(range.ok() && knn.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    for (const uint32_t id : range.value()[q]) EXPECT_TRUE(index.IsAlive(id));
    for (const Neighbor& nb : knn.value()[q]) EXPECT_TRUE(index.IsAlive(nb.id));
  }
}

// A string offset larger than the next one would give String(i) an
// underflowed length, and Load would read far past the chars (computing
// the covering ball). Load must reject it instead.
TEST_F(GtsSerializeTest, CorruptStringOffsetIsRejected) {
  auto metric = MakeDatasetMetric(DatasetId::kWords);
  Dataset data = GenerateDataset(DatasetId::kWords, 300, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  // Magic and options (44 bytes), dataset header (12), empty float array
  // (8), offsets count (8), then the 301 offsets.
  constexpr size_t kOffsets = 44 + 12 + 8 + 8;
  for (const uint32_t i : {0u, 10u, 150u, 299u, 300u}) {
    std::string mutant = contents;
    const uint32_t huge = 0x7ffffff0u;
    std::memcpy(mutant.data() + kOffsets + 4 * i, &huge, sizeof(huge));
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    auto loaded = GtsIndex::Load(path_, metric.get(), &device_);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "offset " << i;
  }
}

class GtsSerializeSweepTest
    : public GtsSerializeTest,
      public ::testing::WithParamInterface<DatasetId> {};

// A length field is never trusted: 2^44 written over each 4-byte offset of
// a saved index in turn (which hits every length field) must make Load
// return, with the index or a Status, instead of attempting a 2^44-element
// allocation. On a string index the sweep also hits every string offset.
TEST_P(GtsSerializeSweepTest, HugeValueAtEveryOffsetLoadsOrIsRejected) {
  auto metric = MakeDatasetMetric(GetParam());
  Dataset data = GenerateDataset(GetParam(), 300, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const uint64_t huge = uint64_t{1} << 44;
  std::map<StatusCode, int> outcomes;
  for (size_t offset = 0; offset + sizeof(huge) <= contents.size();
       offset += 4) {
    std::string mutant = contents;
    std::memcpy(mutant.data() + offset, &huge, sizeof(huge));
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    auto loaded = GtsIndex::Load(path_, metric.get(), &device_);
    ++outcomes[loaded.status().code()];
  }
  for (const auto& [code, count] : outcomes) {
    EXPECT_TRUE(code == StatusCode::kOk ||
                code == StatusCode::kInvalidArgument)
        << count << " mutants: " << Status(code, "").ToString();
  }
  EXPECT_GT(outcomes[StatusCode::kInvalidArgument], 0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, GtsSerializeSweepTest,
                         ::testing::Values(DatasetId::kTLoc, DatasetId::kWords),
                         [](const auto& info) {
                           return SafeName(GetDatasetSpec(info.param).name);
                         });

TEST_F(GtsSerializeTest, MissingFileIsNotFound) {
  auto metric = MakeMetric(MetricKind::kL2);
  auto loaded =
      GtsIndex::Load("/nonexistent/gts.bin", metric.get(), &device_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(GtsSerializeTest, LoadFailsOnTinyDevice) {
  auto metric = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 2000, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());

  gpu::Device tiny(gpu::DeviceOptions{.memory_bytes = 1024});
  auto loaded = GtsIndex::Load(path_, metric.get(), &tiny);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kMemoryLimit);
}

}  // namespace
}  // namespace gts
