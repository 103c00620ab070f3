// Versioned-snapshot read-path suite. A held GtsIndex::ReadSnapshot pins
// one published version: its query answers must be byte-identical before,
// during, and after concurrent Rebuild / BatchUpdate storms, its
// introspection must keep reporting the pinned state, and — the structural
// claim behind all of it — reads must complete while the writer mutex is
// held by someone else, proving no reader ever acquires it. Retired
// versions must be reclaimed only after every pinning snapshot releases.
// Runs under ASan and TSan in CI (premature reclamation is a
// use-after-free long before it is a wrong answer).
#include <gtest/gtest.h>

#include "test_util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

struct Env {
  Dataset data = Dataset::Strings();
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> index;
};

Env MakeIndexedEnv(DatasetId id, uint32_t n, uint64_t seed) {
  Env env;
  env.data = GenerateDataset(id, n, seed);
  env.metric = MakeDatasetMetric(id);
  env.device = std::make_unique<gpu::Device>();
  std::vector<uint32_t> ids(env.data.size());
  std::iota(ids.begin(), ids.end(), 0u);
  auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                               env.device.get(), GtsOptions{});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  env.index = std::move(built).value();
  return env;
}

void ExpectSameKnn(const KnnResults& got, const KnnResults& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    for (size_t i = 0; i < got[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << "query " << q;
      // Exact float equality on purpose: the snapshot must replay the
      // same computation, not a merely-equivalent one.
      EXPECT_EQ(got[q][i].dist, want[q][i].dist) << "query " << q;
    }
  }
}

// The acceptance test for the lock-free claim: with the writer mutex held
// for the whole duration, every read entry point — snapshot queries, raw
// index queries, introspection — must still complete. A reader that
// touched the writer mutex would deadlock here and trip the timeout.
TEST(GtsSnapshotTest, ReadsCompleteWhileWriterMutexHeld) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 800, 19);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 16, 3);
  const std::vector<float> radii(queries.size(), r);

  const MutexLock writer_lock(env.index->WriterMutexForTest());
  auto reads = std::async(std::launch::async, [&] {
    const GtsIndex::ReadSnapshot snapshot = env.index->SnapshotForRead();
    EXPECT_TRUE(snapshot.RangeQueryBatch(queries, radii).ok());
    EXPECT_TRUE(snapshot.KnnQueryBatch(queries, 8).ok());
    EXPECT_TRUE(env.index->RangeQueryBatch(queries, radii).ok());
    EXPECT_TRUE(env.index->KnnQueryBatch(queries, 8).ok());
    const KnnOptions approx{.candidate_fraction = 0.5};
    EXPECT_TRUE(env.index->KnnQueryBatch(queries, 8, nullptr, approx).ok());
    EXPECT_GT(env.index->alive_size(), 0u);
    EXPECT_GT(env.index->height(), 0u);
    EXPECT_GT(env.index->IndexBytes(), 0u);
    EXPECT_TRUE(env.index->IsAlive(0));
  });
  ASSERT_EQ(reads.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "a read path blocked on the writer mutex";
  reads.get();
}

TEST(GtsSnapshotTest, HeldSnapshotIsIdenticalAcrossConcurrentRebuilds) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 1200, 23);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 24, 5);
  const std::vector<float> radii(queries.size(), r);

  const GtsIndex::ReadSnapshot snapshot = env.index->SnapshotForRead();
  auto want_range = snapshot.RangeQueryBatch(queries, radii);
  ASSERT_TRUE(want_range.ok()) << want_range.status().ToString();
  auto want_knn = snapshot.KnnQueryBatch(queries, 8);
  ASSERT_TRUE(want_knn.ok());
  const uint64_t rebuilds_before = snapshot.rebuild_count();

  // Rebuild storm beside the held snapshot: every loop publishes a fresh
  // version and retires the previous one.
  constexpr int kRebuilds = 5;
  std::atomic<int> done{0};
  std::thread writer([&] {
    for (int i = 0; i < kRebuilds; ++i) {
      EXPECT_TRUE(env.index->Rebuild().ok());
      done.fetch_add(1);
    }
  });
  // Query through the pinned version *while* versions churn underneath.
  while (done.load() < kRebuilds) {
    auto during = snapshot.RangeQueryBatch(queries, radii);
    ASSERT_TRUE(during.ok());
    EXPECT_EQ(during.value(), want_range.value());
  }
  writer.join();

  // After the storm: the pinned version still answers identically and
  // still reports its own rebuild count; the live index moved on.
  auto after_range = snapshot.RangeQueryBatch(queries, radii);
  ASSERT_TRUE(after_range.ok());
  EXPECT_EQ(after_range.value(), want_range.value());
  auto after_knn = snapshot.KnnQueryBatch(queries, 8);
  ASSERT_TRUE(after_knn.ok());
  ExpectSameKnn(after_knn.value(), want_knn.value());
  EXPECT_EQ(snapshot.rebuild_count(), rebuilds_before);
  EXPECT_EQ(env.index->rebuild_count(), rebuilds_before + kRebuilds);
  EXPECT_GE(env.index->versions_retired(), uint64_t{kRebuilds});
}

TEST(GtsSnapshotTest, HeldSnapshotIsIdenticalAcrossBatchUpdate) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 900, 29);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 16, 7);
  const std::vector<float> radii(queries.size(), r);

  const GtsIndex::ReadSnapshot snapshot = env.index->SnapshotForRead();
  auto want_range = snapshot.RangeQueryBatch(queries, radii);
  ASSERT_TRUE(want_range.ok());
  auto want_knn = snapshot.KnnQueryBatch(queries, 6);
  ASSERT_TRUE(want_knn.ok());
  const uint32_t alive_before = snapshot.alive_size();

  // Remove half the snapshot's nearest neighbors and insert new objects —
  // the single most answer-changing update available.
  std::vector<uint32_t> removals;
  for (const auto& neighbors : want_knn.value()) {
    if (neighbors.empty() || removals.size() >= 8) continue;
    const uint32_t id = neighbors.front().id;
    if (std::find(removals.begin(), removals.end(), id) == removals.end()) {
      removals.push_back(id);
    }
  }
  const Dataset inserts = SampleQueries(env.data, 5, 31);
  const Status updated = env.index->BatchUpdate(inserts, removals);
  ASSERT_TRUE(updated.ok()) << updated.ToString();

  // The live index sees the update; the pinned version does not — removed
  // ids keep appearing in its answers, inserts never do.
  EXPECT_NE(env.index->alive_size(), alive_before);
  EXPECT_EQ(snapshot.alive_size(), alive_before);
  auto after_range = snapshot.RangeQueryBatch(queries, radii);
  ASSERT_TRUE(after_range.ok());
  EXPECT_EQ(after_range.value(), want_range.value());
  auto after_knn = snapshot.KnnQueryBatch(queries, 6);
  ASSERT_TRUE(after_knn.ok());
  ExpectSameKnn(after_knn.value(), want_knn.value());
}

// Reclamation timing: a version superseded while a snapshot pins it stays
// in limbo until that snapshot releases; the next publication's reclaim
// pass then frees it.
TEST(GtsSnapshotTest, SupersededVersionReclaimedOnlyAfterSnapshotReleases) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 500, 37);

  // No snapshot held: each update's retirement reclaims eagerly.
  ASSERT_TRUE(env.index->Insert(env.data, 0).ok());
  EXPECT_EQ(env.index->versions_retired(), 1u);
  EXPECT_EQ(env.index->versions_reclaimed(), 1u);

  uint64_t held_back = 0;
  {
    const GtsIndex::ReadSnapshot snapshot = env.index->SnapshotForRead();
    ASSERT_TRUE(env.index->Insert(env.data, 1).ok());
    ASSERT_TRUE(env.index->Rebuild().ok());
    EXPECT_EQ(env.index->versions_retired(), 3u);
    held_back = env.index->versions_retired() -
                env.index->versions_reclaimed();
    EXPECT_GE(held_back, 1u) << "pinned version was reclaimed while held";
  }
  // Released: the next retirement's reclaim pass frees the backlog.
  ASSERT_TRUE(env.index->Insert(env.data, 2).ok());
  EXPECT_EQ(env.index->versions_retired(), 4u);
  EXPECT_EQ(env.index->versions_reclaimed(), 4u);
}

}  // namespace
}  // namespace gts
