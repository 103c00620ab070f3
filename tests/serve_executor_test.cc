// QueryExecutor differential suite: sharded multi-threaded batches must be
// byte-identical to the single-threaded RangeQueryBatch / KnnQueryBatch
// across seeds, batch sizes and thread counts, plus per-call stats
// independence (the regression suite for the read path's former
// const-correctness bug, where query state lived in index members).
#include <gtest/gtest.h>

#include "test_util.h"

#include <thread>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/query_executor.h"

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
  Dataset copy = env.data.Slice([&] {
    std::vector<uint32_t> ids(env.data.size());
    for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    return ids;
  }());
  auto built =
      GtsIndex::Build(std::move(copy), env.metric.get(), env.device.get(),
                      GtsOptions{});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  env.index = std::move(built).value();
  return env;
}

void ExpectIdenticalRange(const RangeResults& got, const RangeResults& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < got.size(); ++q) {
    EXPECT_EQ(got[q], want[q]) << "query " << q;
  }
}

void ExpectIdenticalKnn(const KnnResults& got, const KnnResults& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    for (size_t i = 0; i < got[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id) << "query " << q << " rank " << i;
      // Exact float equality on purpose: the sharded path must perform the
      // same computations in the same per-query order.
      EXPECT_EQ(got[q][i].dist, want[q][i].dist)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(ServeExecutorDifferential, ShardedMatchesSingleThreaded) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Env env = MakeIndexedEnv(DatasetId::kTLoc, 1500, seed);
    const float r = CalibrateRadius(env.data, *env.metric, 0.01, 100, 7);
    for (const uint32_t batch : {1u, 2u, 3u, 17u, 64u, 512u}) {
      const Dataset queries = SampleQueries(env.data, batch, seed * 7 + batch);
      const std::vector<float> radii(queries.size(), r);

      auto want_range = env.index->RangeQueryBatch(queries, radii);
      ASSERT_TRUE(want_range.ok()) << want_range.status().ToString();
      auto want_knn = env.index->KnnQueryBatch(queries, 8);
      ASSERT_TRUE(want_knn.ok()) << want_knn.status().ToString();

      for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        serve::QueryExecutor exec(env.index.get(),
                                  serve::ExecutorOptions{threads, 0});
        ASSERT_EQ(exec.num_threads(), threads);
        auto got_range = exec.RangeQueryBatch(queries, radii);
        ASSERT_TRUE(got_range.ok()) << got_range.status().ToString();
        ExpectIdenticalRange(got_range.value(), want_range.value());

        auto got_knn = exec.KnnQueryBatch(queries, 8);
        ASSERT_TRUE(got_knn.ok()) << got_knn.status().ToString();
        ExpectIdenticalKnn(got_knn.value(), want_knn.value());
      }
    }
  }
}

TEST(ServeExecutorDifferential, SingleQueryShardsMatch) {
  // shard_size = 1 exercises the maximal-fan-out merge path.
  Env env = MakeIndexedEnv(DatasetId::kWords, 400, 5);
  const Dataset queries = SampleQueries(env.data, 33, 99);
  const std::vector<float> radii(queries.size(), 2.0f);

  auto want = env.index->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(want.ok());
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{3, 1});
  auto got = exec.RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalRange(got.value(), want.value());

  const KnnOptions approx{.candidate_fraction = 0.5};
  auto want_knn = env.index->KnnQueryBatch(queries, 4, nullptr, approx);
  ASSERT_TRUE(want_knn.ok());
  auto got_knn = exec.KnnQueryBatch(queries, 4, nullptr, approx);
  ASSERT_TRUE(got_knn.ok());
  ExpectIdenticalKnn(got_knn.value(), want_knn.value());

  // Per-query initial bounds are split along with the queries: each
  // single-query shard must see its own bound.
  std::vector<float> caps(queries.size());
  for (uint32_t q = 0; q < caps.size(); ++q) caps[q] = 1.0f + (q % 3);
  const KnnOptions bounded{.initial_bounds = caps};
  auto want_bounded = env.index->KnnQueryBatch(queries, 4, nullptr, bounded);
  ASSERT_TRUE(want_bounded.ok());
  auto got_bounded = exec.KnnQueryBatch(queries, 4, nullptr, bounded);
  ASSERT_TRUE(got_bounded.ok());
  ExpectIdenticalKnn(got_bounded.value(), want_bounded.value());
}

TEST(ServeExecutorTest, ShardBoundsCoverInputInOrder) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 100, 3);
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{4, 0});
  for (const uint32_t n : {0u, 1u, 5u, 16u, 17u, 100u, 513u}) {
    const auto bounds = exec.ShardBounds(n);
    uint32_t expect_begin = 0;
    for (const auto& [begin, end] : bounds) {
      EXPECT_EQ(begin, expect_begin);
      EXPECT_LT(begin, end);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, n);
    if (n == 0) {
      EXPECT_TRUE(bounds.empty());
    }
  }
  serve::QueryExecutor unit(env.index.get(), serve::ExecutorOptions{2, 1});
  EXPECT_EQ(unit.ShardBounds(7).size(), 7u);
}

TEST(ServeExecutorTest, PropagatesValidationErrors) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 100, 3);
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  const Dataset queries = SampleQueries(env.data, 4, 1);

  const std::vector<float> bad_radii(3, 1.0f);  // one radius short
  EXPECT_FALSE(exec.RangeQueryBatch(queries, bad_radii).ok());

  // Status parity with the single-threaded path on *empty* batches, which
  // spawn no shards: invalid arguments must still be rejected.
  const Dataset no_queries = GenerateDataset(DatasetId::kTLoc, 0, 1);
  EXPECT_FALSE(exec.RangeQueryBatch(no_queries, bad_radii).ok());
  const KnnOptions bad_fraction{.candidate_fraction = 2.0};
  EXPECT_FALSE(exec.KnnQueryBatch(no_queries, 4, nullptr, bad_fraction).ok());
  auto empty_ok = exec.KnnQueryBatch(no_queries, 4);
  ASSERT_TRUE(empty_ok.ok());
  EXPECT_TRUE(empty_ok.value().empty());

  const Dataset incompatible = GenerateDataset(DatasetId::kWords, 4, 1);
  const std::vector<float> radii(4, 1.0f);
  EXPECT_FALSE(exec.RangeQueryBatch(incompatible, radii).ok());
  EXPECT_FALSE(exec.KnnQueryBatch(incompatible, 4).ok());
  for (const double fraction : {0.0, 1.5}) {
    const KnnOptions bad{.candidate_fraction = fraction};
    EXPECT_FALSE(exec.KnnQueryBatch(queries, 4, nullptr, bad).ok());
  }
  // One initial bound per query, proven before the per-shard split.
  const std::vector<float> short_caps(3, 1.0f);
  const KnnOptions bad_bounds{.initial_bounds = short_caps};
  EXPECT_FALSE(exec.KnnQueryBatch(queries, 4, nullptr, bad_bounds).ok());
}

TEST(ServeExecutorTest, AggregatesStatsAcrossShards) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 800, 9);
  const Dataset queries = SampleQueries(env.data, 64, 2);
  const std::vector<float> radii(
      queries.size(), CalibrateRadius(env.data, *env.metric, 0.01, 100, 7));

  GtsQueryStats single;
  ASSERT_TRUE(env.index->RangeQueryBatch(queries, radii, &single).ok());
  EXPECT_GT(single.distance_computations, 0u);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{4, 16});
  GtsQueryStats sharded;
  ASSERT_TRUE(exec.RangeQueryBatch(queries, radii, &sharded).ok());
  // Sharding changes two-stage grouping but not the per-query work: the
  // distance and verification counters must match the single-threaded call
  // exactly; group counts may differ.
  EXPECT_EQ(sharded.distance_computations, single.distance_computations);
  EXPECT_EQ(sharded.objects_verified, single.objects_verified);
  EXPECT_EQ(sharded.nodes_visited, single.nodes_visited);
}

// Regression for the latent const-correctness bug: RangeQueryBatch /
// KnnQueryBatch used to mutate index members (query_stats_,
// knn_candidate_fraction_) despite being logically read-only, so
// interleaved calls corrupted each other's stats. The per-call context must
// give every call independent, correct counters.
TEST(ServeStatsRegression, InterleavedCallsProduceIndependentStats) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 1000, 21);
  const Dataset queries = SampleQueries(env.data, 32, 4);
  const std::vector<float> radii(
      queries.size(), CalibrateRadius(env.data, *env.metric, 0.01, 100, 7));

  env.index->ResetQueryStats();
  GtsQueryStats first, second;
  ASSERT_TRUE(env.index->RangeQueryBatch(queries, radii, &first).ok());
  ASSERT_TRUE(env.index->RangeQueryBatch(queries, radii, &second).ok());
  EXPECT_GT(first.distance_computations, 0u);
  EXPECT_EQ(first, second);  // identical read-only work

  GtsQueryStats sum = first;
  sum += second;
  EXPECT_EQ(env.index->query_stats(), sum);  // aggregate preserved
}

TEST(ServeStatsRegression, ConcurrentCallsProduceIndependentStats) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 1000, 22);
  const Dataset queries = SampleQueries(env.data, 24, 6);
  const std::vector<float> radii(
      queries.size(), CalibrateRadius(env.data, *env.metric, 0.01, 100, 7));

  GtsQueryStats want;
  ASSERT_TRUE(env.index->RangeQueryBatch(queries, radii, &want).ok());

  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<GtsQueryStats> got(kThreads * kIters);
  // uint8_t, not vector<bool>: adjacent slots must not share a byte when
  // written from different threads.
  std::vector<uint8_t> ok(kThreads * kIters, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          const int slot = t * kIters + i;
          ok[slot] =
              env.index->RangeQueryBatch(queries, radii, &got[slot]).ok();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int slot = 0; slot < kThreads * kIters; ++slot) {
    ASSERT_TRUE(ok[slot]) << "slot " << slot;
    EXPECT_EQ(got[slot], want) << "slot " << slot;
  }
}

// The approximate-mode candidate fraction must be per-call state: a
// concurrent approximate query must not degrade a concurrent exact one (it
// used to leak through the knn_candidate_fraction_ member).
TEST(ServeStatsRegression, ApproxFractionDoesNotLeakAcrossCalls) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 1200, 23);
  const Dataset queries = SampleQueries(env.data, 16, 8);

  auto want = env.index->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(want.ok());

  std::thread approx_thread([&] {
    for (int i = 0; i < 12; ++i) {
      auto res = env.index->KnnQueryBatch(
          queries, 8, nullptr, KnnOptions{.candidate_fraction = 0.05});
      EXPECT_TRUE(res.ok());
    }
  });
  for (int i = 0; i < 12; ++i) {
    auto exact = env.index->KnnQueryBatch(queries, 8);
    ASSERT_TRUE(exact.ok());
    ExpectIdenticalKnn(exact.value(), want.value());
  }
  approx_thread.join();
}

}  // namespace
}  // namespace gts
