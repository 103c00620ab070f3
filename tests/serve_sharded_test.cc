// ShardedFrontend suite: on a round-robin partition, scatter/gather range
// and exact-kNN answers must be byte-identical to a single index over the
// whole corpus — at 1, 2, and 4 shards, on a continuous metric (T-Loc/L2)
// AND a discrete one (Words/edit distance, where distance ties are
// everywhere and only the canonical (dist, id) merge order keeps the
// equality exact). Updates must hash/id-route consistently with the
// global-id mapping, and the whole layer must be TSan-clean under
// concurrent mixed churn (this file runs under the clang-tsan CI job's
// Serve re-run).
#include <gtest/gtest.h>

#include "test_util.h"

#include <atomic>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/request.h"
#include "serve/sharded_frontend.h"

namespace gts {
namespace {

using serve::Request;
using serve::Response;

struct Corpus {
  Dataset data = Dataset::Strings();
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> whole;  ///< one index over the full corpus
  std::vector<std::unique_ptr<GtsIndex>> shards;
};

/// Builds the whole-corpus index plus `num_shards` round-robin partition
/// shards (object g on shard g % N with local id g / N — the mapping
/// ShardedFrontend's global ids reproduce).
Corpus MakeShardedCorpus(DatasetId id, uint32_t n, uint32_t num_shards,
                         uint64_t seed) {
  Corpus c;
  c.data = GenerateDataset(id, n, seed);
  c.metric = MakeDatasetMetric(id);
  c.device = std::make_unique<gpu::Device>();

  std::vector<uint32_t> all(c.data.size());
  std::iota(all.begin(), all.end(), 0u);
  auto whole = GtsIndex::Build(c.data.Slice(all), c.metric.get(),
                               c.device.get(), GtsOptions{});
  EXPECT_TRUE(whole.ok()) << whole.status().ToString();
  c.whole = std::move(whole).value();

  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < c.data.size(); g += num_shards) ids.push_back(g);
    auto shard = GtsIndex::Build(c.data.Slice(ids), c.metric.get(),
                                 c.device.get(), GtsOptions{});
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    c.shards.push_back(std::move(shard).value());
  }
  return c;
}

/// The unreplicated frontend layout: each shard its own single replica.
std::vector<std::vector<GtsIndex*>> OneReplicaLayout(const Corpus& c) {
  std::vector<std::vector<GtsIndex*>> layout;
  for (const auto& s : c.shards) layout.push_back({s.get()});
  return layout;
}

// The headline byte-identity differential: range hits and exact kNN
// (ids AND bitwise distances) through 1/2/4 shards equal the single-index
// answers, on both metric families, across seeds.
TEST(ServeShardedDifferential, ScatterGatherMatchesSingleIndex) {
  struct Config {
    DatasetId id;
    uint32_t n;
    float radius_selectivity;
  };
  for (const Config& cfg : {Config{DatasetId::kTLoc, 900, 0.02f},
                            Config{DatasetId::kWords, 500, 0.02f}}) {
    for (const uint32_t num_shards : {1u, 2u, 4u}) {
      for (const uint64_t seed : {5u, 6u}) {
        SCOPED_TRACE("dataset=" + std::string(GetDatasetSpec(cfg.id).name) +
                     " shards=" + std::to_string(num_shards) +
                     " seed=" + std::to_string(seed));
        Corpus c = MakeShardedCorpus(cfg.id, cfg.n, num_shards, seed);
        const float r = cfg.id == DatasetId::kWords
                            ? 2.0f
                            : CalibrateRadius(c.data, *c.metric,
                                              cfg.radius_selectivity, 100, 7);
        constexpr uint32_t kQueries = 20;
        const Dataset queries = SampleQueries(c.data, kQueries, seed + 50);

        serve::FrontendOptions options;
        options.session.max_batch = 6;  // several flush cycles per shard
        options.session.max_wait_micros = 50;
        options.executor_threads = 4;
        serve::ShardedFrontend frontend(OneReplicaLayout(c), options);

        std::vector<std::future<Response>> range_futures, knn_futures;
        for (uint32_t q = 0; q < kQueries; ++q) {
          const uint64_t deadline = (q % 4 == 0) ? 500 : 0;
          range_futures.push_back(
              frontend.Submit(Request::Range(queries, q, r, deadline)));
          knn_futures.push_back(frontend.Submit(Request::Knn(queries, q, 7)));
        }
        for (uint32_t q = 0; q < kQueries; ++q) {
          Response range = range_futures[q].get();
          ASSERT_TRUE(range.ok()) << range.status().ToString();
          auto want_range = c.whole->RangeQuery(queries, q, r);
          ASSERT_TRUE(want_range.ok());
          EXPECT_EQ(range.range().value(), want_range.value())
              << "query " << q;

          Response knn = knn_futures[q].get();
          ASSERT_TRUE(knn.ok()) << knn.status().ToString();
          auto want_knn = c.whole->KnnQuery(queries, q, 7);
          ASSERT_TRUE(want_knn.ok());
          const auto& got = knn.knn().value();
          ASSERT_EQ(got.size(), want_knn.value().size()) << "query " << q;
          for (size_t i = 0; i < got.size(); ++i) {
            // Exact equality on purpose: the merge must reproduce the
            // single-index computation bit-for-bit, ties included.
            EXPECT_EQ(got[i].id, want_knn.value()[i].id)
                << "query " << q << " rank " << i;
            EXPECT_EQ(got[i].dist, want_knn.value()[i].dist);
          }
        }
        frontend.Drain();
        const serve::FrontendStats stats = frontend.stats();
        // Scatter accounting: every planned read resolves each shard
        // exactly once — as a submitted sub-query or a pruned one.
        EXPECT_EQ(stats.scatter_reads, uint64_t{2} * kQueries);
        EXPECT_EQ(stats.submitted + stats.pruned_shard_queries,
                  uint64_t{2} * kQueries * num_shards);
        EXPECT_EQ(stats.completed, stats.submitted);
        EXPECT_EQ(stats.rejected, 0u);
        ASSERT_EQ(stats.shards.size(), num_shards);
      }
    }
  }
}

// Removal-only batch updates keep ids stable on both sides, so the
// byte-identity must survive update churn routed through the frontend.
TEST(ServeShardedDifferential, RemovalChurnKeepsEquivalence) {
  constexpr uint32_t kShards = 3;
  Corpus c = MakeShardedCorpus(DatasetId::kTLoc, 600, kShards, 9);
  const float r = CalibrateRadius(c.data, *c.metric, 0.03, 100, 7);
  const Dataset queries = SampleQueries(c.data, 12, 21);

  serve::ShardedFrontend frontend(OneReplicaLayout(c));

  // Streaming removes (id-routed) + a removal-only batch update, mirrored
  // on the whole index with the same global ids.
  for (const uint32_t id : {7u, 8u, 100u}) {
    Response removed = frontend.Submit(Request::Remove(id)).get();
    EXPECT_TRUE(removed.ok()) << removed.status().ToString();
    ASSERT_TRUE(c.whole->Remove(id).ok());
  }
  std::vector<uint32_t> batch_removals = {11, 12, 13, 205};
  Response batched =
      frontend
          .Submit(Request::BatchUpdate(
              c.data.Slice(std::span<const uint32_t>{}), batch_removals))
          .get();
  EXPECT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_TRUE(c.whole
                  ->BatchUpdate(c.data.Slice(std::span<const uint32_t>{}),
                                batch_removals)
                  .ok());

  // And a full rebuild on both sides.
  Response rebuilt = frontend.Submit(Request::Rebuild()).get();
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_TRUE(c.whole->Rebuild().ok());

  for (uint32_t q = 0; q < queries.size(); ++q) {
    Response range = frontend.Submit(Request::Range(queries, q, r)).get();
    ASSERT_TRUE(range.ok());
    auto want_range = c.whole->RangeQuery(queries, q, r);
    ASSERT_TRUE(want_range.ok());
    EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

    Response knn = frontend.Submit(Request::Knn(queries, q, 5)).get();
    ASSERT_TRUE(knn.ok());
    auto want_knn = c.whole->KnnQuery(queries, q, 5);
    ASSERT_TRUE(want_knn.ok());
    ASSERT_EQ(knn.knn().value().size(), want_knn.value().size());
    for (size_t i = 0; i < want_knn.value().size(); ++i) {
      EXPECT_EQ(knn.knn().value()[i].id, want_knn.value()[i].id);
      EXPECT_EQ(knn.knn().value()[i].dist, want_knn.value()[i].dist);
    }
  }
  frontend.Drain();
}

// Inserts route by content hash; the returned global id encodes the home
// shard, removes route back to it, and the object is immediately
// queryable through the scatter path.
TEST(ServeShardedTest, HashRoutedInsertRoundTrip) {
  constexpr uint32_t kShards = 3;
  Corpus c = MakeShardedCorpus(DatasetId::kTLoc, 300, kShards, 17);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 6, 99);

  serve::ShardedFrontend frontend(OneReplicaLayout(c));
  const std::vector<uint32_t> alive_before = [&] {
    std::vector<uint32_t> v;
    for (const auto& s : c.shards) v.push_back(s->alive_size());
    return v;
  }();

  for (uint32_t d = 0; d < donors.size(); ++d) {
    const uint32_t want_shard = frontend.ShardForObject(donors, d);
    Response inserted = frontend.Submit(Request::Insert(donors, d)).get();
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    const uint32_t global = inserted.inserted().value();
    EXPECT_EQ(frontend.ShardOfId(global), want_shard);

    // The inserted object is its own nearest neighbour at distance 0.
    Response knn = frontend.Submit(Request::Knn(donors, d, 1)).get();
    ASSERT_TRUE(knn.ok());
    ASSERT_EQ(knn.knn().value().size(), 1u);
    EXPECT_EQ(knn.knn().value()[0].dist, 0.0f);

    // Remove routes back to the home shard via the id alone.
    Response removed = frontend.Submit(Request::Remove(global)).get();
    EXPECT_TRUE(removed.ok()) << removed.status().ToString();
  }
  frontend.Drain();
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(c.shards[s]->alive_size(), alive_before[s])
        << "shard " << s << " alive count drifted after insert+remove";
  }
  const serve::FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.writer_ops, uint64_t{2} * donors.size());
}

// A BatchUpdate a single index would reject before mutating (incompatible
// insert payload) must be rejected by the frontend with NO state change on
// ANY shard — the compat pre-check runs before the scatter, so a partial
// apply (some shards updated, one rejecting) cannot happen.
TEST(ServeShardedTest, IncompatibleBatchUpdateLeavesNoShardMutated) {
  constexpr uint32_t kShards = 3;
  Corpus c = MakeShardedCorpus(DatasetId::kTLoc, 300, kShards, 29);
  serve::ShardedFrontend frontend(OneReplicaLayout(c));

  std::vector<uint32_t> alive_before, rebuilds_before;
  for (const auto& s : c.shards) {
    alive_before.push_back(s->alive_size());
    rebuilds_before.push_back(s->rebuild_count());
  }

  // String inserts against float-vector shards, plus removals that WOULD
  // route and apply if the scatter ran.
  const Dataset bad_inserts = GenerateDataset(DatasetId::kWords, 4, 7);
  Response rejected =
      frontend.Submit(Request::BatchUpdate(bad_inserts, {0, 1, 2})).get();
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  frontend.Drain();

  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(c.shards[s]->alive_size(), alive_before[s])
        << "shard " << s << " mutated by a rejected batch update";
    EXPECT_EQ(c.shards[s]->rebuild_count(), rebuilds_before[s])
        << "shard " << s << " rebuilt on a rejected batch update";
  }
}

// Concurrent mixed churn over the frontend stays TSan-clean and keeps the
// counters coherent; post-churn scatter answers match a freshly-computed
// single-shard merge (self-consistency via Drain + direct comparison).
TEST(ServeShardedTest, ConcurrentMixedChurnKeepsInvariants) {
  constexpr uint32_t kShards = 2;
  Corpus c = MakeShardedCorpus(DatasetId::kTLoc, 600, kShards, 23);
  const float r = CalibrateRadius(c.data, *c.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(c.data, 16, 5);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 32, 101);

  serve::FrontendOptions options;
  options.session.max_batch = 8;
  options.session.max_wait_micros = 100;
  options.session.admission = serve::AdmissionPolicy::kBlock;
  options.executor_threads = 4;
  serve::ShardedFrontend frontend(OneReplicaLayout(c), options);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        if (t == 0 && i % 6 == 0) {
          Response ins =
              frontend
                  .Submit(Request::Insert(
                      donors, static_cast<uint32_t>(i) % donors.size()))
                  .get();
          if (!ins.ok()) failures.fetch_add(1);
          continue;
        }
        const uint64_t deadline = (i % 5 == 0) ? 2000 : 0;
        Response got = frontend
                           .Submit(Request::Range(
                               queries, (t + i) % queries.size(), r, deadline))
                           .get();
        if (!got.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  frontend.Drain();
  EXPECT_EQ(failures.load(), 0u);

  const serve::FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.writer_ops, 5u);

  // Post-churn: the scatter answer equals the direct per-shard merge.
  Response got = frontend.Submit(Request::Range(queries, 3, r)).get();
  ASSERT_TRUE(got.ok());
  std::vector<uint32_t> want;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto local = c.shards[s]->RangeQuery(queries, 3, r);
    ASSERT_TRUE(local.ok());
    for (const uint32_t l : local.value()) {
      want.push_back(frontend.GlobalId(s, l));
    }
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got.range().value(), want);
}

}  // namespace
}  // namespace gts
