// Pruned-scatter suite: the covering-ball shard planner and the two-phase
// bounded kNN scatter must keep sharded answers byte-identical to a
// single index over the whole corpus while actually skipping shards —
// on a continuous metric (L2) AND a discrete one (edit distance), through
// adversarial geometry: a query ball exactly grazing a shard ball, reads
// every shard prunes, and a shard emptied by removal churn. Runs under
// the clang-tsan CI job's Serve re-run (suite names contain "Serve").
#include <gtest/gtest.h>

#include "test_util.h"

#include <cstdint>
#include <future>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/gts.h"
#include "data/workload.h"
#include "metric/distance.h"
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

/// Builds the whole-corpus index plus the round-robin partition shards
/// (object g on shard g % N with local id g / N).
void BuildCorpus(Corpus* c, uint32_t num_shards) {
  c->device = std::make_unique<gpu::Device>();
  std::vector<uint32_t> all(c->data.size());
  std::iota(all.begin(), all.end(), 0u);
  auto whole = GtsIndex::Build(c->data.Slice(all), c->metric.get(),
                               c->device.get(), GtsOptions{});
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  c->whole = std::move(whole).value();
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < c->data.size(); g += num_shards) {
      ids.push_back(g);
    }
    auto shard = GtsIndex::Build(c->data.Slice(ids), c->metric.get(),
                                 c->device.get(), GtsOptions{});
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    c->shards.push_back(std::move(shard).value());
  }
}

/// A round-robin partition that is ALSO a cluster partition: object g
/// sits in cluster g % num_shards, and the clusters are far apart
/// relative to their spread — so shard s's covering ball encloses exactly
/// cluster s and pruning has real work to do, while the global-id mapping
/// still reproduces corpus ids.
Corpus ClusteredVectorCorpus(uint32_t n, uint32_t num_shards, uint64_t seed,
                             float separation, float spread) {
  Corpus c;
  c.data = Dataset::FloatVectors(2);
  c.metric = MakeMetric(MetricKind::kL2);
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_real_distribution<float> jitter(-spread, spread);
  for (uint32_t g = 0; g < n; ++g) {
    const float cx = static_cast<float>(g % num_shards) * separation;
    c.data.AppendVector(std::vector<float>{cx + jitter(rng), jitter(rng)});
  }
  BuildCorpus(&c, num_shards);
  return c;
}

/// The string analogue: cluster 0 holds short {a,b} strings, cluster 1
/// long {c,d} strings — the length gap lower-bounds the cross-cluster
/// edit distance, so the two shard balls are far apart under kEdit.
Corpus ClusteredStringCorpus(uint32_t n, uint64_t seed) {
  Corpus c;
  c.data = Dataset::Strings();
  c.metric = MakeMetric(MetricKind::kEdit);
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_int_distribution<int> coin(0, 1);
  for (uint32_t g = 0; g < n; ++g) {
    std::string s;
    if (g % 2 == 0) {
      s = "aa";
      for (int i = 0; i < 2; ++i) s += coin(rng) != 0 ? 'a' : 'b';
    } else {
      s.assign(38, 'c');
      for (int i = 0; i < 2; ++i) s += coin(rng) != 0 ? 'c' : 'd';
    }
    c.data.AppendString(s);
  }
  BuildCorpus(&c, 2);
  return c;
}

/// The unreplicated frontend layout: each shard its own single replica.
std::vector<std::vector<GtsIndex*>> OneReplicaLayout(const Corpus& c) {
  std::vector<std::vector<GtsIndex*>> layout;
  for (const auto& s : c.shards) layout.push_back({s.get()});
  return layout;
}

void ExpectKnnEqual(const std::vector<Neighbor>& got,
                    const std::vector<Neighbor>& want, uint32_t q) {
  ASSERT_EQ(got.size(), want.size()) << "query " << q;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "query " << q << " rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "query " << q << " rank " << i;
  }
}

// On a clustered partition, pruning must fire (a near-cluster query
// cannot touch the other clusters' balls) AND every answer must stay
// byte-identical to a single index over the whole corpus, on L2. Also
// checks the planner's accounting invariant: every planned read resolves
// each shard exactly once, submitted or pruned.
TEST(ServePrunedScatterDifferential, ClusteredVectorsPruneAndStayExact) {
  for (const uint32_t num_shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    Corpus c = ClusteredVectorCorpus(600, num_shards, 31, 1000.0f, 10.0f);
    constexpr uint32_t kQueries = 24;
    const Dataset queries = SampleQueries(c.data, kQueries, 77);
    const float r = 15.0f;  // covers the home cluster, far from the rest

    serve::FrontendOptions options;
    options.session.max_batch = 6;
    options.session.max_wait_micros = 50;
    serve::ShardedFrontend frontend(OneReplicaLayout(c), options);

    std::vector<std::future<Response>> range_futs, knn_futs;
    for (uint32_t q = 0; q < kQueries; ++q) {
      range_futs.push_back(frontend.Submit(Request::Range(queries, q, r)));
      knn_futs.push_back(frontend.Submit(Request::Knn(queries, q, 5)));
    }
    for (uint32_t q = 0; q < kQueries; ++q) {
      Response range = range_futs[q].get();
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      auto want_range = c.whole->RangeQuery(queries, q, r);
      ASSERT_TRUE(want_range.ok());
      EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

      Response knn = knn_futs[q].get();
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      auto want_knn = c.whole->KnnQuery(queries, q, 5);
      ASSERT_TRUE(want_knn.ok());
      ExpectKnnEqual(knn.knn().value(), want_knn.value(), q);
    }
    frontend.Drain();
    const serve::FrontendStats stats = frontend.stats();
    EXPECT_EQ(stats.scatter_reads, uint64_t{2} * kQueries);
    EXPECT_EQ(stats.submitted + stats.pruned_shard_queries,
              uint64_t{2} * kQueries * num_shards);
    EXPECT_EQ(stats.completed, stats.submitted);
    // Every read's home cluster is far from the other shards' balls: the
    // planner must skip most of the fan-out.
    EXPECT_GE(stats.pruned_shard_queries,
              uint64_t{2} * kQueries * (num_shards - 1));
  }
}

// Same exactness-under-pruning claim on a discrete metric, where distance
// ties are everywhere and only the canonical (dist, id) merge order keeps
// the equality bitwise.
TEST(ServePrunedScatterDifferential, ClusteredStringsPruneAndStayExact) {
  Corpus c = ClusteredStringCorpus(300, 13);
  constexpr uint32_t kQueries = 16;
  const Dataset queries = SampleQueries(c.data, kQueries, 5);

  serve::ShardedFrontend frontend(OneReplicaLayout(c));
  std::vector<std::future<Response>> range_futs, knn_futs;
  for (uint32_t q = 0; q < kQueries; ++q) {
    range_futs.push_back(frontend.Submit(Request::Range(queries, q, 2.0f)));
    knn_futs.push_back(frontend.Submit(Request::Knn(queries, q, 7)));
  }
  for (uint32_t q = 0; q < kQueries; ++q) {
    Response range = range_futs[q].get();
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    auto want_range = c.whole->RangeQuery(queries, q, 2.0f);
    ASSERT_TRUE(want_range.ok());
    EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

    Response knn = knn_futs[q].get();
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    auto want_knn = c.whole->KnnQuery(queries, q, 7);
    ASSERT_TRUE(want_knn.ok());
    ExpectKnnEqual(knn.knn().value(), want_knn.value(), q);
  }
  frontend.Drain();
  // The length gap separates the balls: range reads must prune the
  // opposite shard every time.
  EXPECT_GE(frontend.stats().pruned_shard_queries, uint64_t{kQueries});
}

// The strictness edge: a query ball exactly GRAZING a shard ball (lower
// bound == radius) must NOT be pruned — the boundary hit belongs to the
// answer — while shrinking the radius below the bound must prune, with
// the answer staying byte-identical either way. Shard 1 holds identical
// points, so its ball has radius 0 and the geometry is exact in floats.
TEST(ServePrunedScatterDifferential, GrazingBallBoundaryKeepsBoundaryHits) {
  Corpus c;
  c.data = Dataset::FloatVectors(2);
  c.metric = MakeMetric(MetricKind::kL2);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> jitter(-1.0f, 1.0f);
  for (uint32_t g = 0; g < 200; ++g) {
    if (g % 2 == 0) {
      c.data.AppendVector(std::vector<float>{jitter(rng), jitter(rng)});
    } else {
      c.data.AppendVector(std::vector<float>{100.0f, 0.0f});
    }
  }
  BuildCorpus(&c, 2);

  Dataset query = Dataset::FloatVectors(2);
  query.AppendVector(std::vector<float>{95.0f, 0.0f});  // d to shard 1: 5.0

  serve::ShardedFrontend frontend(OneReplicaLayout(c));
  const auto run_range = [&](float r) {
    Response got = frontend.Submit(Request::Range(query, 0, r)).get();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    auto want = c.whole->RangeQuery(query, 0, r);
    EXPECT_TRUE(want.ok());
    EXPECT_EQ(got.range().value(), want.value()) << "radius " << r;
    return got.range().value().size();
  };

  // Grazing: lower bound d - radius_ball = 5.0 == r. Not pruned; every
  // boundary duplicate is a hit.
  EXPECT_EQ(run_range(5.0f), 100u);
  const uint64_t pruned_after_graze = frontend.stats().pruned_shard_queries;
  // Below the bound: pruned, and provably empty on that shard.
  EXPECT_EQ(run_range(4.5f), 0u);
  EXPECT_GT(frontend.stats().pruned_shard_queries, pruned_after_graze);

  // kNN lands all ties at the bound: the seed (shard 1, lower bound 5)
  // returns k duplicates at distance 5, the cap becomes 5, shard 0 (lower
  // bound ~ 93) prunes — and the merged ids must be the smallest global
  // ids among the tied duplicates, exactly as the single index ranks
  // them.
  Response knn = frontend.Submit(Request::Knn(query, 0, 3)).get();
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  auto want_knn = c.whole->KnnQuery(query, 0, 3);
  ASSERT_TRUE(want_knn.ok());
  ExpectKnnEqual(knn.knn().value(), want_knn.value(), 0);
  frontend.Drain();
}

// A query no shard can serve resolves empty WITHOUT touching any session,
// and a k=0 kNN short-circuits the same way; both count the full fan-out
// as pruned so the accounting invariant holds.
TEST(ServePrunedScatterTest, AllPrunedReadResolvesEmptyWithoutScatter) {
  constexpr uint32_t kShards = 4;
  Corpus c = ClusteredVectorCorpus(400, kShards, 3, 1000.0f, 10.0f);
  serve::ShardedFrontend frontend(OneReplicaLayout(c));

  Dataset far = Dataset::FloatVectors(2);
  far.AppendVector(std::vector<float>{1.0e6f, 1.0e6f});

  Response range = frontend.Submit(Request::Range(far, 0, 1.0f)).get();
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(range.range().value().empty());

  Response knn_zero = frontend.Submit(Request::Knn(far, 0, 0)).get();
  ASSERT_TRUE(knn_zero.ok());
  EXPECT_TRUE(knn_zero.knn().value().empty());

  frontend.Drain();
  const serve::FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.scatter_reads, 2u);
  EXPECT_EQ(stats.pruned_shard_queries, uint64_t{2} * kShards);
  // No sub-query ever reached a session.
  EXPECT_EQ(stats.submitted, 0u);
}

// Removal churn that empties one shard entirely: the emptied shard is
// pruned from every subsequent read (stale ball or not), and answers stay
// byte-identical to a single index that saw the same removals — before
// AND after a fanned-out rebuild refreshes the shard balls.
TEST(ServePrunedScatterTest, EmptiedShardIsPrunedAfterChurn) {
  Corpus c = ClusteredVectorCorpus(240, 2, 19, 1000.0f, 10.0f);
  const Dataset queries = SampleQueries(c.data, 10, 41);
  serve::ShardedFrontend frontend(OneReplicaLayout(c));

  // Remove every odd global id — all of shard 1 — through the frontend.
  for (uint32_t g = 1; g < c.data.size(); g += 2) {
    Response removed = frontend.Submit(Request::Remove(g)).get();
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    ASSERT_TRUE(c.whole->Remove(g).ok());
  }
  ASSERT_EQ(c.shards[1]->alive_size(), 0u);

  const auto check_reads = [&] {
    for (uint32_t q = 0; q < queries.size(); ++q) {
      Response range =
          frontend.Submit(Request::Range(queries, q, 20.0f)).get();
      ASSERT_TRUE(range.ok());
      auto want_range = c.whole->RangeQuery(queries, q, 20.0f);
      ASSERT_TRUE(want_range.ok());
      EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

      Response knn = frontend.Submit(Request::Knn(queries, q, 4)).get();
      ASSERT_TRUE(knn.ok());
      auto want_knn = c.whole->KnnQuery(queries, q, 4);
      ASSERT_TRUE(want_knn.ok());
      ExpectKnnEqual(knn.knn().value(), want_knn.value(), q);
    }
  };
  check_reads();
  const uint64_t pruned_before_rebuild =
      frontend.stats().pruned_shard_queries;
  // Every read must have pruned the emptied shard at least.
  EXPECT_GE(pruned_before_rebuild, uint64_t{2} * queries.size());

  Response rebuilt = frontend.Submit(Request::Rebuild()).get();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_TRUE(c.whole->Rebuild().ok());
  check_reads();
  frontend.Drain();
  EXPECT_GE(frontend.stats().pruned_shard_queries,
            pruned_before_rebuild + uint64_t{2} * queries.size());
}

// The 64-bit global-id composition: the last representable id round-trips,
// one past it is an explicit error, not a silent wrap.
TEST(ServePrunedScatterTest, ComposeGlobalIdBoundary) {
  auto last = serve::ShardedFrontend::ComposeGlobalId(0x3FFFFFFFu, 3, 4);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value(), 0xFFFFFFFFu);

  auto over = serve::ShardedFrontend::ComposeGlobalId(0x40000000u, 0, 4);
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);

  auto far_over =
      serve::ShardedFrontend::ComposeGlobalId(0xFFFFFFFFu, 6, 7);
  EXPECT_EQ(far_over.status().code(), StatusCode::kInvalidArgument);
}

// Deadline targets on BatchUpdate and Rebuild must reach every shard's
// session through the fan-out (the sub-requests used to drop them), so a
// deadline-audited writer is visible on every shard.
TEST(ServePrunedScatterTest, WriterDeadlinePropagatesThroughFanOut) {
  constexpr uint32_t kShards = 3;
  Corpus c = ClusteredVectorCorpus(120, kShards, 23, 1000.0f, 10.0f);
  serve::ShardedFrontend frontend(OneReplicaLayout(c));

  Request batch = Request::BatchUpdate(
      c.data.Slice(std::span<const uint32_t>{}), {0, 1, 2});
  batch.deadline_micros = 1500;
  ASSERT_TRUE(frontend.Submit(std::move(batch)).get().ok());

  Request rebuild = Request::Rebuild();
  rebuild.deadline_micros = 2000;
  ASSERT_TRUE(frontend.Submit(std::move(rebuild)).get().ok());

  // A deadline-free update must NOT count.
  ASSERT_TRUE(frontend
                  .Submit(Request::BatchUpdate(
                      c.data.Slice(std::span<const uint32_t>{}), {4}))
                  .get()
                  .ok());

  frontend.Drain();
  const serve::FrontendStats stats = frontend.stats();
  ASSERT_EQ(stats.shards.size(), kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(stats.shards[s].writer_deadline_carried, 2u)
        << "shard " << s << " lost a fanned-out deadline target";
  }
}

// Batched scatter + EDF: a SubmitBatch group lands on every shard's
// queue in one admission pass, so the per-shard EDF composition sees the
// WHOLE group at once — the urgent read leads the first flush of every
// shard even though it was submitted last.
TEST(ServePrunedScatterTest, BatchedScatterKeepsEdfComposition) {
  Corpus c = ClusteredVectorCorpus(200, 2, 37, 1000.0f, 10.0f);
  const Dataset queries = SampleQueries(c.data, 7, 11);

  std::mutex flush_mu;
  std::vector<std::vector<uint64_t>> flushes;
  serve::FrontendOptions options;
  options.session.max_batch = 4;
  options.session.max_wait_micros = 1000;
  options.session.max_queue = 64;
  options.session.on_flush = [&](std::span<const uint64_t> seqs) {
    std::lock_guard<std::mutex> lock(flush_mu);
    flushes.emplace_back(seqs.begin(), seqs.end());
  };
  serve::ShardedFrontend frontend(OneReplicaLayout(c), options);

  // Radius large enough that NO shard prunes: the sub-request order (and
  // so the per-session seqs) equals the request order on both shards.
  std::vector<Request> group;
  for (uint32_t q = 0; q < 6; ++q) {
    group.push_back(Request::Range(queries, q, 1.0e7f));
  }
  group.push_back(Request::Range(queries, 6, 1.0e7f, /*deadline_micros=*/500));

  auto futures = frontend.SubmitBatch(std::move(group));
  for (size_t i = 0; i < futures.size(); ++i) {
    Response got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = c.whole->RangeQuery(queries, static_cast<uint32_t>(i), 1.0e7f);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.range().value(), want.value()) << "request " << i;
  }
  frontend.Drain();

  // Each shard flushed twice: the urgent read (seq 6) first, then the
  // patient backlog in arrival order.
  std::lock_guard<std::mutex> lock(flush_mu);
  const std::vector<uint64_t> first{6, 0, 1, 2};
  const std::vector<uint64_t> second{3, 4, 5};
  size_t firsts = 0, seconds = 0;
  for (const auto& f : flushes) {
    if (f == first) ++firsts;
    if (f == second) ++seconds;
  }
  EXPECT_EQ(firsts, 2u) << "a shard's first flush was not EDF-led";
  EXPECT_EQ(seconds, 2u);
  EXPECT_EQ(flushes.size(), 4u);
}

}  // namespace
}  // namespace gts
