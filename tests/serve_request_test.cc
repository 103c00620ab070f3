// Unified request-plane suite: Submit(serve::Request) through QuerySession
// and ShardedFrontend must be byte-identical to direct index calls, across
// seeds and operation mixes; rejections must resolve in the request's own
// typed Response alternative. Runs under the clang-tsan CI job's Serve
// re-run.
#include <gtest/gtest.h>

#include "test_util.h"

#include <future>
#include <limits>
#include <numeric>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/request.h"
#include "serve/sharded_frontend.h"

namespace gts {
namespace {

using serve::Request;
using serve::Response;

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

// The round-robin 2-shard partition of env's corpus (shard s holds the
// corpus ids s, s + 2, ...).
std::vector<std::unique_ptr<GtsIndex>> RoundRobinShards(const Env& env) {
  std::vector<std::unique_ptr<GtsIndex>> shards;
  for (uint32_t s = 0; s < 2; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < env.data.size(); g += 2) ids.push_back(g);
    auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                                 env.device.get(), GtsOptions{});
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    shards.push_back(std::move(built).value());
  }
  return shards;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    // Exact float equality on purpose: the entry point must not change
    // any query's computation.
    EXPECT_EQ(got[i].dist, want[i].dist);
  }
}

// The unified entry point and the direct batch path must agree
// byte-for-byte on every operation family, across seeds.
TEST(ServeRequestDifferential, UnifiedMatchesBatchAcrossSeeds) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Env env = MakeIndexedEnv(DatasetId::kTLoc, 700, seed);
    const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
    constexpr uint32_t kQueries = 24;
    const Dataset queries = SampleQueries(env.data, kQueries, seed + 100);

    serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
    serve::SessionOptions opts;
    opts.max_batch = 5;  // many flush cycles
    opts.max_wait_micros = 50;
    serve::QuerySession session(env.index.get(), &exec, opts);

    // The approximate leg's reference: one direct batched call at the
    // same candidate fraction (a query's descent depends only on its own
    // state, so batch composition cannot change its answer).
    auto want_approx = env.index->KnnQueryBatch(
        queries, 5, nullptr, KnnOptions{.candidate_fraction = 0.5});
    ASSERT_TRUE(want_approx.ok()) << want_approx.status().ToString();

    std::vector<std::future<Response>> unified_range, unified_knn,
        unified_approx;
    for (uint32_t q = 0; q < kQueries; ++q) {
      const uint64_t deadline = (q % 3 == 0) ? 400 : 0;
      unified_range.push_back(
          session.Submit(Request::Range(queries, q, r, deadline)));
      unified_knn.push_back(session.Submit(Request::Knn(queries, q, 5)));
      unified_approx.push_back(
          session.Submit(Request::KnnApprox(queries, q, 5, 0.5)));
    }

    for (uint32_t q = 0; q < kQueries; ++q) {
      Response range = unified_range[q].get();
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      auto want_range = env.index->RangeQuery(queries, q, r);
      ASSERT_TRUE(want_range.ok());
      EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

      Response knn = unified_knn[q].get();
      ASSERT_TRUE(knn.ok());
      auto want_knn = env.index->KnnQuery(queries, q, 5);
      ASSERT_TRUE(want_knn.ok());
      ExpectSameNeighbors(knn.knn().value(), want_knn.value());

      Response approx = unified_approx[q].get();
      ASSERT_TRUE(approx.ok());
      ExpectSameNeighbors(approx.knn().value(), want_approx.value()[q]);
    }
    session.Drain();
    const serve::SessionStats stats = session.stats();
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.rejected, 0u);
  }
}

// Every update family must flow through the unified plane: responses carry
// the typed alternatives and the index state matches a directly-updated
// twin.
TEST(ServeRequestTest, UpdateFamiliesRoundTripThroughUnifiedPlane) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 400, 31);
  Env twin = MakeIndexedEnv(DatasetId::kTLoc, 400, 31);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 8, 77);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::QuerySession session(env.index.get(), &exec, {});

  // Insert.
  Response inserted = session.Submit(Request::Insert(donors, 2)).get();
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  auto twin_inserted = twin.index->Insert(donors, 2);
  ASSERT_TRUE(twin_inserted.ok());
  EXPECT_EQ(inserted.inserted().value(), twin_inserted.value());

  // Remove.
  Response removed = session.Submit(Request::Remove(3)).get();
  EXPECT_TRUE(removed.ok()) << removed.status().ToString();
  ASSERT_TRUE(twin.index->Remove(3).ok());

  // BatchUpdate.
  std::vector<uint32_t> removal_ids = {5, 9};
  Response batched =
      session.Submit(Request::BatchUpdate(donors, removal_ids)).get();
  EXPECT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_TRUE(twin.index->BatchUpdate(donors, removal_ids).ok());

  // Rebuild.
  Response rebuilt = session.Submit(Request::Rebuild()).get();
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_TRUE(twin.index->Rebuild().ok());

  session.Drain();
  EXPECT_EQ(env.index->alive_size(), twin.index->alive_size());
  EXPECT_EQ(env.index->rebuild_count(), twin.index->rebuild_count());

  // Post-churn answers match the directly-updated twin byte-for-byte.
  const Dataset queries = SampleQueries(env.data, 8, 5);
  for (uint32_t q = 0; q < queries.size(); ++q) {
    Response got = session.Submit(Request::Knn(queries, q, 4)).get();
    ASSERT_TRUE(got.ok());
    auto want = twin.index->KnnQuery(queries, q, 4);
    ASSERT_TRUE(want.ok());
    ExpectSameNeighbors(got.knn().value(), want.value());
  }
}

// Rejections resolve in the request's own typed alternative, so typed
// consumers of Response never see a foreign alternative.
TEST(ServeRequestTest, RejectionsStayTyped) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 300, 41);
  const Dataset queries = SampleQueries(env.data, 4, 5);

  // A frontend with no shards: each family's alternative carries the
  // error.
  serve::ShardedFrontend empty(std::vector<std::vector<GtsIndex*>>{});
  ASSERT_EQ(empty.num_shards(), 0u);
  Response range = empty.Submit(Request::Range(queries, 0, 1.0f)).get();
  EXPECT_EQ(range.range().status().code(), StatusCode::kInvalidArgument);
  Response knn = empty.Submit(Request::Knn(queries, 0, 4)).get();
  EXPECT_EQ(knn.knn().status().code(), StatusCode::kInvalidArgument);
  Response insert = empty.Submit(Request::Insert(queries, 0)).get();
  EXPECT_EQ(insert.inserted().status().code(), StatusCode::kInvalidArgument);
  Response rebuild = empty.Submit(Request::Rebuild()).get();
  EXPECT_EQ(rebuild.update().code(), StatusCode::kInvalidArgument);

  // Out-of-range factory index: the factories never fail, the plane
  // rejects with kInvalidArgument.
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::QuerySession session(env.index.get(), &exec);
  Response oob = session.Submit(Request::Knn(queries, queries.size(), 4)).get();
  EXPECT_EQ(oob.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(oob.ok());

  // Bad candidate fraction.
  Response bad_fraction =
      session.Submit(Request::KnnApprox(queries, 0, 4, 0.0)).get();
  EXPECT_EQ(bad_fraction.status().code(), StatusCode::kInvalidArgument);

  // is_read() partitions the families the way admission does.
  EXPECT_TRUE(Request::Range(queries, 0, 1.0f).is_read());
  EXPECT_TRUE(Request::Knn(queries, 0, 4).is_read());
  EXPECT_TRUE(Request::KnnApprox(queries, 0, 4, 0.5).is_read());
  EXPECT_FALSE(Request::Insert(queries, 0).is_read());
  EXPECT_FALSE(Request::Remove(0).is_read());
  EXPECT_FALSE(Request::Rebuild().is_read());
}

// A NaN or negative range radius is rejected with kInvalidArgument before
// admission — by the batched core call, and by the session and the
// sharded frontend through their shared ValidRead — while a valid range
// read submitted beside it, in the same admission pass and so the same
// flush, still gets its exact answer. (The core check alone would not do:
// one bad radius in a coalesced batch fails every read of the flush.)
TEST(ServeRequestTest, BadRadiusRejectedBeforeAdmission) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 600, 51);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 3, 9);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto want = env.index->RangeQuery(queries, 1, r);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want.value().empty());

  for (const float bad : {nan, -1.0f}) {
    std::vector<float> radii(queries.size(), r);
    radii[2] = bad;
    EXPECT_EQ(env.index->RangeQueryBatch(queries, radii).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Global ids of the round-robin shards coincide with corpus ids, so the
  // frontend's answer equals `want`.
  const auto shards = RoundRobinShards(env);
  // shard_size 64: the session's flush runs its whole range group as ONE
  // batched call, so a bad radius let through would fail the valid read.
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 64});
  serve::QuerySession session(env.index.get(), &exec);
  serve::ShardedFrontend frontend({{shards[0].get()}, {shards[1].get()}});

  const auto group = [&] {
    std::vector<Request> requests;
    requests.push_back(Request::Range(queries, 0, nan));
    requests.push_back(Request::Range(queries, 1, r));
    requests.push_back(Request::Range(queries, 2, -1.0f));
    return requests;
  };
  std::vector<std::vector<std::future<Response>>> runs;
  runs.push_back(session.SubmitBatch(group()));
  runs.push_back(frontend.SubmitBatch(group()));
  for (auto& futures : runs) {
    EXPECT_EQ(futures[0].get().range().status().code(),
              StatusCode::kInvalidArgument);
    const serve::RangeResult valid = futures[1].get().range();
    ASSERT_TRUE(valid.ok()) << valid.status().ToString();
    EXPECT_EQ(valid.value(), want.value());
    EXPECT_EQ(futures[2].get().range().status().code(),
              StatusCode::kInvalidArgument);
  }
  // The single-request entry points take the same path.
  EXPECT_EQ(
      session.Submit(Request::Range(queries, 0, nan)).get().status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      frontend.Submit(Request::Range(queries, 0, nan)).get().status().code(),
      StatusCode::kInvalidArgument);

  session.Drain();
  const serve::SessionStats stats = session.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.submitted, 1u);
}

// The coordinate twin of BadRadiusRejectedBeforeAdmission: a float-vector
// query with a NaN or infinite coordinate would evaluate the whole index
// (no bound prunes against NaN) and answer with NaN distances. The batched
// core calls reject it with kInvalidArgument, and the session and the
// sharded frontend reject it before admission, so valid range and kNN
// reads coalesced into the same flush still get their exact answers.
TEST(ServeRequestTest, NonFiniteQueryRejectedBeforeAdmission) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 600, 52);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Query 1 is valid; 0, 2 and 3 each carry one non-finite coordinate.
  Dataset queries = Dataset::FloatVectors(2);
  queries.AppendVector(std::vector<float>{nan, 0.5f});
  queries.AppendFrom(SampleQueries(env.data, 1, 9), 0);
  queries.AppendVector(std::vector<float>{inf, 0.5f});
  queries.AppendVector(std::vector<float>{0.5f, -inf});
  auto want_range = env.index->RangeQuery(queries, 1, r);
  auto want_knn = env.index->KnnQuery(queries, 1, 4);
  ASSERT_TRUE(want_range.ok());
  ASSERT_TRUE(want_knn.ok());
  ASSERT_FALSE(want_range.value().empty());

  const std::vector<float> radii(queries.size(), r);
  EXPECT_EQ(env.index->RangeQueryBatch(queries, radii).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(env.index->KnnQueryBatch(queries, 4).status().code(),
            StatusCode::kInvalidArgument);
  for (const uint32_t bad : {0u, 2u, 3u}) {
    EXPECT_EQ(env.index->RangeQuery(queries, bad, r).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(env.index->KnnQuery(queries, bad, 4).status().code(),
              StatusCode::kInvalidArgument);
  }

  const auto shards = RoundRobinShards(env);
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 64});
  serve::QuerySession session(env.index.get(), &exec);
  serve::ShardedFrontend frontend({{shards[0].get()}, {shards[1].get()}});

  const auto group = [&] {
    std::vector<Request> requests;
    requests.push_back(Request::Range(queries, 0, r));
    requests.push_back(Request::Range(queries, 1, r));
    requests.push_back(Request::Knn(queries, 2, 4));
    requests.push_back(Request::Knn(queries, 1, 4));
    requests.push_back(Request::KnnApprox(queries, 3, 4, 0.5));
    return requests;
  };
  std::vector<std::vector<std::future<Response>>> runs;
  runs.push_back(session.SubmitBatch(group()));
  runs.push_back(frontend.SubmitBatch(group()));
  for (auto& futures : runs) {
    EXPECT_EQ(futures[0].get().range().status().code(),
              StatusCode::kInvalidArgument);
    const serve::RangeResult range = futures[1].get().range();
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(range.value(), want_range.value());
    EXPECT_EQ(futures[2].get().knn().status().code(),
              StatusCode::kInvalidArgument);
    const serve::KnnResult knn = futures[3].get().knn();
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ExpectSameNeighbors(knn.value(), want_knn.value());
    EXPECT_EQ(futures[4].get().knn().status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(
      session.Submit(Request::Knn(queries, 0, 4)).get().status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      frontend.Submit(Request::Knn(queries, 0, 4)).get().status().code(),
      StatusCode::kInvalidArgument);

  session.Drain();
  const serve::SessionStats stats = session.stats();
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.submitted, 2u);
}

// The write twin of NonFiniteQueryRejectedBeforeAdmission: a sharded
// BatchUpdate holding one object with a NaN coordinate is rejected before
// the scatter. Each shard's core call rejects its own sub-batch too, but a
// shard whose slice is all finite would apply it, so without the pre-check
// the batch would land on some shards only.
TEST(ServeRequestTest, NonFiniteInsertRejectedBeforeScatter) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 4000, 53);
  const auto shards = RoundRobinShards(env);
  serve::ShardedFrontend frontend({{shards[0].get()}, {shards[1].get()}});

  Dataset inserts = GenerateDataset(DatasetId::kTLoc, 8, 77);
  inserts.AppendVector(
      std::vector<float>{std::numeric_limits<float>::quiet_NaN(), 0.5f});
  const uint32_t alive0 = shards[0]->alive_size();
  const uint32_t alive1 = shards[1]->alive_size();
  const Response got =
      frontend.Submit(Request::BatchUpdate(inserts, {})).get();
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  frontend.Drain();
  EXPECT_EQ(shards[0]->alive_size(), alive0);
  EXPECT_EQ(shards[1]->alive_size(), alive1);
}

}  // namespace
}  // namespace gts
