// SessionRouter suite: routed results must be byte-identical to direct
// per-index batch calls; per-tenant queues and quotas must isolate a
// saturating tenant from its neighbors; EDF flush composition must let a
// tight-deadline query jump an earlier loose-deadline backlog (and kFifo
// must not); and the whole layer must be TSan-clean (this file runs under
// the clang-tsan CI job's Serve re-run).
#include <gtest/gtest.h>

#include "test_util.h"

#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/session_router.h"

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

// Routed per-tenant answers must be byte-identical to direct batch calls
// on the corresponding index — across tenants with different datasets,
// metrics, and deadline mixes (a deadline shapes scheduling only).
TEST(ServeRouterDifferential, RoutedResultsMatchPerIndexBatches) {
  Env geo = MakeIndexedEnv(DatasetId::kTLoc, 900, 21);
  Env words = MakeIndexedEnv(DatasetId::kWords, 400, 22);
  Env color = MakeIndexedEnv(DatasetId::kColor, 500, 23);
  Env* envs[] = {&geo, &words, &color};

  const float geo_r = CalibrateRadius(geo.data, *geo.metric, 0.01, 100, 7);
  const float radii_by_tenant[] = {geo_r, 2.0f,
                                   CalibrateRadius(color.data, *color.metric,
                                                   0.01, 100, 7)};

  serve::RouterOptions options;
  options.session.max_batch = 7;  // many flush cycles
  options.session.max_wait_micros = 50;
  options.executor_threads = 4;
  serve::SessionRouter router(
      {geo.index.get(), words.index.get(), color.index.get()}, options);

  constexpr uint32_t kQueries = 48;
  std::vector<Dataset> queries;
  std::vector<RangeResults> want_range;
  std::vector<KnnResults> want_knn;
  for (uint32_t t = 0; t < 3; ++t) {
    queries.push_back(SampleQueries(envs[t]->data, kQueries, 31 + t));
    const std::vector<float> radii(kQueries, radii_by_tenant[t]);
    auto range = envs[t]->index->RangeQueryBatch(queries[t], radii);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    want_range.push_back(std::move(range).value());
    auto knn = envs[t]->index->KnnQueryBatch(queries[t], 6);
    ASSERT_TRUE(knn.ok());
    want_knn.push_back(std::move(knn).value());
  }

  // Interleave tenants query-by-query; every third read gets a deadline.
  std::vector<std::vector<std::future<Response>>> range_futures(3),
      knn_futures(3);
  for (uint32_t q = 0; q < kQueries; ++q) {
    for (uint32_t t = 0; t < 3; ++t) {
      const uint64_t deadline = (q % 3 == 0) ? 500 : 0;
      Request range =
          Request::Range(queries[t], q, radii_by_tenant[t], deadline);
      range_futures[t].push_back(router.Submit(std::move(range).ForTenant(t)));
      knn_futures[t].push_back(
          router.Submit(Request::Knn(queries[t], q, 6).ForTenant(t)));
    }
  }
  for (uint32_t t = 0; t < 3; ++t) {
    for (uint32_t q = 0; q < kQueries; ++q) {
      const serve::RangeResult range = range_futures[t][q].get().range();
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      EXPECT_EQ(range.value(), want_range[t][q]) << "tenant " << t
                                                 << " query " << q;
      const serve::KnnResult knn = knn_futures[t][q].get().knn();
      ASSERT_TRUE(knn.ok());
      ASSERT_EQ(knn.value().size(), want_knn[t][q].size());
      for (size_t i = 0; i < knn.value().size(); ++i) {
        EXPECT_EQ(knn.value()[i].id, want_knn[t][q][i].id);
        // Exact float equality on purpose: routing and coalescing must
        // not change any query's computation.
        EXPECT_EQ(knn.value()[i].dist, want_knn[t][q][i].dist);
      }
    }
  }
  router.Drain();
  const serve::RouterStats stats = router.stats();
  ASSERT_EQ(stats.tenants.size(), 3u);
  EXPECT_EQ(stats.completed, uint64_t{3} * 2 * kQueries);
  EXPECT_EQ(stats.rejected, 0u);
  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(stats.tenants[t].completed, uint64_t{2} * kQueries);
    EXPECT_EQ(stats.tenants[t].alive_objects, envs[t]->index->alive_size());
    EXPECT_DOUBLE_EQ(stats.CompletionRatio(t), 1.0);
  }
}

TEST(ServeRouterTest, UnknownTenantAndInvalidSubmissionsFailFast) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 300, 47);
  const Dataset queries = SampleQueries(env.data, 4, 5);
  serve::SessionRouter router({env.index.get()});

  auto unknown =
      router.Submit(Request::Range(queries, 0, 1.0f).ForTenant(7));
  EXPECT_EQ(unknown.get().range().status().code(),
            StatusCode::kInvalidArgument);
  auto unknown_write = router.Submit(Request::Rebuild().ForTenant(7));
  EXPECT_EQ(unknown_write.get().update().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.session(7), nullptr);
  EXPECT_NE(router.session(0), nullptr);

  auto oob = router.Submit(Request::Knn(queries, queries.size(), 4));
  EXPECT_EQ(oob.get().knn().status().code(), StatusCode::kInvalidArgument);
}

// Quota isolation: tenant A saturating its inflight quota and queue must
// not cause a single rejection for tenant B on the same router, and A's
// excess must be rejected at the router (quota) or session (queue) level.
TEST(ServeRouterQuota, SaturatingTenantCannotRejectNeighbor) {
  Env a = MakeIndexedEnv(DatasetId::kTLoc, 1200, 51);
  Env b = MakeIndexedEnv(DatasetId::kTLoc, 1200, 52);
  const float ra = CalibrateRadius(a.data, *a.metric, 0.02, 100, 7);
  const float rb = CalibrateRadius(b.data, *b.metric, 0.02, 100, 7);
  const Dataset qa = SampleQueries(a.data, 64, 5);
  const Dataset qb = SampleQueries(b.data, 64, 6);

  serve::RouterOptions options;
  options.session.max_batch = 4;
  options.session.max_queue = 16;
  options.session.max_wait_micros = 0;
  options.session.admission = serve::AdmissionPolicy::kReject;
  options.executor_threads = 2;
  options.max_inflight_per_tenant = 8;
  serve::SessionRouter router({a.index.get(), b.index.get()}, options);

  std::atomic<uint64_t> b_failures{0};
  std::thread neighbor([&] {
    // Tenant B stays within quota by waiting out each read; nothing may
    // be rejected no matter what tenant A does meanwhile.
    for (int i = 0; i < 60; ++i) {
      auto f =
          router.Submit(Request::Range(qb, i % qb.size(), rb).ForTenant(1));
      if (!f.get().range().ok()) b_failures.fetch_add(1);
    }
  });

  constexpr int kAggressorSubmissions = 3000;
  uint64_t a_completed = 0, a_rejected = 0;
  std::vector<std::future<Response>> a_futures;
  a_futures.reserve(kAggressorSubmissions);
  for (int i = 0; i < kAggressorSubmissions; ++i) {
    a_futures.push_back(
        router.Submit(Request::Range(qa, i % qa.size(), ra).ForTenant(0)));
  }
  for (auto& f : a_futures) {
    const serve::RangeResult res = f.get().range();
    if (res.ok()) {
      ++a_completed;
    } else {
      EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
      ++a_rejected;
    }
  }
  neighbor.join();
  router.Drain();

  EXPECT_EQ(b_failures.load(), 0u) << "aggressor tenant rejected a neighbor";
  EXPECT_GT(a_rejected, 0u) << "aggressor never tripped quota/queue limits";
  EXPECT_GT(a_completed, 0u);

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.tenants[1].rejected, 0u);
  EXPECT_EQ(stats.tenants[1].quota_rejected, 0u);
  EXPECT_EQ(stats.tenants[1].completed, 60u);
  EXPECT_DOUBLE_EQ(stats.CompletionRatio(1), 1.0);
  EXPECT_EQ(stats.tenants[0].quota_rejected +
                stats.tenants[0].rejected,
            a_rejected);
  EXPECT_GT(stats.tenants[0].quota_rejected, 0u)
      << "inflight quota never fired; only the queue bound did";
}

// EDF composition: with a backlog pinned behind a rebuild, a tight-deadline
// query submitted LAST must be drawn into the first flush; under kFifo the
// same workload must flush in arrival order. Observed through the
// on_flush sequence-number hook (seq i = i-th accepted read).
TEST(ServeRouterEdf, TightDeadlineJumpsLooseBacklog) {
  for (const bool edf : {true, false}) {
    Env env = MakeIndexedEnv(DatasetId::kTLoc, 20000, 61);
    const float r = CalibrateRadius(env.data, *env.metric, 0.001, 100, 7);
    const Dataset queries = SampleQueries(env.data, 16, 5);

    std::mutex mu;
    std::vector<std::vector<uint64_t>> flush_seqs;
    serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
    serve::SessionOptions opts;
    opts.max_batch = 1;  // one query per flush: composition order observable
    opts.max_wait_micros = 0;
    opts.admission = serve::AdmissionPolicy::kBlock;
    // Queued writers always run before the next read flush, so the rebuild
    // below applies before any read regardless of dispatcher wakeup timing.
    opts.order = edf ? serve::FlushOrder::kEdf : serve::FlushOrder::kFifo;
    opts.on_flush = [&](std::span<const uint64_t> seqs) {
      std::lock_guard<std::mutex> lock(mu);
      flush_seqs.emplace_back(seqs.begin(), seqs.end());
    };
    serve::QuerySession session(env.index.get(), &exec, opts);

    // Pin the dispatcher in a rebuild, queue 8 loose-deadline reads, then
    // one tight-deadline read. All 9 are queued long before the rebuild
    // finishes (a 20k-object reconstruction vs. nine mutex pushes).
    auto rebuild = session.Submit(Request::Rebuild());
    std::vector<std::future<Response>> futures;
    for (uint32_t i = 0; i < 8; ++i) {
      futures.push_back(session.Submit(
          Request::Range(queries, i, r, /*deadline_micros=*/30'000'000)));
    }
    futures.push_back(session.Submit(
        Request::Range(queries, 8, r, /*deadline_micros=*/1)));
    EXPECT_TRUE(rebuild.get().update().ok());
    for (auto& f : futures) EXPECT_TRUE(f.get().range().ok());
    session.Drain();

    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(flush_seqs.size(), 9u);
    for (const auto& seqs : flush_seqs) ASSERT_EQ(seqs.size(), 1u);
    if (edf) {
      // The tight query (seq 8, submitted last) jumps the loose backlog.
      EXPECT_EQ(flush_seqs[0][0], 8u) << "EDF did not flush the most-urgent";
      // Its 1 µs deadline cannot be met from behind a rebuild.
      EXPECT_GE(session.stats().deadline_missed, 1u);
    } else {
      for (uint64_t i = 0; i < 9; ++i) {
        EXPECT_EQ(flush_seqs[i][0], i) << "kFifo must keep arrival order";
      }
    }
  }
}

// Anti-starvation: a deadline-free read ages via its implicit slack
// deadline (a fixed absolute instant), so an urgent read arriving after
// the slack has elapsed ranks BEHIND it — sustained urgent traffic
// cannot starve deadline-free submissions. Whether or not the rebuild
// still pins the dispatcher when the urgent read arrives, the aged
// deadline-free read must flush first.
TEST(ServeRouterEdf, AgedDeadlineFreeReadOutranksLaterUrgent) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 20000, 67);
  const float r = CalibrateRadius(env.data, *env.metric, 0.001, 100, 7);
  const Dataset queries = SampleQueries(env.data, 4, 5);

  std::mutex mu;
  std::vector<std::vector<uint64_t>> flush_seqs;
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::SessionOptions opts;
  opts.max_batch = 1;
  opts.max_wait_micros = 0;
  opts.admission = serve::AdmissionPolicy::kBlock;
  opts.no_deadline_slack_micros = 2000;
  opts.on_flush = [&](std::span<const uint64_t> seqs) {
    std::lock_guard<std::mutex> lock(mu);
    flush_seqs.emplace_back(seqs.begin(), seqs.end());
  };
  serve::QuerySession session(env.index.get(), &exec, opts);

  auto rebuild = session.Submit(Request::Rebuild());
  // seq 0, deadline-free.
  auto aged = session.Submit(Request::Range(queries, 0, r));
  std::this_thread::sleep_for(std::chrono::microseconds(3000));
  // seq 1, urgent.
  auto urgent =
      session.Submit(Request::Range(queries, 1, r, /*deadline_micros=*/1));
  EXPECT_TRUE(rebuild.get().update().ok());
  EXPECT_TRUE(aged.get().range().ok());
  EXPECT_TRUE(urgent.get().range().ok());
  session.Drain();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(flush_seqs.size(), 1u);
  EXPECT_EQ(flush_seqs[0][0], 0u)
      << "urgent read starved an aged deadline-free read";
}

// Router stats under concurrent mixed traffic stay coherent (TSan food),
// and post-churn answers still match the raw index.
TEST(ServeRouterTest, ConcurrentMixedTrafficKeepsInvariants) {
  Env a = MakeIndexedEnv(DatasetId::kTLoc, 800, 71);
  Env b = MakeIndexedEnv(DatasetId::kTLoc, 800, 72);
  const float r = CalibrateRadius(a.data, *a.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(a.data, 16, 5);

  serve::RouterOptions options;
  options.session.max_batch = 8;
  options.session.max_wait_micros = 100;
  options.session.admission = serve::AdmissionPolicy::kBlock;
  options.executor_threads = 4;
  serve::SessionRouter router({a.index.get(), b.index.get()}, options);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const uint32_t tenant = t % 2;
      for (int i = 0; i < 40; ++i) {
        if (t == 0 && i % 8 == 0) {
          Request insert = Request::Insert(a.data, static_cast<uint32_t>(i));
          auto ins = router.Submit(std::move(insert).ForTenant(tenant));
          if (!ins.get().inserted().ok()) failures.fetch_add(1);
          continue;
        }
        const uint64_t deadline = (i % 4 == 0) ? 2000 : 0;
        Request range =
            Request::Range(queries, (t + i) % queries.size(), r, deadline);
        auto f = router.Submit(std::move(range).ForTenant(tenant));
        if (!f.get().range().ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  router.Drain();
  EXPECT_EQ(failures.load(), 0u);

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.tenants[0].writer_ops, 5u);

  // Post-churn determinism per tenant: routed answer == raw index answer.
  for (uint32_t tenant = 0; tenant < 2; ++tenant) {
    GtsIndex* index = tenant == 0 ? a.index.get() : b.index.get();
    auto want = index->RangeQuery(queries, 3, r);
    ASSERT_TRUE(want.ok());
    Response got =
        router.Submit(Request::Range(queries, 3, r).ForTenant(tenant)).get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.range().value(), want.value());
  }
}

}  // namespace
}  // namespace gts
