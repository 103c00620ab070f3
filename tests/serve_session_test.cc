// Streaming QuerySession suite: futures must resolve with results
// byte-identical to the batch path across seeds; the bounded-queue reject
// policy must fire under overload; writers must apply promptly (writes
// first, never behind more than the one in-flight flush) while saturating
// reader threads stream queries; EDF flush composition must let a
// tight-deadline query jump an earlier loose-deadline backlog without
// starving deadline-free reads; and the whole layer must be TSan-clean
// (this file runs under the clang-tsan CI job's Serve re-run).
#include <gtest/gtest.h>

#include "test_util.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"

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

Env MakeIndexedEnv(DatasetId id, uint32_t n, uint64_t seed,
                   uint64_t cache_capacity_bytes = 5 * 1024) {
  Env env;
  env.data = GenerateDataset(id, n, seed);
  env.metric = MakeDatasetMetric(id);
  env.device = std::make_unique<gpu::Device>();
  std::vector<uint32_t> ids(env.data.size());
  std::iota(ids.begin(), ids.end(), 0u);
  GtsOptions options;
  options.cache_capacity_bytes = cache_capacity_bytes;
  auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                               env.device.get(), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  env.index = std::move(built).value();
  return env;
}

TEST(ServeSessionDifferential, FuturesMatchBatchPathAcrossSeeds) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    Env env = MakeIndexedEnv(DatasetId::kTLoc, 1200, seed);
    const float r = CalibrateRadius(env.data, *env.metric, 0.01, 100, 7);
    const Dataset queries = SampleQueries(env.data, 96, seed * 3 + 1);
    const std::vector<float> radii(queries.size(), r);

    auto want_range = env.index->RangeQueryBatch(queries, radii);
    ASSERT_TRUE(want_range.ok()) << want_range.status().ToString();
    auto want_knn = env.index->KnnQueryBatch(queries, 8);
    ASSERT_TRUE(want_knn.ok());
    auto want_approx = env.index->KnnQueryBatch(
        queries, 8, nullptr, KnnOptions{.candidate_fraction = 0.5});
    ASSERT_TRUE(want_approx.ok());

    serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{4, 0});
    // Tiny max_batch and zero wait exercise many flush cycles; a large
    // second config coalesces everything into one.
    for (const uint32_t max_batch : {5u, 256u}) {
      serve::SessionOptions opts;
      opts.max_batch = max_batch;
      opts.max_wait_micros = 50;
      serve::QuerySession session(env.index.get(), &exec, opts);

      std::vector<std::future<Response>> range_futures, knn_futures,
          approx_futures;
      for (uint32_t q = 0; q < queries.size(); ++q) {
        range_futures.push_back(session.Submit(Request::Range(queries, q, r)));
        knn_futures.push_back(session.Submit(Request::Knn(queries, q, 8)));
        approx_futures.push_back(
            session.Submit(Request::KnnApprox(queries, q, 8, 0.5)));
      }
      for (uint32_t q = 0; q < queries.size(); ++q) {
        const serve::RangeResult range = range_futures[q].get().range();
        ASSERT_TRUE(range.ok()) << range.status().ToString();
        EXPECT_EQ(range.value(), want_range.value()[q]) << "query " << q;

        const serve::KnnResult knn = knn_futures[q].get().knn();
        ASSERT_TRUE(knn.ok()) << knn.status().ToString();
        ASSERT_EQ(knn.value().size(), want_knn.value()[q].size());
        for (size_t i = 0; i < knn.value().size(); ++i) {
          EXPECT_EQ(knn.value()[i].id, want_knn.value()[q][i].id);
          // Exact float equality on purpose: coalescing must not change
          // any query's computation.
          EXPECT_EQ(knn.value()[i].dist, want_knn.value()[q][i].dist);
        }

        const serve::KnnResult approx = approx_futures[q].get().knn();
        ASSERT_TRUE(approx.ok());
        ASSERT_EQ(approx.value().size(), want_approx.value()[q].size());
        for (size_t i = 0; i < approx.value().size(); ++i) {
          EXPECT_EQ(approx.value()[i].id, want_approx.value()[q][i].id);
          EXPECT_EQ(approx.value()[i].dist, want_approx.value()[q][i].dist);
        }
      }
      session.Drain();  // let the dispatcher finish its bookkeeping
      const serve::SessionStats stats = session.stats();
      EXPECT_EQ(stats.submitted, uint64_t{3} * queries.size());
      EXPECT_EQ(stats.completed, uint64_t{3} * queries.size());
      EXPECT_EQ(stats.rejected, 0u);
      EXPECT_GE(stats.flushes, 1u);
    }
  }
}

TEST(ServeSessionTest, SingleQueryEntryPointsMatchBatch) {
  Env env = MakeIndexedEnv(DatasetId::kWords, 500, 9);
  const Dataset queries = SampleQueries(env.data, 12, 4);
  const std::vector<float> radii(queries.size(), 2.0f);

  auto want_range = env.index->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(want_range.ok());
  auto want_knn = env.index->KnnQueryBatch(queries, 5);
  ASSERT_TRUE(want_knn.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    auto one_range = env.index->RangeQuery(queries, q, 2.0f);
    ASSERT_TRUE(one_range.ok());
    EXPECT_EQ(one_range.value(), want_range.value()[q]);
    auto one_knn = env.index->KnnQuery(queries, q, 5);
    ASSERT_TRUE(one_knn.ok());
    ASSERT_EQ(one_knn.value().size(), want_knn.value()[q].size());
    for (size_t i = 0; i < one_knn.value().size(); ++i) {
      EXPECT_EQ(one_knn.value()[i].id, want_knn.value()[q][i].id);
    }
  }
  EXPECT_FALSE(env.index->RangeQuery(queries, queries.size(), 1.0f).ok());
  EXPECT_FALSE(env.index->KnnQuery(queries, queries.size(), 5).ok());
}

TEST(ServeSessionTest, SnapshotPinsStateAcrossBatches) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 600, 17);
  const Dataset queries = SampleQueries(env.data, 8, 3);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const std::vector<float> radii(queries.size(), r);

  auto before = env.index->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(before.ok());

  // Writers publish new versions without waiting for live snapshots, and a
  // held snapshot keeps answering from its pinned version — the update is
  // invisible through it, however many batches run and however many
  // versions publish meanwhile.
  {
    const GtsIndex::ReadSnapshot snapshot = env.index->SnapshotForRead();
    EXPECT_TRUE(env.index->Insert(env.data, 0).ok());  // completes at once
    EXPECT_EQ(env.index->cache_size(), 1u);  // new version is live...
    EXPECT_EQ(snapshot.cache_size(), 0u);    // ...but not through the pin
    for (int i = 0; i < 3; ++i) {
      auto pinned = snapshot.RangeQueryBatch(queries, radii);
      ASSERT_TRUE(pinned.ok());
      EXPECT_EQ(pinned.value(), before.value()) << "batch " << i;
    }
  }  // snapshot released: its version becomes reclaimable
  EXPECT_EQ(env.index->cache_size(), 1u);
}

TEST(ServeSessionAdmission, RejectPolicyFiresUnderOverload) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 1500, 41);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 64, 5);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::SessionOptions opts;
  opts.max_batch = 4;
  opts.max_queue = 8;
  opts.max_wait_micros = 0;
  opts.admission = serve::AdmissionPolicy::kReject;
  serve::QuerySession session(env.index.get(), &exec, opts);

  // Overload: submit far more than the queue bound as fast as possible.
  constexpr int kSubmissions = 2000;
  std::vector<std::future<Response>> futures;
  futures.reserve(kSubmissions);
  for (int i = 0; i < kSubmissions; ++i) {
    futures.push_back(
        session.Submit(Request::Range(queries, i % queries.size(), r)));
  }
  uint64_t rejected = 0, completed = 0;
  for (auto& f : futures) {
    const Response res = f.get();
    if (res.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "overload never tripped admission control";
  EXPECT_GT(completed, 0u) << "admission control rejected everything";
  session.Drain();
  const serve::SessionStats stats = session.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.submitted, completed);
}

TEST(ServeSessionAdmission, BlockPolicyCompletesEverything) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 800, 43);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 32, 5);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::SessionOptions opts;
  opts.max_batch = 4;
  opts.max_queue = 4;
  opts.max_wait_micros = 0;
  opts.admission = serve::AdmissionPolicy::kBlock;
  serve::QuerySession session(env.index.get(), &exec, opts);

  constexpr int kSubmissions = 300;
  std::vector<std::future<Response>> futures;
  futures.reserve(kSubmissions);
  for (int i = 0; i < kSubmissions; ++i) {
    futures.push_back(
        session.Submit(Request::Range(queries, i % queries.size(), r)));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  session.Drain();
  const serve::SessionStats stats = session.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, uint64_t{kSubmissions});
}

TEST(ServeSessionTest, InvalidSubmissionsFailFast) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 300, 47);
  const Dataset queries = SampleQueries(env.data, 4, 5);
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::QuerySession session(env.index.get(), &exec);

  auto oob = session.Submit(Request::Range(queries, queries.size(), 1.0f));
  EXPECT_EQ(oob.get().range().status().code(), StatusCode::kInvalidArgument);

  const Dataset wrong_kind = GenerateDataset(DatasetId::kWords, 4, 1);
  auto incompatible = session.Submit(Request::Knn(wrong_kind, 0, 4));
  EXPECT_EQ(incompatible.get().knn().status().code(),
            StatusCode::kInvalidArgument);

  auto bad_fraction = session.Submit(Request::KnnApprox(queries, 0, 4, 1.5));
  EXPECT_EQ(bad_fraction.get().knn().status().code(),
            StatusCode::kInvalidArgument);

  auto bad_insert = session.Submit(Request::Insert(queries, queries.size()));
  EXPECT_EQ(bad_insert.get().inserted().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeSessionWriters, WritersApplyInOrderAndResolve) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 400, 53);
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::QuerySession session(env.index.get(), &exec);

  const uint32_t before = env.index->alive_size();
  auto ins = session.Submit(Request::Insert(env.data, 1));
  const serve::InsertResult ins_res = ins.get().inserted();
  ASSERT_TRUE(ins_res.ok()) << ins_res.status().ToString();
  auto rem = session.Submit(Request::Remove(ins_res.value()));
  EXPECT_TRUE(rem.get().update().ok());
  auto rebuild = session.Submit(Request::Rebuild());
  EXPECT_TRUE(rebuild.get().update().ok());
  session.Drain();
  EXPECT_EQ(env.index->alive_size(), before);
  EXPECT_EQ(session.stats().writer_ops, 3u);

  // Batch update through the session.
  const Dataset inserts = SampleQueries(env.data, 3, 11);
  auto batch = session.Submit(Request::BatchUpdate(inserts, {}));
  EXPECT_TRUE(batch.get().update().ok());
  EXPECT_EQ(env.index->alive_size(), before + 3);
}

// The headline liveness property: while saturating reader threads keep the
// session permanently loaded, writers must not starve. With lock-free
// index reads there is no fairness gate to tune — the dispatcher simply
// applies every queued update before composing the next read flush, so a
// writer waits for at most the one flush in progress when it arrived.
TEST(ServeSessionWriters, WriterPromptBehindSaturatingReaders) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 1000, 61);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 32, 5);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{4, 0});
  serve::SessionOptions opts;
  opts.max_batch = 8;
  opts.max_queue = 64;
  opts.max_wait_micros = 0;
  opts.admission = serve::AdmissionPolicy::kBlock;
  serve::QuerySession session(env.index.get(), &exec, opts);

  constexpr int kReaders = 8;
  constexpr int kPerReader = 60;
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerReader; ++i) {
        auto f = session.Submit(Request::Range(
            queries, (t * kPerReader + i) % queries.size(), r));
        EXPECT_TRUE(f.get().range().ok());
      }
    });
  }
  go.store(true);
  // Let the readers saturate, then push writers through the stream.
  std::vector<std::future<Response>> inserts;
  for (int w = 0; w < 6; ++w) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inserts.push_back(session.Submit(Request::Insert(env.data, w)));
  }
  for (auto& f : inserts) {
    // Completes while readers still stream.
    ASSERT_TRUE(f.get().inserted().ok());
  }
  for (std::thread& th : readers) th.join();
  session.Drain();

  const serve::SessionStats stats = session.stats();
  EXPECT_EQ(stats.writer_ops, 6u);
  EXPECT_EQ(stats.completed, uint64_t{kReaders} * kPerReader);
  // Every insert published a fresh version; none were reclaimed out from
  // under a pinned reader (reclaimed never exceeds retired).
  EXPECT_GE(env.index->versions_retired(), 6u);
  EXPECT_LE(env.index->versions_reclaimed(), env.index->versions_retired());
}

TEST(ServeSessionTest, MixedStreamUnderChurnKeepsInvariants) {
  // Readers, writers and rebuilds all through one session, TSan food.
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 800, 71,
                           /*cache_capacity_bytes=*/512);
  const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(env.data, 16, 5);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{4, 0});
  serve::SessionOptions opts;
  opts.max_batch = 8;
  opts.max_wait_micros = 100;
  serve::QuerySession session(env.index.get(), &exec, opts);

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        if (t == 0 && i % 5 == 0) {
          auto ins =
              session.Submit(Request::Insert(env.data, i % env.data.size()));
          if (!ins.get().inserted().ok()) failures.fetch_add(1);
          continue;
        }
        auto knn =
            session.Submit(Request::Knn(queries, (t + i) % queries.size(), 8));
        const serve::KnnResult got = knn.get().knn();
        if (!got.ok() || got.value().size() != 8) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  session.Drain();
  EXPECT_EQ(failures.load(), 0u);

  // Post-churn determinism: quiesced session answers match the raw index.
  auto want = env.index->RangeQueryBatch(queries,
                                         std::vector<float>(queries.size(), r));
  ASSERT_TRUE(want.ok());
  auto f = session.Submit(Request::Range(queries, 3, r));
  const serve::RangeResult got = f.get().range();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), want.value()[3]);
}


// EDF composition: with a backlog pinned behind a rebuild, a tight-deadline
// query submitted LAST must be drawn into the first flush. Observed through
// the on_flush sequence-number hook (seq i = i-th accepted read).
TEST(ServeSessionEdf, TightDeadlineJumpsLooseBacklog) {
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
  // The tight query (seq 8, submitted last) jumps the loose backlog.
  EXPECT_EQ(flush_seqs[0][0], 8u) << "EDF did not flush the most-urgent";
  // Its 1 µs deadline cannot be met from behind a rebuild.
  EXPECT_GE(session.stats().deadline_missed, 1u);
}

// Anti-starvation: a deadline-free read ages via its implicit slack
// deadline (a fixed absolute instant), so an urgent read arriving after
// the slack has elapsed ranks BEHIND it — sustained urgent traffic
// cannot starve deadline-free submissions. Whether or not the rebuild
// still pins the dispatcher when the urgent read arrives, the aged
// deadline-free read must flush first.
TEST(ServeSessionEdf, AgedDeadlineFreeReadOutranksLaterUrgent) {
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

}  // namespace
}  // namespace gts
