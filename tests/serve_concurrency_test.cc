// Concurrent-serving stress suite (run under TSan in CI): N reader threads
// query a live GtsIndex while writer threads Insert/Remove/Rebuild, through
// both the raw thread-safe read path and the QueryExecutor. Readers assert
// linearizable no-lost-results invariants against a "stable" object prefix
// that the writers never touch: any query snapshot must contain every stable
// object the exact search is obliged to return.
#include <gtest/gtest.h>

#include "test_util.h"

#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/query_executor.h"

namespace gts {
namespace {

constexpr uint32_t kStable = 1000;  ///< ids [0, kStable) are never updated
constexpr uint32_t kQueryBatch = 8;
constexpr uint32_t kK = 8;

/// Thread-safe failure sink: worker threads record the first few violations
/// and the main thread reports them after join (keeps gtest assertions on
/// the main thread).
class FailureLog {
 public:
  void Add(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 10) messages_.push_back(msg);
    ++count_;
  }
  void ExpectEmpty() const {
    EXPECT_EQ(count_.load(), 0u);
    for (const std::string& m : messages_) ADD_FAILURE() << m;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
  std::atomic<uint64_t> count_{0};
};

struct StressEnv {
  Dataset stable = Dataset::Strings();  ///< private copy of the stable prefix
  Dataset churn = Dataset::Strings();   ///< objects the writers insert from
  Dataset queries = Dataset::Strings();
  std::unique_ptr<DistanceMetric> metric;   // shared with the index
  std::unique_ptr<DistanceMetric> verify;   // readers' private metric
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> index;
  std::vector<float> radii;
  /// Per query: stable ids within the radius / distances to all stable ids.
  std::vector<std::vector<uint32_t>> stable_in_range;
  std::vector<std::vector<float>> stable_dist;
};

StressEnv MakeStressEnv(uint64_t seed, uint64_t cache_capacity_bytes,
                        DatasetId dataset = DatasetId::kTLoc) {
  StressEnv env;
  env.stable = GenerateDataset(dataset, kStable, seed);
  env.churn = GenerateDataset(dataset, 256, seed + 1);
  env.metric = MakeDatasetMetric(dataset);
  env.verify = MakeDatasetMetric(dataset);
  env.device = std::make_unique<gpu::Device>();
  env.queries = SampleQueries(env.stable, kQueryBatch, seed + 2);

  std::vector<uint32_t> ids(env.stable.size());
  std::iota(ids.begin(), ids.end(), 0u);
  GtsOptions options;
  options.cache_capacity_bytes = cache_capacity_bytes;
  auto built = GtsIndex::Build(env.stable.Slice(ids), env.metric.get(),
                               env.device.get(), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  env.index = std::move(built).value();

  const float r = CalibrateRadius(env.stable, *env.verify, 0.02, 100, 7);
  env.radii.assign(kQueryBatch, r);
  env.stable_in_range.resize(kQueryBatch);
  env.stable_dist.resize(kQueryBatch);
  for (uint32_t q = 0; q < kQueryBatch; ++q) {
    env.stable_dist[q].resize(kStable);
    for (uint32_t id = 0; id < kStable; ++id) {
      const float d = env.verify->Distance(env.queries, q, env.stable, id);
      env.stable_dist[q][id] = d;
      if (d <= r) env.stable_in_range[q].push_back(id);
    }
  }
  return env;
}

/// No lost results: the exact range query must return every stable object
/// within the radius, sorted and duplicate-free.
void CheckRange(const StressEnv& env, const RangeResults& res,
                FailureLog* failures) {
  for (uint32_t q = 0; q < kQueryBatch; ++q) {
    const auto& ids = res[q];
    for (size_t i = 1; i < ids.size(); ++i) {
      if (ids[i - 1] >= ids[i]) {
        failures->Add("range result not sorted/unique at query " +
                      std::to_string(q));
        return;
      }
    }
    size_t pos = 0;
    for (const uint32_t want : env.stable_in_range[q]) {
      while (pos < ids.size() && ids[pos] < want) ++pos;
      if (pos == ids.size() || ids[pos] != want) {
        failures->Add("range query " + std::to_string(q) +
                      " lost stable object " + std::to_string(want));
        return;
      }
    }
  }
}

/// kNN invariants: k results, ascending, unique; every stable object
/// strictly closer than the returned k-th must be present (the writers only
/// ever *add* closer churn objects or remove churn, so a stable object
/// closer than the k-th is always a mandatory answer).
void CheckKnn(const StressEnv& env, const KnnResults& res,
              FailureLog* failures) {
  for (uint32_t q = 0; q < kQueryBatch; ++q) {
    const auto& nn = res[q];
    if (nn.size() != kK) {
      failures->Add("knn query " + std::to_string(q) + " returned " +
                    std::to_string(nn.size()) + " results");
      return;
    }
    for (size_t i = 1; i < nn.size(); ++i) {
      if (nn[i - 1].dist > nn[i].dist) {
        failures->Add("knn result not ascending at query " +
                      std::to_string(q));
        return;
      }
    }
    for (size_t i = 0; i < nn.size(); ++i) {
      for (size_t j = i + 1; j < nn.size(); ++j) {
        if (nn[i].id == nn[j].id) {
          failures->Add("knn duplicate id at query " + std::to_string(q));
          return;
        }
      }
    }
    const float kth = nn.back().dist;
    for (uint32_t id = 0; id < kStable; ++id) {
      if (env.stable_dist[q][id] >= kth) continue;
      bool found = false;
      for (const Neighbor& nb : nn) {
        if (nb.id == id) {
          found = true;
          break;
        }
      }
      if (!found) {
        failures->Add("knn query " + std::to_string(q) +
                      " lost stable object " + std::to_string(id));
        return;
      }
    }
  }
}

/// Writer loop: churn inserts (eventually overflowing the cache budget into
/// automatic rebuilds), removals of its own inserts, and explicit rebuilds.
void WriterLoop(StressEnv* env, int iters, uint64_t seed,
                FailureLog* failures) {
  std::vector<uint32_t> my_ids;
  uint64_t rng = seed;
  for (int i = 0; i < iters; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t pick = static_cast<uint32_t>((rng >> 33) %
                                                env->churn.size());
    auto inserted = env->index->Insert(env->churn, pick);
    if (!inserted.ok()) {
      failures->Add("Insert failed: " + inserted.status().ToString());
      return;
    }
    my_ids.push_back(inserted.value());
    if (my_ids.size() >= 8 && (i % 3) == 0) {
      const uint32_t victim = my_ids[(rng >> 17) % my_ids.size()];
      const Status removed = env->index->Remove(victim);
      // NotFound is fine (already removed); anything else is a bug.
      if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
        failures->Add("Remove failed: " + removed.ToString());
        return;
      }
    }
    if (i == iters / 2) {
      const Status s = env->index->Rebuild();
      if (!s.ok()) {
        failures->Add("Rebuild failed: " + s.ToString());
        return;
      }
    }
  }
}

void ReaderLoop(const StressEnv* env, int iters, FailureLog* failures) {
  for (int i = 0; i < iters; ++i) {
    auto range = env->index->RangeQueryBatch(env->queries, env->radii);
    if (!range.ok()) {
      failures->Add("RangeQueryBatch failed: " + range.status().ToString());
      return;
    }
    CheckRange(*env, range.value(), failures);

    auto knn = env->index->KnnQueryBatch(env->queries, kK);
    if (!knn.ok()) {
      failures->Add("KnnQueryBatch failed: " + knn.status().ToString());
      return;
    }
    CheckKnn(*env, knn.value(), failures);
  }
}

TEST(ServeConcurrencyStress, ReadersVsStreamingWriters) {
  // Small cache budget: the writer overflows it every ~16 inserts, so the
  // run exercises many full rebuilds racing against in-flight queries.
  StressEnv env = MakeStressEnv(101, /*cache_capacity_bytes=*/256);
  FailureLog failures;

  constexpr int kReaders = 4;
  constexpr int kReaderIters = 25;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back(ReaderLoop, &env, kReaderIters, &failures);
  }
  threads.emplace_back(WriterLoop, &env, /*iters=*/120, 999, &failures);
  for (std::thread& th : threads) th.join();
  failures.ExpectEmpty();

  // Post-mortem determinism: with the writers quiesced, the index must
  // still answer exactly (every stable object within range present).
  auto final_range = env.index->RangeQueryBatch(env.queries, env.radii);
  ASSERT_TRUE(final_range.ok());
  CheckRange(env, final_range.value(), &failures);
  failures.ExpectEmpty();
}

// The same on a string corpus: each insert appends a string in place to the
// dataset payload the readers' versions share, so its offsets and chars
// writes run beside the readers' edit-distance scans of older versions.
TEST(ServeConcurrencyStress, ReadersVsStreamingWritersWords) {
  StressEnv env = MakeStressEnv(111, /*cache_capacity_bytes=*/256,
                                DatasetId::kWords);
  FailureLog failures;

  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back(ReaderLoop, &env, /*iters=*/1, &failures);
  }
  threads.emplace_back(WriterLoop, &env, /*iters=*/120, 777, &failures);
  for (std::thread& th : threads) th.join();
  failures.ExpectEmpty();

  auto final_range = env.index->RangeQueryBatch(env.queries, env.radii);
  ASSERT_TRUE(final_range.ok());
  CheckRange(env, final_range.value(), &failures);
  failures.ExpectEmpty();
}

TEST(ServeConcurrencyStress, ExecutorVsStreamingWriters) {
  StressEnv env = MakeStressEnv(202, /*cache_capacity_bytes=*/512);
  FailureLog failures;
  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{4, 2});

  std::thread writer(WriterLoop, &env, /*iters=*/100, 555, &failures);
  std::thread raw_reader(ReaderLoop, &env, /*iters=*/10, &failures);
  for (int i = 0; i < 30; ++i) {
    auto range = exec.RangeQueryBatch(env.queries, env.radii);
    if (!range.ok()) {
      failures.Add("executor range failed: " + range.status().ToString());
      break;
    }
    CheckRange(env, range.value(), &failures);
    auto knn = exec.KnnQueryBatch(env.queries, kK);
    if (!knn.ok()) {
      failures.Add("executor knn failed: " + knn.status().ToString());
      break;
    }
    CheckKnn(env, knn.value(), &failures);
  }
  writer.join();
  raw_reader.join();
  failures.ExpectEmpty();
}

TEST(ServeConcurrencyStress, QueriesDuringRebuildStormAreExact) {
  // No churn at all: repeated rebuilds of the same content must never change
  // any answer, so concurrent queries must match the quiescent baseline
  // exactly, every time.
  StressEnv env = MakeStressEnv(303, /*cache_capacity_bytes=*/5 * 1024);
  FailureLog failures;

  auto baseline = env.index->RangeQueryBatch(env.queries, env.radii);
  ASSERT_TRUE(baseline.ok());

  std::atomic<bool> stop{false};
  std::thread rebuilder([&] {
    for (int i = 0; i < 12; ++i) {
      const Status s = env.index->Rebuild();
      if (!s.ok()) {
        failures.Add("Rebuild failed: " + s.ToString());
        break;
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = env.index->RangeQueryBatch(env.queries, env.radii);
        if (!res.ok()) {
          failures.Add("range during rebuild failed: " +
                       res.status().ToString());
          return;
        }
        if (res.value() != baseline.value()) {
          failures.Add("range result diverged during rebuild storm");
          return;
        }
      }
    });
  }
  rebuilder.join();
  for (std::thread& th : readers) th.join();
  failures.ExpectEmpty();
}

}  // namespace
}  // namespace gts
