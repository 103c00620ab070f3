// Concurrent-serving macro bench: wall-clock latency and modeled
// throughput of the QueryExecutor sharding a large batch over worker
// threads ∈ {1, 2, 4, 8}.
//
// Two numbers per (dataset, op, threads) cell:
//   - p50/p95 latency: real wall-clock per query, measured over repeated
//     executor batches on this host (actual threads, actual contention);
//   - queries/min: the simulated-clock parallel makespan. Each shard's sim
//     time is measured on a quiesced clock, then the shards are
//     list-scheduled onto T workers (greedy earliest-free, the pool's
//     order); throughput = batch / makespan. This keeps the series
//     host-independent — the repo's usual simulated-throughput convention —
//     while the latency columns stay honest wall time.
//
// `--streaming` additionally runs an open-loop streaming phase on T-Loc:
// single queries pour into a QuerySession (batch budget 64, bounded queue,
// reject admission) with an insert every 128 reads, against a pre-batched
// reference run of the same workload through the executor. Recorded as
// `gts-serve-stream/...` series: streamed/pre-batched modeled throughput,
// wall p50/p95 submit→complete latency, writer wall p50/p95, and the
// admission-reject rate (in percent, reported in the latency fields of
// the reject-rate series so that growth warns). The stream series depend
// on host scheduling — CI gates them warn-only, unlike the modeled
// classic series.
//
// `--sharded` runs the scatter/gather phase on T-Loc: the corpus
// partitioned round-robin over 1/2/4 GtsIndex shards behind one
// serve::ShardedFrontend (shared 8-thread pool), each shard on its OWN
// simulated device (Faiss-style multi-GPU composition), pouring kNN
// request waves through the batched SubmitBatch entry point. Recorded as
// `gts-serve-shard/...` series: modeled throughput (completed reads over
// the per-device makespan — the slowest shard clock's delta, which is
// host-independent: session flushes anchor their device sub-timelines,
// so host core counts cannot re-serialize the modeled wave), wall
// submit→merged-result latency per shard count, and the covering-ball
// planner's pruned fraction as its own series. The sharded answers are
// byte-identical to a single index (tests/serve_sharded_test.cc,
// tests/serve_pruned_scatter_test.cc), so this phase measures pure
// serving-plane cost/scaling. The modeled knn series is a HARD perf gate
// in CI: shards=4 must not fall below shards=1 (diff_bench.py
// --require-ratio); the latency columns stay warn-only.
//
// `--faults` runs the replica-failover phase on T-Loc: the corpus in 2
// shards x 2 replicas behind one ShardedFrontend, range-read waves poured
// through SubmitBatch three times — healthy (nothing armed), flaky
// (replica 1's flushes die with p=0.3 via the deterministic fault
// registry), dead (p=1.0: replica 1 of every shard is gone) — with the
// registry reseeded identically before each mode. The REPLICAS OF A SHARD
// SHARE that shard's one simulated device (replication is an availability
// model, not extra hardware), so every query still executes exactly once
// no matter which replica serves it and the three modeled makespans are
// directly comparable. Recorded as `gts-serve-replica/...` series, one per
// mode. CI hard-gates dead >= 0.5x healthy modeled throughput
// (diff_bench.py --require-ratio): losing a replica may cost failover
// work, but must never halve the serving plane. Latency columns stay
// warn-only — dead-mode wall time honestly includes the failover retries.
//
// `--mvcc` runs the rebuild-storm phase on T-Loc: reader threads repeat
// range batches directly against the index while a writer thread loops
// full Rebuilds back-to-back. Because reads pin an epoch-protected
// version and never take a lock, the reader tail must stay flat: the
// acceptance target is storm p95 within 2x of the no-writer baseline.
// Recorded as `gts-serve-mvcc/...` series: the no-writer baseline, the
// same load under the storm, and their p95 ratio (in the latency fields,
// so growth warns). Pure wall-clock and host-dependent; warn-only.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/fault.h"
#include "common/timer.h"
#include "core/gts.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/request.h"
#include "serve/sharded_frontend.h"

using namespace gts;

namespace {

constexpr uint32_t kServeBatch = 512;
// Fixed shard size, identical at every thread count: the threads series
// then isolates thread scaling (with auto sharding, higher thread counts
// would also pay for smaller per-kernel batches — a batching effect, not a
// concurrency one).
constexpr uint32_t kServeShard = 32;
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
constexpr int kWallReps = 5;

/// Greedy list-scheduling of the measured per-shard sim times onto
/// `threads` workers: each shard goes to the earliest-free worker, in shard
/// order — exactly how the executor's pool drains its queue. Returns the
/// makespan (seconds).
double ParallelMakespan(const std::vector<double>& shard_seconds,
                        uint32_t threads) {
  std::vector<double> worker_busy(threads, 0.0);
  for (const double s : shard_seconds) {
    auto it = std::min_element(worker_busy.begin(), worker_busy.end());
    *it += s;
  }
  return *std::max_element(worker_busy.begin(), worker_busy.end());
}

struct OpResult {
  double qpm_model = 0.0;   // modeled parallel throughput, queries/min
  double p50_ms = 0.0;      // wall-clock per-query latency
  double p95_ms = 0.0;
};

/// Open-loop completion collector shared by every streaming phase: futures
/// enqueue FIFO with their submission instant; a private thread gets each
/// in order and invokes `on_done(response, wall_ms)` with the
/// submit→after-get wall time (so a deferred gather's merge cost counts,
/// as it should — the caller pays it). The callback runs on the collector
/// thread; state it writes is safe to read after Finish() (which drains
/// the queue and joins, and runs at destruction if not called).
class ResponseCollector {
 public:
  using Clock = std::chrono::steady_clock;
  using Callback = std::function<void(serve::Response, double)>;

  explicit ResponseCollector(Callback on_done)
      : on_done_(std::move(on_done)), thread_([this] { Loop(); }) {}
  ~ResponseCollector() { Finish(); }
  ResponseCollector(const ResponseCollector&) = delete;
  ResponseCollector& operator=(const ResponseCollector&) = delete;

  /// `submitted` is captured by the caller BEFORE the Submit call, so the
  /// latency includes any admission blocking the submitter experienced.
  void Add(std::future<serve::Response> fut, Clock::time_point submitted) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(Pending{std::move(fut), submitted});
    }
    cv_.notify_one();
  }

  /// Drains everything enqueued, then joins the collector thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  struct Pending {
    std::future<serve::Response> fut;
    Clock::time_point submitted;
  };

  void Loop() {
    for (;;) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !pending_.empty() || done_; });
        if (pending_.empty()) return;
        item = std::move(pending_.front());
        pending_.pop_front();
      }
      serve::Response res = item.fut.get();
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - item.submitted)
                            .count();
      on_done_(std::move(res), ms);
    }
  }

  Callback on_done_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool done_ = false;
  std::thread thread_;
};

/// Per-shard sim times, measured serially on the device clock by running
/// `run_shard(begin, end)` for each shard of the fixed partition.
template <typename RunShard>
std::vector<double> MeasureShardSeconds(const bench::BenchEnv& env,
                                        uint32_t batch, RunShard run_shard) {
  std::vector<double> shard_seconds;
  for (uint32_t begin = 0; begin < batch; begin += kServeShard) {
    const uint32_t end = std::min(batch, begin + kServeShard);
    const double t0 = env.device->clock().ElapsedSeconds();
    run_shard(begin, end);
    shard_seconds.push_back(env.device->clock().ElapsedSeconds() - t0);
  }
  return shard_seconds;
}

/// Combines the fixed partition's measured shard times (makespan model at
/// `threads` workers) with wall-clock reps of `run_batch` through the pool.
template <typename RunBatch>
OpResult MeasureOp(const std::vector<double>& shard_seconds, uint32_t batch,
                   uint32_t threads, RunBatch run_batch) {
  OpResult r;
  r.qpm_model = bench::ThroughputPerMin(
      batch, ParallelMakespan(shard_seconds, threads));

  // Wall latency: repeated concurrent batches through the pool.
  std::vector<double> per_query_ms;
  for (int rep = 0; rep < kWallReps; ++rep) {
    WallTimer timer;
    run_batch();
    per_query_ms.push_back(timer.ElapsedSeconds() * 1e3 /
                           static_cast<double>(batch));
  }
  r.p50_ms = bench::PercentileOf(per_query_ms, 0.50);
  r.p95_ms = bench::PercentileOf(per_query_ms, 0.95);
  return r;
}

void Record(const bench::BenchEnv& env, std::string_view op, uint32_t threads,
            const OpResult& r) {
  bench::BenchResult res;
  res.name = bench::SeriesName("gts-serve", op,
                               "threads=" + std::to_string(threads));
  res.dataset = env.spec->name;
  res.samples = kWallReps;
  res.p50_latency_ms = r.p50_ms;
  res.p95_latency_ms = r.p95_ms;
  res.throughput_per_min = r.qpm_model;
  bench::GlobalReporter().AddResult(res);
}

// ---------------------------------------------------------------------------
// Streaming (open-loop) phase.
// ---------------------------------------------------------------------------

constexpr uint32_t kStreamThreads = 8;
constexpr uint32_t kStreamBudget = 64;  ///< the batcher's max_batch
constexpr uint32_t kStreamReads = 2048;
constexpr uint32_t kStreamInsertEvery = 128;  ///< one writer per this many reads

struct StreamResult {
  double qpm_model = 0.0;  ///< completed / sim-clock delta
  double p50_ms = 0.0;     ///< wall submit→complete, completed reads only
  double p95_ms = 0.0;
  double writer_p50_ms = 0.0;
  double writer_p95_ms = 0.0;
  double reject_pct = 0.0;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  std::vector<uint32_t> inserted_ids;
};

void RecordStream(const bench::BenchEnv& env, std::string_view op,
                  uint64_t samples, double p50_ms, double p95_ms,
                  double throughput) {
  bench::BenchResult res;
  res.name = bench::SeriesName(
      "gts-serve-stream", op,
      "b=" + std::to_string(kStreamBudget) + ",threads=" +
          std::to_string(kStreamThreads));
  res.dataset = env.spec->name;
  res.samples = samples;
  res.p50_latency_ms = p50_ms;
  res.p95_latency_ms = p95_ms;
  res.throughput_per_min = throughput;
  bench::GlobalReporter().AddResult(res);
}

/// Open-loop run: a submitter pours kStreamReads single range queries into
/// the session as fast as it can (no waiting on completions), with an
/// insert work item every kStreamInsertEvery reads; a collector consumes
/// the futures in FIFO order, timing submit→complete per query.
StreamResult StreamRange(const bench::BenchEnv& env, GtsIndex* index,
                         serve::QueryExecutor* exec, const Dataset& queries,
                         float radius) {
  serve::SessionOptions opts;
  opts.max_batch = kStreamBudget;
  opts.max_wait_micros = 200;
  opts.max_queue = 4 * kStreamBudget;
  opts.admission = serve::AdmissionPolicy::kReject;
  serve::QuerySession session(index, exec, opts);

  StreamResult r;
  std::vector<double> latencies_ms;
  ResponseCollector reads([&](serve::Response res, double ms) {
    if (res.ok()) {
      ++r.completed;
      latencies_ms.push_back(ms);
    }
  });
  // Writer futures get their own collector so writer latency is measured
  // at completion, not after the read collector has drained everything.
  std::vector<double> writer_ms;
  ResponseCollector writers([&](serve::Response res, double ms) {
    writer_ms.push_back(ms);
    if (res.ok()) r.inserted_ids.push_back(res.inserted().value());
  });

  const double sim0 = env.device->clock().ElapsedSeconds();
  for (uint32_t i = 0; i < kStreamReads; ++i) {
    const auto submitted = ResponseCollector::Clock::now();
    reads.Add(session.Submit(
                  serve::Request::Range(queries, i % queries.size(), radius)),
              submitted);
    if ((i + 1) % kStreamInsertEvery == 0) {
      writers.Add(session.Submit(serve::Request::Insert(
                      env.data, (i / kStreamInsertEvery) % env.data.size())),
                  ResponseCollector::Clock::now());
    }
  }
  reads.Finish();
  writers.Finish();
  session.Drain();
  const double sim_delta = env.device->clock().ElapsedSeconds() - sim0;

  r.attempted = kStreamReads;
  r.qpm_model = bench::ThroughputPerMin(
      static_cast<uint32_t>(r.completed), sim_delta);
  r.p50_ms = bench::PercentileOf(latencies_ms, 0.50);
  r.p95_ms = bench::PercentileOf(latencies_ms, 0.95);
  r.writer_p50_ms = bench::PercentileOf(writer_ms, 0.50);
  r.writer_p95_ms = bench::PercentileOf(writer_ms, 0.95);
  r.reject_pct = 100.0 *
                 static_cast<double>(r.attempted - r.completed) /
                 static_cast<double>(r.attempted);
  return r;
}

/// The equivalent pre-batched run: the same reads in pre-formed
/// kStreamBudget-query batches through the executor, the same inserts
/// interleaved every kStreamInsertEvery reads.
StreamResult PrebatchedRange(const bench::BenchEnv& env, GtsIndex* index,
                             serve::QueryExecutor* exec,
                             const Dataset& queries, float radius) {
  StreamResult r;
  std::vector<double> batch_ms;
  const double sim0 = env.device->clock().ElapsedSeconds();
  for (uint32_t begin = 0; begin < kStreamReads; begin += kStreamBudget) {
    std::vector<uint32_t> ids(kStreamBudget);
    for (uint32_t i = 0; i < kStreamBudget; ++i) {
      ids[i] = (begin + i) % queries.size();
    }
    const Dataset batch = queries.Slice(ids);
    const std::vector<float> radii(batch.size(), radius);
    WallTimer timer;
    auto res = exec->RangeQueryBatch(batch, radii);
    batch_ms.push_back(timer.ElapsedSeconds() * 1e3 /
                       static_cast<double>(kStreamBudget));
    if (res.ok()) r.completed += kStreamBudget;
    const uint32_t done = begin + kStreamBudget;
    if (done % kStreamInsertEvery == 0) {
      auto inserted = index->Insert(
          env.data, (done / kStreamInsertEvery - 1) % env.data.size());
      if (inserted.ok()) r.inserted_ids.push_back(inserted.value());
    }
  }
  const double sim_delta = env.device->clock().ElapsedSeconds() - sim0;
  r.attempted = kStreamReads;
  r.qpm_model = bench::ThroughputPerMin(
      static_cast<uint32_t>(r.completed), sim_delta);
  r.p50_ms = bench::PercentileOf(batch_ms, 0.50);
  r.p95_ms = bench::PercentileOf(batch_ms, 0.95);
  return r;
}

/// Removes a run's inserts and rebuilds, returning the index to its
/// pre-run content (deterministic builder: same alive set + seed → same
/// tree), so consecutive runs measure identical work.
void RemoveInserted(GtsIndex* index, const bench::BenchEnv& env,
                    const std::vector<uint32_t>& ids) {
  const Dataset no_inserts = env.data.Slice(std::vector<uint32_t>{});
  (void)index->BatchUpdate(no_inserts, ids);
}

void RunStreamingPhase(const bench::BenchEnv& env, GtsIndex* index) {
  const float r = bench::RadiusForStep(env, kDefaultRadiusStep);
  const Dataset queries = SampleQueries(env.data, kServeBatch, 5);
  serve::QueryExecutor exec(index,
                            serve::ExecutorOptions{kStreamThreads, 0});

  std::printf("%s streaming (open loop): %u reads, budget %u, insert every "
              "%u reads, %u threads\n",
              env.spec->name, kStreamReads, kStreamBudget, kStreamInsertEvery,
              kStreamThreads);

  StreamResult pre = PrebatchedRange(env, index, &exec, queries, r);
  RemoveInserted(index, env, pre.inserted_ids);
  StreamResult stream = StreamRange(env, index, &exec, queries, r);
  RemoveInserted(index, env, stream.inserted_ids);

  RecordStream(env, "mrq-prebatched", pre.completed, pre.p50_ms, pre.p95_ms,
               pre.qpm_model);
  RecordStream(env, "mrq", stream.completed, stream.p50_ms, stream.p95_ms,
               stream.qpm_model);
  RecordStream(env, "writer", stream.inserted_ids.size(),
               stream.writer_p50_ms, stream.writer_p95_ms,
               stream.inserted_ids.empty() ? 0.0
                                           : stream.qpm_model /
                                                 static_cast<double>(
                                                     kStreamInsertEvery));
  // The reject percentage rides in the latency fields, not
  // throughput_per_min: lower-is-better numbers in the throughput field
  // would invert diff_bench's regression direction (a falling reject rate
  // would read as a throughput drop). As "latency", growth warns — the
  // right direction for a rising reject rate.
  RecordStream(env, "reject-rate", stream.attempted, stream.reject_pct,
               stream.reject_pct, 0.0);

  const double ratio =
      pre.qpm_model > 0.0 ? stream.qpm_model / pre.qpm_model : 0.0;
  std::printf("  %-16s %14s q/min  p50 %8.4f ms  p95 %8.4f ms\n",
              "pre-batched", bench::FormatThroughput(pre.qpm_model).c_str(),
              pre.p50_ms, pre.p95_ms);
  std::printf("  %-16s %14s q/min  p50 %8.4f ms  p95 %8.4f ms\n",
              "streamed", bench::FormatThroughput(stream.qpm_model).c_str(),
              stream.p50_ms, stream.p95_ms);
  std::printf("  writer p50 %.4f ms, p95 %.4f ms over %zu inserts; "
              "admission-reject rate %.2f%% (%llu of %llu completed)\n",
              stream.writer_p50_ms, stream.writer_p95_ms,
              stream.inserted_ids.size(), stream.reject_pct,
              static_cast<unsigned long long>(stream.completed),
              static_cast<unsigned long long>(stream.attempted));
  std::printf("  streamed/pre-batched modeled throughput: %.3fx "
              "(coalescing target >= 0.9x)\n\n",
              ratio);
}

// ---------------------------------------------------------------------------
// Sharded (scatter/gather) phase.
// ---------------------------------------------------------------------------

constexpr uint32_t kShardCounts[] = {1, 2, 4};
constexpr uint32_t kShardReads = 512;
constexpr uint32_t kShardThreads = 8;  ///< shared pool across all shards
constexpr uint32_t kShardBatchBudget = 32;  ///< per-shard flush budget

/// One shard-count run: the T-Loc corpus round-robin-partitioned over N
/// shards behind a ShardedFrontend, kShardReads kNN requests poured
/// open-loop through Submit(Request), a collector timing each request
/// submit→merged-result (the deferred gather runs on the collector, so
/// the wall numbers include the merge — the honest end-to-end cost).
void RunShardedCount(const bench::BenchEnv& env, uint32_t num_shards,
                     const Dataset& queries) {
  GtsOptions options;
  options.node_capacity = env.Context().gts_node_capacity;
  options.seed = env.Context().seed;
  // One simulated device PER SHARD — the deployment the frontend models
  // (Faiss-style multi-GPU composition: each shard owns a card). The
  // modeled serving time is then the per-device makespan (max over the
  // shard clocks' deltas), computed below from the clocks directly, so
  // the series is host-independent: it does not matter how many real
  // cores interleave the shard sessions' flushes.
  gpu::DeviceOptions dev_options;
  dev_options.lanes = env.device->clock().config().lanes;
  dev_options.ns_per_op = env.device->clock().config().ns_per_op;
  dev_options.launch_overhead_ns =
      env.device->clock().config().launch_overhead_ns;
  dev_options.memory_bytes = env.device->memory_bytes();
  std::vector<std::unique_ptr<gpu::Device>> devices;
  std::vector<std::unique_ptr<GtsIndex>> owned;
  std::vector<std::vector<GtsIndex*>> shards;  // one replica per shard
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < env.data.size(); g += num_shards) {
      ids.push_back(g);
    }
    devices.push_back(std::make_unique<gpu::Device>(dev_options));
    auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                                 devices.back().get(), options);
    if (!built.ok()) {
      std::printf("sharded phase: shard %u build failed: %s\n", s,
                  built.status().ToString().c_str());
      return;
    }
    owned.push_back(std::move(built).value());
    shards.push_back({owned.back().get()});
  }

  serve::FrontendOptions frontend_options;
  frontend_options.session.max_batch = kShardBatchBudget;
  frontend_options.session.max_wait_micros = 200;
  frontend_options.session.max_queue = 4 * kShardBatchBudget;
  frontend_options.session.admission = serve::AdmissionPolicy::kBlock;
  frontend_options.executor_threads = kShardThreads;
  serve::ShardedFrontend frontend(shards, frontend_options);

  uint64_t completed = 0;
  std::vector<double> latencies_ms;
  // The collector's get() runs the deferred gather+merge, so the recorded
  // latency is the true submit→merged-result cost.
  ResponseCollector collector([&](serve::Response res, double ms) {
    if (res.ok()) {
      ++completed;
      latencies_ms.push_back(ms);
    }
  });

  std::vector<double> dev_sim0(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    dev_sim0[s] = devices[s]->clock().ElapsedSeconds();
  }
  // Reads pour in waves of the flush budget through SubmitBatch: the
  // frontend plans + prunes the whole wave in one pass and lands ONE
  // batched submission per shard (the batched-scatter path the serving
  // layer exists for), instead of a lock + wake per read per shard.
  uint32_t issued = 0;
  while (issued < kShardReads) {
    const uint32_t wave = std::min(kShardBatchBudget, kShardReads - issued);
    std::vector<serve::Request> group;
    group.reserve(wave);
    for (uint32_t i = 0; i < wave; ++i) {
      group.push_back(serve::Request::Knn(
          queries, (issued + i) % queries.size(), kDefaultK));
    }
    const auto submitted = ResponseCollector::Clock::now();
    auto futures = frontend.SubmitBatch(std::move(group));
    for (auto& fut : futures) collector.Add(std::move(fut), submitted);
    issued += wave;
  }
  collector.Finish();
  frontend.Drain();
  // Per-device makespan: the shard devices run in parallel, so the
  // modeled serving time of the run is the slowest shard clock's delta.
  double sim_delta = 0.0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    sim_delta = std::max(
        sim_delta, devices[s]->clock().ElapsedSeconds() - dev_sim0[s]);
  }

  const double qpm = bench::ThroughputPerMin(
      static_cast<uint32_t>(completed), sim_delta);
  const double p50 = bench::PercentileOf(latencies_ms, 0.50);
  const double p95 = bench::PercentileOf(latencies_ms, 0.95);

  bench::BenchResult res;
  res.name = bench::SeriesName(
      "gts-serve-shard", "knn",
      "shards=" + std::to_string(num_shards) + ",b=" +
          std::to_string(kShardBatchBudget) + ",threads=" +
          std::to_string(kShardThreads));
  res.dataset = env.spec->name;
  res.samples = completed;
  res.p50_latency_ms = p50;
  res.p95_latency_ms = p95;
  res.throughput_per_min = qpm;
  bench::GlobalReporter().AddResult(res);

  // The planner's pruned fraction, recorded as its own series so
  // tools/trend_bench.py can trend it (the trender reads
  // throughput_per_min, so the fraction is carried in that field —
  // dimensionless, 0..1).
  const serve::FrontendStats fstats = frontend.stats();
  const double fan = static_cast<double>(fstats.scatter_reads) * num_shards;
  const double pruned_fraction =
      fan > 0.0 ? static_cast<double>(fstats.pruned_shard_queries) / fan
                : 0.0;
  bench::BenchResult pruned;
  pruned.name = bench::SeriesName(
      "gts-serve-shard", "pruned-fraction",
      "shards=" + std::to_string(num_shards) + ",b=" +
          std::to_string(kShardBatchBudget) + ",threads=" +
          std::to_string(kShardThreads));
  pruned.dataset = env.spec->name;
  pruned.samples = fstats.scatter_reads;
  pruned.throughput_per_min = pruned_fraction;
  bench::GlobalReporter().AddResult(pruned);

  std::printf("  %7u %14s %12.4f %12.4f %8.3f   (%llu of %u completed)\n",
              num_shards, bench::FormatThroughput(qpm).c_str(), p50, p95,
              pruned_fraction,
              static_cast<unsigned long long>(completed), kShardReads);
}

void RunShardedPhase(const bench::BenchEnv& env) {
  const Dataset queries = SampleQueries(env.data, 64, 5);
  std::printf("%s sharded (pruned scatter/gather): %u kNN reads via "
              "SubmitBatch, round-robin partition, budget %u, %u "
              "shared threads\n",
              env.spec->name, kShardReads, kShardBatchBudget, kShardThreads);
  std::printf("  %7s %14s %12s %12s %8s\n", "shards", "knn q/min", "p50 ms",
              "p95 ms", "pruned");
  for (const uint32_t num_shards : kShardCounts) {
    RunShardedCount(env, num_shards, queries);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// MVCC (rebuild-storm) phase.
// ---------------------------------------------------------------------------

constexpr uint32_t kMvccReaders = 4;
constexpr int kMvccRepsPerReader = 30;
constexpr uint32_t kMvccBatch = 128;

struct MvccResult {
  double p50_ms = 0.0;   ///< wall per-batch reader latency
  double p95_ms = 0.0;
  double wall_qpm = 0.0;  ///< completed reads / total wall time
  uint64_t rebuilds = 0;  ///< writer loop iterations (storm runs only)
};

/// Readers hammer RangeQueryBatch; with `storm`, one writer thread loops
/// full Rebuilds for the whole run. Reader latency is per-batch wall time.
MvccResult RunMvccLoad(GtsIndex* index, const Dataset& queries,
                       const std::vector<float>& radii, bool storm) {
  MvccResult r;
  std::mutex mu;
  std::vector<double> rep_ms;
  std::atomic<bool> stop{false};
  std::thread writer;
  if (storm) {
    writer = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (index->Rebuild().ok()) ++r.rebuilds;
      }
    });
  }
  WallTimer total;
  std::vector<std::thread> readers;
  readers.reserve(kMvccReaders);
  for (uint32_t t = 0; t < kMvccReaders; ++t) {
    readers.emplace_back([&] {
      std::vector<double> local;
      local.reserve(kMvccRepsPerReader);
      for (int rep = 0; rep < kMvccRepsPerReader; ++rep) {
        WallTimer timer;
        (void)index->RangeQueryBatch(queries, radii);
        local.push_back(timer.ElapsedSeconds() * 1e3);
      }
      std::lock_guard<std::mutex> lock(mu);
      rep_ms.insert(rep_ms.end(), local.begin(), local.end());
    });
  }
  for (std::thread& th : readers) th.join();
  const double wall_seconds = total.ElapsedSeconds();
  stop.store(true);
  if (storm) writer.join();

  r.p50_ms = bench::PercentileOf(rep_ms, 0.50);
  r.p95_ms = bench::PercentileOf(rep_ms, 0.95);
  const double reads = static_cast<double>(kMvccReaders) *
                       kMvccRepsPerReader * kMvccBatch;
  r.wall_qpm = wall_seconds > 0.0 ? reads / wall_seconds * 60.0 : 0.0;
  return r;
}

void RecordMvcc(const bench::BenchEnv& env, std::string_view op,
                uint64_t samples, double p50_ms, double p95_ms,
                double throughput) {
  bench::BenchResult res;
  res.name = bench::SeriesName(
      "gts-serve-mvcc", op,
      "b=" + std::to_string(kMvccBatch) + ",readers=" +
          std::to_string(kMvccReaders));
  res.dataset = env.spec->name;
  res.samples = samples;
  res.p50_latency_ms = p50_ms;
  res.p95_latency_ms = p95_ms;
  res.throughput_per_min = throughput;
  bench::GlobalReporter().AddResult(res);
}

void RunMvccPhase(const bench::BenchEnv& env, GtsIndex* index) {
  const float r = bench::RadiusForStep(env, kDefaultRadiusStep);
  const Dataset queries = SampleQueries(env.data, kMvccBatch, 5);
  const std::vector<float> radii(queries.size(), r);
  constexpr uint64_t kSamples =
      static_cast<uint64_t>(kMvccReaders) * kMvccRepsPerReader;

  std::printf("%s mvcc (rebuild storm): %u readers x %d range batches of "
              "%u, writer looping full rebuilds\n",
              env.spec->name, kMvccReaders, kMvccRepsPerReader, kMvccBatch);

  const MvccResult base = RunMvccLoad(index, queries, radii, /*storm=*/false);
  const MvccResult storm = RunMvccLoad(index, queries, radii, /*storm=*/true);
  const double ratio = base.p95_ms > 0.0 ? storm.p95_ms / base.p95_ms : 0.0;

  RecordMvcc(env, "mrq-nowriter", kSamples, base.p50_ms, base.p95_ms,
             base.wall_qpm);
  RecordMvcc(env, "mrq-storm", kSamples, storm.p50_ms, storm.p95_ms,
             storm.wall_qpm);
  // The p95 ratio rides in the latency fields so that growth warns — the
  // same convention as the streaming phase's reject-rate series.
  RecordMvcc(env, "p95-ratio", kSamples, ratio, ratio, 0.0);

  std::printf("  %-12s p50 %8.4f ms  p95 %8.4f ms\n", "no writer",
              base.p50_ms, base.p95_ms);
  std::printf("  %-12s p50 %8.4f ms  p95 %8.4f ms  (%llu rebuilds "
              "published, %llu versions reclaimed)\n",
              "storm", storm.p50_ms, storm.p95_ms,
              static_cast<unsigned long long>(storm.rebuilds),
              static_cast<unsigned long long>(index->versions_reclaimed()));
  std::printf("  reader p95 under storm: %.3fx of no-writer baseline "
              "(target < 2x)\n\n",
              ratio);
}

// ---------------------------------------------------------------------------
// Replica-failover (fault-injection) phase.
// ---------------------------------------------------------------------------

constexpr uint32_t kReplicaShards = 2;
constexpr uint32_t kReplicaRf = 2;
constexpr uint32_t kReplicaReads = 512;
/// One fixed seed drives every fault decision of the phase, reseeded
/// before each mode: the flaky schedule is identical run to run, so the
/// series diff cleanly.
constexpr uint64_t kReplicaBenchSeed = 0x6774735f62656e63ull;  // "gts_benc"

struct ReplicaModeResult {
  double qpm_model = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  uint64_t completed = 0;
  serve::FrontendStats stats;
};

/// One mode's run: range-read waves through a fresh frontend over the
/// shared index layout. `flush_p` > 0 arms `session.flush` against
/// fault key 1 — every replica session is keyed with its replica rank, so
/// this kills (or flakes) replica 1 of EVERY shard while replica 0 stays
/// a healthy failover target.
ReplicaModeResult RunReplicaMode(
    const std::vector<std::vector<GtsIndex*>>& layout,
    const std::vector<gpu::Device*>& devices, const Dataset& queries,
    float radius, double flush_p) {
  fault::Registry& reg = fault::Registry::Instance();
  reg.ResetForTest(kReplicaBenchSeed);
  if (flush_p > 0.0) {
    fault::FaultSpec spec;
    spec.probability = flush_p;
    spec.has_match_key = true;
    spec.match_key = 1;
    reg.Arm("session.flush", spec);
  }

  serve::FrontendOptions options;
  options.session.max_batch = kShardBatchBudget;
  options.session.max_wait_micros = 200;
  options.session.max_queue = 4 * kShardBatchBudget;
  options.session.admission = serve::AdmissionPolicy::kBlock;
  options.executor_threads = kShardThreads;
  // Dead mode retires the replica for good: probing a permanently dead
  // replica during a steady-state measurement only re-pays the discovery
  // cost every probe_period-th pick. Flaky keeps the default probe cycle —
  // recoveries (and the re-failures they invite) are the mode's point.
  if (flush_p >= 1.0) options.probe_period = 0;
  serve::ShardedFrontend frontend(layout, options);

  ReplicaModeResult r;
  std::vector<double> latencies_ms;
  ResponseCollector collector([&](serve::Response res, double ms) {
    if (res.ok()) {
      ++r.completed;
      latencies_ms.push_back(ms);
    }
  });

  // Unmeasured warm-up: two waves take every replica group through enough
  // round-robin picks to discover a dead replica (pick 0 → replica 0,
  // pick 1 → replica 1), so the measured run is the STEADY state of the
  // mode — the availability claim the gate tests — and not the one-time
  // discovery transient. Failed-over warm-up reads retry as singles,
  // whose per-flush launch overhead would otherwise dominate the modeled
  // makespan. The failover/unhealthy counters still include the warm-up
  // (stats are cumulative), which is what the printed row reports.
  for (uint32_t w = 0; w < 2; ++w) {
    std::vector<serve::Request> warm;
    warm.reserve(kShardBatchBudget);
    for (uint32_t i = 0; i < kShardBatchBudget; ++i) {
      warm.push_back(serve::Request::Range(
          queries, (w * kShardBatchBudget + i) % queries.size(), radius));
    }
    for (auto& fut : frontend.SubmitBatch(std::move(warm))) (void)fut.get();
  }

  std::vector<double> dev_sim0(devices.size());
  for (size_t d = 0; d < devices.size(); ++d) {
    dev_sim0[d] = devices[d]->clock().ElapsedSeconds();
  }
  uint32_t issued = 0;
  while (issued < kReplicaReads) {
    const uint32_t wave = std::min(kShardBatchBudget, kReplicaReads - issued);
    std::vector<serve::Request> group;
    group.reserve(wave);
    for (uint32_t i = 0; i < wave; ++i) {
      group.push_back(serve::Request::Range(
          queries, (issued + i) % queries.size(), radius));
    }
    const auto submitted = ResponseCollector::Clock::now();
    auto futures = frontend.SubmitBatch(std::move(group));
    for (auto& fut : futures) collector.Add(std::move(fut), submitted);
    issued += wave;
  }
  collector.Finish();
  frontend.Drain();
  reg.ResetForTest(kReplicaBenchSeed);  // disarm before the next mode

  // Per-device makespan, exactly as the sharded phase: the shard devices
  // run in parallel, replicas of a shard SHARE its device, so the modeled
  // time is the slowest shard clock's delta and each query is paid for
  // exactly once whichever replica served it.
  double sim_delta = 0.0;
  for (size_t d = 0; d < devices.size(); ++d) {
    sim_delta = std::max(sim_delta,
                         devices[d]->clock().ElapsedSeconds() - dev_sim0[d]);
  }
  r.qpm_model = bench::ThroughputPerMin(
      static_cast<uint32_t>(r.completed), sim_delta);
  r.p50_ms = bench::PercentileOf(latencies_ms, 0.50);
  r.p95_ms = bench::PercentileOf(latencies_ms, 0.95);
  r.stats = frontend.stats();
  return r;
}

void RunReplicaFaultsPhase(const bench::BenchEnv& env) {
  GtsOptions options;
  options.node_capacity = env.Context().gts_node_capacity;
  options.seed = env.Context().seed;
  gpu::DeviceOptions dev_options;
  dev_options.lanes = env.device->clock().config().lanes;
  dev_options.ns_per_op = env.device->clock().config().ns_per_op;
  dev_options.launch_overhead_ns =
      env.device->clock().config().launch_overhead_ns;
  dev_options.memory_bytes = env.device->memory_bytes();

  // One device per SHARD; every replica of a shard is built from the same
  // round-robin slice onto that shared device (identical replicas — the
  // byte-identity contract tests/serve_replica_test.cc proves).
  std::vector<std::unique_ptr<gpu::Device>> owned_devices;
  std::vector<gpu::Device*> devices;
  std::vector<std::unique_ptr<GtsIndex>> owned;
  std::vector<std::vector<GtsIndex*>> layout(kReplicaShards);
  for (uint32_t s = 0; s < kReplicaShards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < env.data.size(); g += kReplicaShards) {
      ids.push_back(g);
    }
    owned_devices.push_back(std::make_unique<gpu::Device>(dev_options));
    devices.push_back(owned_devices.back().get());
    for (uint32_t rep = 0; rep < kReplicaRf; ++rep) {
      auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                                   devices.back(), options);
      if (!built.ok()) {
        std::printf("faults phase: shard %u replica %u build failed: %s\n",
                    s, rep, built.status().ToString().c_str());
        return;
      }
      owned.push_back(std::move(built).value());
      layout[s].push_back(owned.back().get());
    }
  }

  const float radius = bench::RadiusForStep(env, kDefaultRadiusStep);
  const Dataset queries = SampleQueries(env.data, 64, 5);
  const std::string config =
      "shards=" + std::to_string(kReplicaShards) + ",rf=" +
      std::to_string(kReplicaRf) + ",b=" + std::to_string(kShardBatchBudget) +
      ",threads=" + std::to_string(kShardThreads);

  std::printf("%s replica failover (fault injection): %u range reads via "
              "SubmitBatch, %u shards x %u replicas sharing per-shard "
              "devices, budget %u, %u shared threads, fault seed 0x%llx\n",
              env.spec->name, kReplicaReads, kReplicaShards, kReplicaRf,
              kShardBatchBudget, kShardThreads,
              static_cast<unsigned long long>(kReplicaBenchSeed));
  std::printf("  %8s %14s %12s %12s %10s %8s %9s\n", "mode", "mrq q/min",
              "p50 ms", "p95 ms", "failovers", "retries", "unhealthy");

  struct Mode {
    const char* name;
    double flush_p;
  };
  ReplicaModeResult healthy, dead;
  for (const Mode mode : {Mode{"healthy", 0.0}, Mode{"flaky", 0.30},
                          Mode{"dead", 1.0}}) {
    const ReplicaModeResult run =
        RunReplicaMode(layout, devices, queries, radius, mode.flush_p);

    bench::BenchResult res;
    res.name = bench::SeriesName("gts-serve-replica", "mrq",
                                 config + ",mode=" + mode.name);
    res.dataset = env.spec->name;
    res.samples = run.completed;
    res.p50_latency_ms = run.p50_ms;
    res.p95_latency_ms = run.p95_ms;
    res.throughput_per_min = run.qpm_model;
    bench::GlobalReporter().AddResult(res);

    std::printf("  %8s %14s %12.4f %12.4f %10llu %8llu %9llu   "
                "(%llu of %u completed, %llu probes, %llu recoveries, "
                "%llu degraded)\n",
                mode.name, bench::FormatThroughput(run.qpm_model).c_str(),
                run.p50_ms, run.p95_ms,
                static_cast<unsigned long long>(run.stats.failovers),
                static_cast<unsigned long long>(run.stats.read_retries),
                static_cast<unsigned long long>(
                    run.stats.unhealthy_transitions),
                static_cast<unsigned long long>(run.completed), kReplicaReads,
                static_cast<unsigned long long>(run.stats.health_probes),
                static_cast<unsigned long long>(run.stats.replica_recoveries),
                static_cast<unsigned long long>(run.stats.degraded_reads));
    if (std::strcmp(mode.name, "healthy") == 0) healthy = run;
    if (std::strcmp(mode.name, "dead") == 0) dead = run;
  }
  fault::Registry::Instance().ResetForTest(0);

  const double ratio = healthy.qpm_model > 0.0
                           ? dead.qpm_model / healthy.qpm_model
                           : 0.0;
  std::printf("  dead/healthy modeled throughput: %.3fx (CI hard gate "
              ">= 0.5x; every read must still complete)\n\n",
              ratio);
}

}  // namespace

int main(int argc, char** argv) {
  bool streaming = false;
  bool sharded = false;
  bool mvcc = false;
  bool faults = false;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--streaming") == 0 ||
        std::strcmp(argv[i], "--sharded") == 0 ||
        std::strcmp(argv[i], "--mvcc") == 0 ||
        std::strcmp(argv[i], "--faults") == 0) {
      if (std::strcmp(argv[i], "--streaming") == 0) {
        streaming = true;
      } else if (std::strcmp(argv[i], "--sharded") == 0) {
        sharded = true;
      } else if (std::strcmp(argv[i], "--faults") == 0) {
        faults = true;
      } else {
        mvcc = true;
      }
      for (int j = i; j < argc - 1; ++j) argv[j] = argv[j + 1];
      argv[--argc] = nullptr;
    } else {
      ++i;
    }
  }
  bench::JsonOutput json_out(&argc, argv, "serve_throughput");
  std::printf("Serve throughput: QueryExecutor sharding a %u-query batch "
              "over worker threads\n(queries/min = modeled parallel "
              "makespan on the sim clock; latency = wall clock)\n",
              kServeBatch);
  bench::PrintRule('=');

  for (const DatasetId id : {DatasetId::kTLoc, DatasetId::kColor}) {
    bench::BenchEnv env = bench::MakeEnv(id);
    const float r = bench::RadiusForStep(env, kDefaultRadiusStep);

    // Build the index the way the GTS adapter does (tree-height-preserving
    // node capacity), over a copy of the environment's dataset.
    GtsOptions options;
    options.node_capacity = env.Context().gts_node_capacity;
    options.seed = env.Context().seed;
    std::vector<uint32_t> ids(env.data.size());
    std::iota(ids.begin(), ids.end(), 0u);
    auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                                 env.device.get(), options);
    if (!built.ok()) {
      std::printf("%s: build failed: %s\n", env.spec->name,
                  built.status().ToString().c_str());
      continue;
    }
    const std::unique_ptr<GtsIndex>& index = built.value();

    const Dataset queries = SampleQueries(env.data, kServeBatch, 5);
    const std::vector<float> radii(queries.size(), r);

    std::printf("%s (n=%u, r=%.4g, k=%d)\n", env.spec->name, env.data.size(),
                r, kDefaultK);
    std::printf("  %7s %14s %14s %12s %12s\n", "threads", "mrq q/min",
                "knn q/min", "mrq p50 ms", "knn p50 ms");

    const std::vector<double> mrq_shards = MeasureShardSeconds(
        env, kServeBatch, [&](uint32_t begin, uint32_t end) {
          std::vector<uint32_t> shard_ids(end - begin);
          std::iota(shard_ids.begin(), shard_ids.end(), begin);
          (void)index->RangeQueryBatch(
              queries.Slice(shard_ids),
              std::span<const float>(radii).subspan(begin, end - begin));
        });
    const std::vector<double> knn_shards = MeasureShardSeconds(
        env, kServeBatch, [&](uint32_t begin, uint32_t end) {
          std::vector<uint32_t> shard_ids(end - begin);
          std::iota(shard_ids.begin(), shard_ids.end(), begin);
          (void)index->KnnQueryBatch(queries.Slice(shard_ids), kDefaultK);
        });

    double mrq_qpm_1 = 0.0, mrq_qpm_8 = 0.0;
    for (const uint32_t threads : kThreadCounts) {
      serve::QueryExecutor exec(
          index.get(), serve::ExecutorOptions{threads, kServeShard});
      const OpResult mrq =
          MeasureOp(mrq_shards, kServeBatch, threads,
                    [&] { (void)exec.RangeQueryBatch(queries, radii); });
      const OpResult knn =
          MeasureOp(knn_shards, kServeBatch, threads,
                    [&] { (void)exec.KnnQueryBatch(queries, kDefaultK); });

      Record(env, "mrq", threads, mrq);
      Record(env, "knn", threads, knn);
      if (threads == 1) mrq_qpm_1 = mrq.qpm_model;
      if (threads == 8) mrq_qpm_8 = mrq.qpm_model;

      std::printf("  %7u %14s %14s %12.4f %12.4f\n", threads,
                  bench::FormatThroughput(mrq.qpm_model).c_str(),
                  bench::FormatThroughput(knn.qpm_model).c_str(), mrq.p50_ms,
                  knn.p50_ms);
    }
    std::printf("  8-thread MRQ speedup over 1 thread: %.2fx\n\n",
                mrq_qpm_1 > 0.0 ? mrq_qpm_8 / mrq_qpm_1 : 0.0);

    if (streaming && id == DatasetId::kTLoc) {
      RunStreamingPhase(env, index.get());
    }
    if (sharded && id == DatasetId::kTLoc) {
      RunShardedPhase(env);
    }
    if (mvcc && id == DatasetId::kTLoc) {
      RunMvccPhase(env, index.get());
    }
    if (faults && id == DatasetId::kTLoc) {
      RunReplicaFaultsPhase(env);
    }
  }
  bench::PrintRule('=');
  std::printf("Shape checks: modeled throughput scales near-linearly in "
              "threads (balanced shards),\nwall latency improves with "
              "threads only when the host has spare cores.\n");
  return 0;
}
