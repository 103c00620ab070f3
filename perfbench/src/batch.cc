// tloc-batch and words-batch: one caller issues range and kNN batches
// straight into GtsIndex in a closed loop over a fixed, seeded query pool,
// then replays a streaming write stream as direct Insert/Remove calls.
#include <algorithm>
#include <cstdio>

#include "data/workload.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using gts::Dataset;
using gts::GtsIndex;

namespace {
// Tail latency over per-query samples: every query's answer is in hand when
// its batch returns, so each batch contributes `batch` samples of its time.
double QueryTail(std::span<const double> batch_ms, uint32_t batch) {
  std::vector<double> samples;
  samples.reserve(batch_ms.size() * batch);
  for (const double ms : batch_ms) samples.insert(samples.end(), batch, ms);
  return Percentile(std::move(samples), 0.99);
}
}  // namespace

RunResult RunBatchWorkload(const RunOptions& opt, Tracer* tracer) {
  const WorkloadSpec& spec = *opt.spec;
  RunResult out;

  // --- Inputs: the corpus is fixed by the workload; the query pool and the
  // write stream come from --seed.
  const Corpus corpus = MakeCorpus(spec, (spec.writes + 1) / 2);
  const Dataset queries = gts::SampleQueries(
      corpus.data, spec.pool_batches * spec.batch, StreamSeed(opt.seed, 1));
  const std::vector<Dataset> batches = SplitPool(queries, spec.batch);
  const std::vector<WriteOp> writes =
      MakeWriteStream(spec.writes, corpus.fresh.size(), corpus.data.size(),
                      StreamSeed(opt.seed, 2));
  Fingerprint fp;
  fp.Objects(corpus.data);
  fp.Objects(corpus.fresh);
  fp.Objects(queries);
  fp.Pod(corpus.radius);
  for (const WriteOp& op : writes) {
    fp.Pod(op.insert);
    fp.Pod(op.fresh);
    fp.Pod(op.remove_id);
  }
  out.inputs_fingerprint = fp.value();

  // --- Set-up: several identical, timed constructions; the last is kept.
  IndexEnv env = MakeIndexEnv(spec.dataset, spec.n);
  std::unique_ptr<GtsIndex> index;
  std::vector<double> build_s;
  for (uint32_t rep = 0; rep < spec.setup_reps; ++rep) {
    index.reset();
    Dataset copy = corpus.data;
    const auto t0 = SteadyClock::now();
    auto built = [&] {
      ScopedSpan s(tracer, "core.Build", rep);
      return GtsIndex::Build(std::move(copy), env.metric.get(),
                             env.device.get(), IndexOptions(spec));
    }();
    build_s.push_back(SecondsSince(t0));
    ++out.attempted;
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      ++out.failed;
      return out;
    }
    index = std::move(built).value();
  }

  // --- Untimed warm-up (the first batches of the pool fault in the tables
  // and caches), then whole passes over the pool.
  {
    QueryTally r, k;
    DirectPass(*index,
               std::span(batches).first(std::min<size_t>(2, batches.size())),
               corpus.radius, spec.k, nullptr, &r, &k, nullptr);
  }
  const uint32_t passes = std::max<uint32_t>(
      1, static_cast<uint32_t>(opt.seconds * spec.passes_per_second + 0.5));
  KeptAnswers keep;
  keep.pool_index = SampleIndices(queries.size(), spec.check_queries,
                                  StreamSeed(opt.seed, 3));
  keep.range.resize(keep.pool_index.size());
  keep.knn.resize(keep.pool_index.size());
  QueryTally range, knn;
  SnapshotCounters(tracer, "loop.begin", "index", *index, *env.metric,
                   *env.device);
  env.device->ResetPeak();
  const auto loop0 = SteadyClock::now();
  {
    ScopedSpan root(tracer, "bench.loop");
    for (uint32_t p = 0; p < passes; ++p) {
      DirectPass(*index, batches, corpus.radius, spec.k, tracer, &range, &knn,
                 p + 1 == passes ? &keep : nullptr);
    }
  }
  if (tracer != nullptr) tracer->Measured("bench.loop", SecondsSince(loop0));
  SnapshotCounters(tracer, "loop.end", "index", *index, *env.metric,
                   *env.device);
  out.attempted += range.queries + knn.queries;
  out.failed += range.failed + knn.failed;

  // --- Answer check of the last pass against brute force.
  {
    std::vector<uint32_t> ids(corpus.data.size());
    for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    Reference ref(spec.dataset, &corpus.data, std::move(ids));
    out.mismatches += CheckAnswers(&ref, queries, &keep, corpus.radius, spec.k,
                                   opt.corrupt_answer);
  }

  // --- Streaming writes as direct calls, then a check over the alive set.
  const double peak_mb =
      static_cast<double>(env.device->peak_allocated_bytes()) / (1 << 20);
  SnapshotCounters(tracer, "writes.begin", "index", *index, *env.metric,
                   *env.device);
  WriteTally wt;
  {
    ScopedSpan root(tracer, "bench.writes");
    wt = ReplayWrites(index.get(), corpus.fresh, writes, tracer);
  }
  if (tracer != nullptr) tracer->Measured("bench.writes", wt.wall_s);
  SnapshotCounters(tracer, "writes.end", "index", *index, *env.metric,
                   *env.device);
  out.attempted += wt.attempted;
  out.failed += wt.failed;
  {
    std::vector<uint32_t> removed;
    std::vector<Inserted> inserted;
    size_t next_id = 0;
    for (const WriteOp& op : writes) {
      if (!op.insert) {
        removed.push_back(op.remove_id);
      } else if (next_id < wt.inserted_ids.size()) {
        inserted.push_back({wt.inserted_ids[next_id++], op.fresh});
      }
    }
    const AliveSet alive = BuildAlive(corpus, removed, inserted);
    Reference ref(spec.dataset, &alive.objects, alive.ids);
    KeptAnswers after;
    after.pool_index = SampleIndices(queries.size(), spec.check_queries / 2,
                                     StreamSeed(opt.seed, 4));
    const Dataset checked = queries.Slice(after.pool_index);
    const std::vector<float> radii(checked.size(), corpus.radius);
    auto r = index->RangeQueryBatch(checked, radii);
    auto k = index->KnnQueryBatch(checked, spec.k);
    if (r.ok() && k.ok()) {
      after.range = std::move(r).value();
      after.knn = std::move(k).value();
    } else {
      after.range.resize(checked.size());
      after.knn.resize(checked.size());
    }
    out.attempted += 2 * checked.size();
    out.mismatches +=
        CheckAnswers(&ref, queries, &after, corpus.radius, spec.k, false);
  }
  out.failed += out.mismatches;

  // --- End-to-end metrics. A write is one streaming-update cycle as in the
  // paper's update experiments: remove a live object, insert a fresh one.
  std::vector<double> write_ms;
  for (size_t j = 0; j < std::min(wt.insert_ms.size(), wt.remove_ms.size());
       ++j) {
    write_ms.push_back(wt.insert_ms[j] + wt.remove_ms[j]);
  }
  out.E2e("setup_s", Median(build_s), "s");
  out.E2e("range_qps", range.queries / range.wall_s, "1/s");
  out.E2e("knn_qps", knn.queries / knn.wall_s, "1/s");
  out.E2e("range_p50_ms", Median(range.batch_ms), "ms");
  out.E2e("knn_p50_ms", Median(knn.batch_ms), "ms");
  out.E2e("write_p50_ms", Median(write_ms), "ms");
  out.E2e("modeled_qps",
          static_cast<double>(range.queries + knn.queries) /
              (range.modeled_s + knn.modeled_s),
          "1/s");
  out.E2e("rss_peak_mb", PeakRssMb(), "MB");
  std::printf("%s: %u passes x %zu range + %zu kNN batches of %u; %zu write "
              "cycles; tail samples: %llu range, %llu kNN queries\n",
              spec.name, passes, batches.size(), batches.size(), spec.batch,
              write_ms.size(), static_cast<unsigned long long>(range.queries),
              static_cast<unsigned long long>(knn.queries));

  if (tracer == nullptr || !tracer->enabled()) return out;

  // --- Per-layer metrics (traced run).
  const MetricReplay replay = ReplayDistances(
      spec.dataset, corpus.data, queries, StreamSeed(opt.seed, 5), tracer);
  out.Layer("core.build_s", Median(tracer->DurationsMs("core.Build")) * 1e-3,
            "s");
  AddQueryLayerMetrics(range, knn, replay, tracer, &out);
  AddWriteLayerMetrics(wt, tracer, &out);
  out.Layer("gpu.peak_mb", peak_mb, "MB");
  out.Layer("bench.range_tail_ms", QueryTail(range.batch_ms, spec.batch), "ms");
  out.Layer("bench.knn_tail_ms", QueryTail(knn.batch_ms, spec.batch), "ms");
  out.Layer("bench.write_tail_ms", Percentile(write_ms, 0.99), "ms");
  out.Layer("epoch.retired", static_cast<double>(wt.retired), "count");
  out.Layer("epoch.reclaimed", static_cast<double>(wt.reclaimed), "count");
  out.Layer("epoch.limbo_peak", static_cast<double>(wt.limbo_peak), "count");
  // The closed loop has no serving plane and no send schedule.
  for (const auto& [name, unit] : std::initializer_list<
           std::pair<const char*, const char*>>{
           {"serve.session.batch_size", "count"},
           {"serve.session.flushes_per_s", "1/s"},
           {"serve.session.p50_ms", "ms"},
           {"serve.session.p95_ms", "ms"},
           {"serve.frontend.overhead_ms", "ms"},
           {"serve.frontend.submit_us", "us"},
           {"serve.frontend.pruned_frac", "1"},
           {"serve.executor.range.batch_ms", "ms"},
           {"serve.executor.knn.batch_ms", "ms"},
           {"serve.rejected", "count"},
           {"serve.deadline_missed", "count"},
           {"bench.gen_lag_p99_ms", "ms"}}) {
    out.Layer(name, 0.0, unit);
  }
  return out;
}

}  // namespace perfbench
