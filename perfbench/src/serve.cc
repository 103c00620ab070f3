// tloc-serve: a T-Loc corpus split round-robin over shards, each shard on
// its own simulated device, behind serve::ShardedFrontend. One generator
// thread sends single requests on a fixed schedule (an open loop); one
// completion thread takes the read answers and one the write acks, so a
// request's latency runs from when it was due to when its answer was in
// hand. A tenth of the requests are writes (inserts of fresh objects and
// removes of live ids, in equal numbers), so the copy-on-write update path
// and epoch reclamation run beside the reads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "data/workload.h"
#include "layers.h"
#include "serve/query_executor.h"
#include "serve/sharded_frontend.h"
#include "workloads.h"

namespace perfbench {

using gts::Dataset;
using gts::GtsIndex;
using gts::serve::Request;
using gts::serve::Response;
using gts::serve::ShardedFrontend;

namespace {

enum class Kind : uint8_t { kRange, kKnn, kInsert, kRemove };

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The request stream, a pure function of the seed and the position: of
// every 20 requests, 9 are range reads, 9 kNN reads, one an insert and one
// a remove.
class Stream {
 public:
  Stream(const Corpus* corpus, const Dataset* pool, uint32_t k, uint64_t seed)
      : corpus_(corpus),
        pool_(pool),
        k_(k),
        seed_(seed),
        fresh_order_(SampleIndices(corpus->fresh.size(), corpus->fresh.size(),
                                   StreamSeed(seed, 2))),
        victims_(SampleIndices(corpus->data.size(), corpus->data.size(),
                               StreamSeed(seed, 3))) {}

  static Kind KindOf(uint64_t i) {
    const uint64_t p = i % 20;
    if (p == 9) return Kind::kInsert;
    if (p == 19) return Kind::kRemove;
    return (p < 10 ? p : p - 1) % 2 == 0 ? Kind::kRange : Kind::kKnn;
  }
  uint32_t QueryOf(uint64_t i) const {
    return static_cast<uint32_t>(Mix(seed_ ^ i) % pool_->size());
  }
  uint32_t FreshOf(uint64_t i) const {
    return fresh_order_[(i / 20) % fresh_order_.size()];
  }
  uint32_t VictimOf(uint64_t i) const {
    return victims_[(i / 20) % victims_.size()];
  }
  Request Make(uint64_t i) const {
    switch (KindOf(i)) {
      case Kind::kRange:
        return Request::Range(*pool_, QueryOf(i), corpus_->radius);
      case Kind::kKnn: return Request::Knn(*pool_, QueryOf(i), k_);
      case Kind::kInsert: return Request::Insert(corpus_->fresh, FreshOf(i));
      case Kind::kRemove: return Request::Remove(VictimOf(i));
    }
    return Request::Rebuild();
  }
  void Fold(Fingerprint* fp, uint64_t count) const {
    for (uint64_t i = 0; i < count; ++i) {
      const Kind kind = KindOf(i);
      fp->Pod(kind);
      fp->Pod(kind == Kind::kInsert   ? FreshOf(i)
              : kind == Kind::kRemove ? VictimOf(i)
                                      : QueryOf(i));
    }
  }

 private:
  const Corpus* corpus_;
  const Dataset* pool_;
  uint32_t k_;
  uint64_t seed_;
  std::vector<uint32_t> fresh_order_;
  std::vector<uint32_t> victims_;
};

// The shards, their devices and the frontend in front of them.
struct Stack {
  std::vector<IndexEnv> envs;
  std::vector<std::unique_ptr<GtsIndex>> shards;
  std::unique_ptr<ShardedFrontend> frontend;

  /// Tears down in dependency order: the frontend drains and stops its
  /// threads, then the shards release their devices' reservations.
  void Reset() {
    frontend.reset();
    shards.clear();
    envs.clear();
  }
  uint64_t Retired() const {
    uint64_t n = 0;
    for (const auto& s : shards) n += s->versions_retired();
    return n;
  }
  uint64_t Reclaimed() const {
    uint64_t n = 0;
    for (const auto& s : shards) n += s->versions_reclaimed();
    return n;
  }
  std::vector<double> ClockNs() const {
    std::vector<double> ns;
    for (const auto& e : envs) ns.push_back(e.device->clock().ElapsedNs());
    return ns;
  }
};

// Round-robin partition: shard s holds corpus objects s, s+N, s+2N, ...,
// so frontend-global ids equal corpus ids.
std::vector<Dataset> Partition(const Dataset& data, uint32_t shards) {
  std::vector<Dataset> out;
  for (uint32_t s = 0; s < shards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < data.size(); g += shards) ids.push_back(g);
    out.push_back(data.Slice(ids));
  }
  return out;
}

// Builds the stack over copies of `parts`; returns the wall time from the
// first construction step until the frontend accepts requests (< 0 when
// a build failed).
double BuildStack(const WorkloadSpec& spec, const std::vector<Dataset>& parts,
                  Tracer* tracer, uint32_t rep, Stack* stack) {
  stack->Reset();
  std::vector<Dataset> copies = parts;
  const auto t0 = SteadyClock::now();
  std::vector<std::vector<GtsIndex*>> layout;
  for (Dataset& part : copies) {
    IndexEnv env = MakeIndexEnv(spec.dataset, part.size());
    auto built = [&] {
      ScopedSpan s(tracer, "core.Build", rep);
      return GtsIndex::Build(std::move(part), env.metric.get(),
                             env.device.get(), IndexOptions(spec));
    }();
    if (!built.ok()) {
      std::fprintf(stderr, "shard build failed: %s\n",
                   built.status().ToString().c_str());
      return -1.0;
    }
    stack->shards.push_back(std::move(built).value());
    stack->envs.push_back(std::move(env));
    layout.push_back({stack->shards.back().get()});
  }
  gts::serve::FrontendOptions options;
  options.executor_threads = spec.exec_threads;
  {
    ScopedSpan s(tracer, "serve.ShardedFrontend.ctor", rep);
    stack->frontend =
        std::make_unique<ShardedFrontend>(std::move(layout), options);
  }
  return SecondsSince(t0);
}

// What one open-loop phase observed.
struct Phase {
  std::vector<double> range_ms, knn_ms, write_ms;  ///< due -> answer
  std::vector<double> lag_ms;  ///< how late each request was sent
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors, refusals, malformed answers
  uint64_t limbo_peak = 0;
  double wall_s = 0.0;     ///< first due time -> last answer
  double modeled_s = 0.0;  ///< largest per-device clock advance (makespan)
  std::vector<uint32_t> removed;
  std::vector<Inserted> inserted;
};

// Names of one phase's root spans on its three threads.
struct PhaseRoots {
  const char* send;
  const char* reads;
  const char* writes;
};

// Sends requests [first, first + count) at `rate` per second.
Phase OpenLoop(Stack* stack, const Stream& stream, uint64_t first,
               uint64_t count, double rate, uint32_t k, Tracer* tracer,
               const PhaseRoots& roots) {
  std::vector<Request> requests;
  requests.reserve(count);
  for (uint64_t i = 0; i < count; ++i) requests.push_back(stream.Make(first + i));
  std::vector<std::future<Response>> futures(count);
  std::vector<SteadyClock::time_point> due(count);
  std::atomic<uint64_t> published{0};
  Phase ph;
  ph.attempted = count;
  const std::vector<double> clock0 = stack->ClockNs();
  ph.limbo_peak = stack->Retired() - stack->Reclaimed();

  // Reads and writes are taken by two completion threads, each in
  // submission order, so a write's ack is never observed late just because
  // an earlier, slower read was still being gathered.
  uint64_t write_failed = 0;
  const auto take = [&](bool writes, uint64_t* failed) {
    ScopedSpan root(tracer, writes ? roots.writes : roots.reads);
    for (uint64_t j = 0; j < count; ++j) {
      const uint64_t i = first + j;
      const Kind kind = Stream::KindOf(i);
      if ((kind == Kind::kInsert || kind == Kind::kRemove) != writes) continue;
      for (uint64_t c = published.load(std::memory_order_acquire); c <= j;
           c = published.load(std::memory_order_acquire)) {
        published.wait(c, std::memory_order_acquire);
      }
      const auto response = [&] {
        ScopedSpan s(tracer, "serve.future.get", i);
        return futures[j].get();
      }();
      const double ms =
          std::chrono::duration<double, std::milli>(SteadyClock::now() - due[j])
              .count();
      bool ok = response.ok();
      switch (kind) {
        case Kind::kRange:
          if (ok) ph.range_ms.push_back(ms);
          break;
        case Kind::kKnn:
          if (ok) {
            const auto& nb = response.knn().value();
            ok = nb.size() == k &&
                 std::is_sorted(nb.begin(), nb.end(), [](auto& a, auto& b) {
                   return a.dist < b.dist;
                 });
            if (ok) ph.knn_ms.push_back(ms);
          }
          break;
        case Kind::kInsert:
          if (ok) {
            ph.inserted.push_back({response.inserted().value(),
                                   stream.FreshOf(i)});
            ph.write_ms.push_back(ms);
          }
          break;
        case Kind::kRemove:
          if (ok) {
            ph.removed.push_back(stream.VictimOf(i));
            ph.write_ms.push_back(ms);
          }
          break;
      }
      if (!ok) ++*failed;
      if (writes) {  // versions are retired by the writes
        ph.limbo_peak = std::max(ph.limbo_peak,
                                 stack->Retired() - stack->Reclaimed());
      }
    }
  };
  std::thread read_taker(take, false, &ph.failed);
  std::thread write_taker(take, true, &write_failed);

  ph.lag_ms.reserve(count);
  {
    ScopedSpan root(tracer, roots.send);
    // Start a little ahead so the completion threads are waiting.
    const auto t0 = SteadyClock::now() + std::chrono::milliseconds(2);
    for (uint64_t j = 0; j < count; ++j) {
      due[j] = t0 + std::chrono::nanoseconds(
                        static_cast<int64_t>(static_cast<double>(j) * 1e9 / rate));
      if (SteadyClock::now() < due[j]) std::this_thread::sleep_until(due[j]);
      const auto sent = SteadyClock::now();
      ph.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(sent - due[j]).count());
      {
        ScopedSpan s(tracer, "serve.ShardedFrontend.Submit", first + j);
        futures[j] = stack->frontend->Submit(std::move(requests[j]));
      }
      published.store(j + 1, std::memory_order_release);
      published.notify_all();
    }
  }
  read_taker.join();
  write_taker.join();
  ph.failed += write_failed;
  ph.wall_s = std::chrono::duration<double>(SteadyClock::now() - due[0]).count();
  const std::vector<double> clock1 = stack->ClockNs();
  for (size_t s = 0; s < clock1.size(); ++s) {
    ph.modeled_s = std::max(ph.modeled_s, (clock1[s] - clock0[s]) * 1e-9);
  }
  return ph;
}

// Records the frontend's and its sessions' public counters at a phase
// boundary.
void SnapshotFrontend(Tracer* tracer, const std::string& phase,
                      const gts::serve::FrontendStats& fs) {
  if (tracer == nullptr || !tracer->enabled()) return;
  const std::pair<const char*, uint64_t> rows[] = {
      {"submitted", fs.submitted},        {"rejected", fs.rejected},
      {"completed", fs.completed},        {"writer_ops", fs.writer_ops},
      {"deadline_missed", fs.deadline_missed},
      {"scatter_reads", fs.scatter_reads},
      {"pruned_shard_queries", fs.pruned_shard_queries}};
  for (const auto& [name, value] : rows) {
    tracer->Counter(phase, std::string("serve.frontend.") + name,
                    static_cast<double>(value));
  }
  for (size_t s = 0; s < fs.shards.size(); ++s) {
    const gts::serve::SessionStats& ss = fs.shards[s];
    const std::string prefix = "serve.session" + std::to_string(s) + ".";
    const std::pair<const char*, double> session[] = {
        {"submitted", static_cast<double>(ss.submitted)},
        {"completed", static_cast<double>(ss.completed)},
        {"flushes", static_cast<double>(ss.flushes)},
        {"coalesced_batches", static_cast<double>(ss.coalesced_batches)},
        {"writer_ops", static_cast<double>(ss.writer_ops)},
        {"p50_latency_ms", ss.p50_latency_ms},
        {"p95_latency_ms", ss.p95_latency_ms}};
    for (const auto& [name, value] : session) {
      tracer->Counter(phase, prefix + name, value);
    }
  }
}

}  // namespace

RunResult RunServeWorkload(const RunOptions& opt, Tracer* tracer) {
  const WorkloadSpec& spec = *opt.spec;
  RunResult out;

  // --- Inputs: fixed corpus, seeded query pool and request stream.
  const Corpus corpus = MakeCorpus(spec, spec.n);
  const Dataset pool =
      gts::SampleQueries(corpus.data, spec.pool_batches * spec.batch,
                         StreamSeed(opt.seed, 1));
  const Stream stream(&corpus, &pool, spec.k, opt.seed);
  const uint64_t warm = static_cast<uint64_t>(spec.nominal_rate / 2);
  const uint64_t nominal =
      static_cast<uint64_t>(spec.nominal_rate * opt.seconds);
  {
    Fingerprint fp;
    fp.Objects(corpus.data);
    fp.Objects(corpus.fresh);
    fp.Objects(pool);
    fp.Pod(corpus.radius);
    stream.Fold(&fp, warm + nominal);
    out.inputs_fingerprint = fp.value();
  }
  const std::vector<Dataset> parts = Partition(corpus.data, spec.shards);

  // --- Set-up: shards plus frontend, several times; keep the last.
  Stack stack;
  std::vector<double> setup_s;
  for (uint32_t rep = 0; rep < spec.setup_reps; ++rep) {
    const double s = BuildStack(spec, parts, tracer, rep, &stack);
    ++out.attempted;
    if (s < 0.0) {
      ++out.failed;
      return out;
    }
    setup_s.push_back(s);
  }

  // --- Warm-up, then the nominal-rate phase.
  uint64_t next = 0;
  std::vector<uint32_t> removed;
  std::vector<Inserted> inserted;
  const auto keep = [&](Phase& ph) {
    removed.insert(removed.end(), ph.removed.begin(), ph.removed.end());
    inserted.insert(inserted.end(), ph.inserted.begin(), ph.inserted.end());
  };
  {
    Phase w = OpenLoop(&stack, stream, next, warm, spec.nominal_rate, spec.k,
                       nullptr, {"bench.warmup.send", "bench.warmup.reads",
                                 "bench.warmup.writes"});
    next += warm;
    keep(w);
    out.attempted += w.attempted;
    out.failed += w.failed;
  }
  const gts::serve::FrontendStats fs0 = stack.frontend->stats();
  SnapshotFrontend(tracer, "nominal.begin", fs0);
  const uint64_t retired0 = stack.Retired(), reclaimed0 = stack.Reclaimed();
  for (const IndexEnv& e : stack.envs) e.device->ResetPeak();
  for (size_t s = 0; s < stack.shards.size(); ++s) {
    SnapshotCounters(tracer, "nominal.begin", "shard" + std::to_string(s),
                     *stack.shards[s], *stack.envs[s].metric,
                     *stack.envs[s].device);
  }
  Phase nom = OpenLoop(&stack, stream, next, nominal, spec.nominal_rate,
                       spec.k, tracer,
                       {"bench.nominal.send", "bench.nominal.reads",
                        "bench.nominal.writes"});
  if (tracer != nullptr) {
    tracer->Measured("bench.nominal.reads", nom.wall_s);
  }
  next += nominal;
  keep(nom);
  const gts::serve::FrontendStats fs1 = stack.frontend->stats();
  SnapshotFrontend(tracer, "nominal.end", fs1);
  for (size_t s = 0; s < stack.shards.size(); ++s) {
    SnapshotCounters(tracer, "nominal.end", "shard" + std::to_string(s),
                     *stack.shards[s], *stack.envs[s].metric,
                     *stack.envs[s].device);
  }
  out.attempted += nom.attempted;
  out.failed += nom.failed;
  double peak_mb = 0.0;
  for (const IndexEnv& e : stack.envs) {
    peak_mb = std::max(
        peak_mb, static_cast<double>(e.device->peak_allocated_bytes()) / (1 << 20));
  }

  // --- Answer check after the write stream drained, over the alive set.
  stack.frontend->Drain();
  {
    const AliveSet alive = BuildAlive(corpus, removed, inserted);
    Reference ref(spec.dataset, &alive.objects, alive.ids);
    KeptAnswers got;
    got.pool_index =
        SampleIndices(pool.size(), spec.check_queries, StreamSeed(opt.seed, 4));
    std::vector<std::future<Response>> rf, kf;
    for (const uint32_t q : got.pool_index) {
      rf.push_back(stack.frontend->Submit(Request::Range(pool, q, corpus.radius)));
      kf.push_back(stack.frontend->Submit(Request::Knn(pool, q, spec.k)));
    }
    for (size_t i = 0; i < got.pool_index.size(); ++i) {
      Response r = rf[i].get(), n = kf[i].get();
      got.range.push_back(r.ok() ? r.range().value() : std::vector<uint32_t>{});
      got.knn.push_back(n.ok() ? n.knn().value() : std::vector<gts::Neighbor>{});
    }
    out.attempted += 2 * got.pool_index.size();
    out.mismatches += CheckAnswers(&ref, pool, &got, corpus.radius, spec.k,
                                   opt.corrupt_answer);
    out.failed += out.mismatches;
  }

  // --- End-to-end metrics (nominal phase unless stated).
  const double reads = static_cast<double>(nom.range_ms.size() + nom.knn_ms.size());
  out.E2e("setup_s", Median(setup_s), "s");
  out.E2e("range_qps", nom.range_ms.size() / nom.wall_s, "1/s");
  out.E2e("knn_qps", nom.knn_ms.size() / nom.wall_s, "1/s");
  out.E2e("range_p50_ms", Median(nom.range_ms), "ms");
  out.E2e("knn_p50_ms", Median(nom.knn_ms), "ms");
  out.E2e("write_p50_ms", Median(nom.write_ms), "ms");
  out.E2e("modeled_qps", nom.modeled_s > 0.0 ? reads / nom.modeled_s : 0.0,
          "1/s");
  out.E2e("rss_peak_mb", PeakRssMb(), "MB");
  for (const auto& [label, v] :
       {std::pair{"range", &nom.range_ms}, std::pair{"kNN", &nom.knn_ms},
        std::pair{"write", &nom.write_ms}, std::pair{"send lag", &nom.lag_ms}}) {
    std::printf("%-8s ms: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f\n",
                label, Percentile(*v, 0.5), Percentile(*v, 0.9),
                Percentile(*v, 0.99), Percentile(*v, 0.999),
                Percentile(*v, 1.0));
  }
  std::printf("%s: %llu requests at %.0f/s; samples range %zu, kNN %zu, "
              "write %zu\n",
              spec.name, static_cast<unsigned long long>(nominal),
              spec.nominal_rate, nom.range_ms.size(), nom.knn_ms.size(),
              nom.write_ms.size());

  if (tracer == nullptr || !tracer->enabled()) return out;

  // --- Per-layer metrics (traced run). Serve counters over the nominal
  // phase; core, metric and executor costs from direct calls on a
  // shard-sized index at the nominal phase's mean flush size.
  uint64_t completed = 0, groups = 0, flushes = 0;
  double p50 = 0.0, p95 = 0.0;
  for (size_t s = 0; s < fs1.shards.size(); ++s) {
    completed += fs1.shards[s].completed - fs0.shards[s].completed;
    groups += fs1.shards[s].coalesced_batches - fs0.shards[s].coalesced_batches;
    flushes += fs1.shards[s].flushes - fs0.shards[s].flushes;
    p50 += fs1.shards[s].p50_latency_ms / fs1.shards.size();
    p95 += fs1.shards[s].p95_latency_ms / fs1.shards.size();
  }
  const double flush_size =
      groups == 0 ? 1.0 : static_cast<double>(completed) / groups;
  std::vector<double> read_ms = nom.range_ms;
  read_ms.insert(read_ms.end(), nom.knn_ms.begin(), nom.knn_ms.end());
  const double scatters =
      static_cast<double>(fs1.scatter_reads - fs0.scatter_reads);
  out.Layer("serve.session.batch_size", flush_size, "count");
  out.Layer("serve.session.flushes_per_s",
            flushes / static_cast<double>(fs1.shards.size()) / nom.wall_s,
            "1/s");
  out.Layer("serve.session.p50_ms", p50, "ms");
  out.Layer("serve.session.p95_ms", p95, "ms");
  out.Layer("serve.frontend.overhead_ms", Median(read_ms) - p50, "ms");
  out.Layer("serve.frontend.submit_us",
            Median(tracer->DurationsMs("serve.ShardedFrontend.Submit",
                                       "bench.nominal.send")) * 1e3,
            "us");
  out.Layer("serve.frontend.pruned_frac",
            scatters == 0.0 ? 0.0
                            : (fs1.pruned_shard_queries - fs0.pruned_shard_queries) /
                                  (scatters * fs1.shards.size()),
            "1");
  out.Layer("serve.rejected", static_cast<double>(fs1.rejected - fs0.rejected),
            "count");
  out.Layer("serve.deadline_missed",
            static_cast<double>(fs1.deadline_missed - fs0.deadline_missed),
            "count");
  out.Layer("epoch.retired", static_cast<double>(stack.Retired() - retired0),
            "count");
  out.Layer("epoch.reclaimed",
            static_cast<double>(stack.Reclaimed() - reclaimed0), "count");
  out.Layer("epoch.limbo_peak", static_cast<double>(nom.limbo_peak), "count");
  out.Layer("bench.gen_lag_p99_ms", Percentile(nom.lag_ms, 0.99), "ms");
  out.Layer("bench.range_tail_ms", Percentile(nom.range_ms, 0.99), "ms");
  out.Layer("bench.knn_tail_ms", Percentile(nom.knn_ms, 0.99), "ms");
  out.Layer("bench.write_tail_ms", Percentile(nom.write_ms, 0.99), "ms");
  out.Layer("gpu.peak_mb", peak_mb, "MB");
  out.Layer("core.build_s", Median(tracer->DurationsMs("core.Build")) * 1e-3,
            "s");

  // Shard 0's share of the nominal phase's write stream, as local ids.
  const uint32_t shards = spec.shards;
  std::vector<WriteOp> shard_writes;
  for (uint64_t i = warm; i < warm + nominal; ++i) {
    const Kind kind = Stream::KindOf(i);
    if (kind == Kind::kInsert &&
        stack.frontend->ShardForObject(corpus.fresh, stream.FreshOf(i)) == 0) {
      shard_writes.push_back({true, stream.FreshOf(i), 0});
    } else if (kind == Kind::kRemove && stream.VictimOf(i) % shards == 0) {
      shard_writes.push_back({false, 0, stream.VictimOf(i) / shards});
    }
  }
  stack.Reset();  // the live stack's threads stop before the replay

  IndexEnv env = MakeIndexEnv(spec.dataset, parts[0].size());
  auto built = GtsIndex::Build(parts[0], env.metric.get(), env.device.get(),
                               IndexOptions(spec));
  if (!built.ok()) {
    ++out.failed;
    return out;
  }
  std::unique_ptr<GtsIndex> replay = std::move(built).value();
  const uint32_t batch = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(flush_size)));
  const std::vector<Dataset> batches = SplitPool(pool, batch);
  QueryTally range, knn;
  DirectPass(*replay, batches, corpus.radius, spec.k, tracer, &range, &knn,
             nullptr);
  {
    gts::serve::ExecutorOptions eo;
    eo.num_threads = spec.exec_threads;
    gts::serve::QueryExecutor executor(replay.get(), eo);
    for (size_t b = 0; b < batches.size(); ++b) {
      const std::vector<float> radii(batches[b].size(), corpus.radius);
      out.attempted += 2;
      {
        ScopedSpan s(tracer, "serve.QueryExecutor.RangeQueryBatch", b);
        if (!executor.RangeQueryBatch(batches[b], radii).ok()) ++out.failed;
      }
      {
        ScopedSpan s(tracer, "serve.QueryExecutor.KnnQueryBatch", b);
        if (!executor.KnnQueryBatch(batches[b], spec.k).ok()) ++out.failed;
      }
    }
  }
  out.Layer("serve.executor.range.batch_ms",
            Median(tracer->DurationsMs("serve.QueryExecutor.RangeQueryBatch")),
            "ms");
  out.Layer("serve.executor.knn.batch_ms",
            Median(tracer->DurationsMs("serve.QueryExecutor.KnnQueryBatch")),
            "ms");
  const MetricReplay metric = ReplayDistances(spec.dataset, corpus.data, pool,
                                              StreamSeed(opt.seed, 5), tracer);
  AddQueryLayerMetrics(range, knn, metric, tracer, &out);
  const WriteTally wt =
      ReplayWrites(replay.get(), corpus.fresh, shard_writes, tracer);
  out.attempted += wt.attempted + range.queries + knn.queries;
  out.failed += wt.failed + range.failed + knn.failed;
  AddWriteLayerMetrics(wt, tracer, &out);
  return out;
}

}  // namespace perfbench
