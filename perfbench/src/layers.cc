#include "layers.h"

#include <algorithm>

#include "data/generators.h"
#include "metric/soa.h"

namespace perfbench {

using gts::Dataset;

std::vector<Dataset> SplitPool(const Dataset& queries, uint32_t batch) {
  std::vector<Dataset> out;
  for (uint32_t start = 0; start < queries.size(); start += batch) {
    const uint32_t end = std::min(queries.size(), start + batch);
    std::vector<uint32_t> ids(end - start);
    for (uint32_t i = start; i < end; ++i) ids[i - start] = i;
    out.push_back(queries.Slice(ids));
  }
  return out;
}

namespace {
// Runs one batch call and adds its cost to `tally`; returns the answers.
template <typename Call>
auto TimedBatch(const gts::GtsIndex& index, Tracer* tracer, const char* span,
                uint64_t req, uint32_t queries, QueryTally* tally,
                Call&& call) {
  const gts::gpu::SimClock& clock = index.device()->clock();
  const double modeled0 = clock.ElapsedNs();
  const uint64_t kernels0 = clock.kernels_launched();
  gts::GtsQueryStats stats;
  // Direct calls run on this thread, so its distance counters are exact.
  const uint64_t ops0 = gts::DistanceMetric::ThreadStats().ops;
  const auto t0 = SteadyClock::now();
  auto res = [&] {
    ScopedSpan s(tracer, span, req);
    return call(&stats);
  }();
  const double wall = SecondsSince(t0);
  tally->metric_ops += gts::DistanceMetric::ThreadStats().ops - ops0;
  tally->queries += queries;
  tally->batches += 1;
  tally->wall_s += wall;
  tally->modeled_s += (clock.ElapsedNs() - modeled0) * 1e-9;
  tally->kernels += clock.kernels_launched() - kernels0;
  tally->stats += stats;
  tally->batch_ms.push_back(wall * 1e3);
  if (!res.ok()) tally->failed += queries;
  return res;
}
}  // namespace

void DirectPass(const gts::GtsIndex& index, std::span<const Dataset> batches,
                float radius, uint32_t k, Tracer* tracer, QueryTally* range,
                QueryTally* knn, KeptAnswers* keep) {
  uint32_t start = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const Dataset& qs = batches[b];
    const std::vector<float> radii(qs.size(), radius);
    auto r = TimedBatch(index, tracer, "core.RangeQueryBatch", b, qs.size(),
                        range, [&](gts::GtsQueryStats* st) {
                          return index.RangeQueryBatch(qs, radii, st);
                        });
    auto n = TimedBatch(index, tracer, "core.KnnQueryBatch", b, qs.size(), knn,
                        [&](gts::GtsQueryStats* st) {
                          return index.KnnQueryBatch(qs, k, st);
                        });
    if (r.ok()) {
      for (const auto& hits : r.value()) range->results += hits.size();
    }
    if (keep != nullptr) {
      for (size_t i = 0; i < keep->pool_index.size(); ++i) {
        const uint32_t p = keep->pool_index[i];
        if (p < start || p >= start + qs.size()) continue;
        keep->range[i] = r.ok() ? r.value()[p - start] : std::vector<uint32_t>{};
        keep->knn[i] =
            n.ok() ? n.value()[p - start] : std::vector<gts::Neighbor>{};
      }
    }
    start += qs.size();
  }
}

std::vector<WriteOp> MakeWriteStream(uint32_t count, uint32_t fresh,
                                     uint32_t corpus, uint64_t seed) {
  const std::vector<uint32_t> order = SampleIndices(fresh, fresh, seed);
  const std::vector<uint32_t> victims =
      SampleIndices(corpus, (count + 1) / 2, seed + 1);
  std::vector<WriteOp> ops(count);
  for (uint32_t i = 0; i < count; ++i) {
    ops[i].insert = i % 2 == 0;
    if (ops[i].insert) {
      ops[i].fresh = order[(i / 2) % order.size()];
    } else {
      ops[i].remove_id = victims[i / 2];
    }
  }
  return ops;
}

uint64_t CheckAnswers(Reference* ref, const Dataset& queries,
                      KeptAnswers* got, float radius, uint32_t k,
                      bool corrupt) {
  if (corrupt && !got->knn.empty()) {
    auto& answer = got->knn[0];
    if (answer.empty()) {
      answer.push_back({0, 0.0f});
    } else {
      answer[0].id ^= 1;
    }
  }
  uint64_t wrong = 0;
  for (size_t i = 0; i < got->pool_index.size(); ++i) {
    const uint32_t q = got->pool_index[i];
    if (!SameRange(got->range[i], ref->Range(queries, q, radius))) ++wrong;
    if (!SameKnn(got->knn[i], ref->Knn(queries, q, k))) ++wrong;
  }
  return wrong;
}

WriteTally ReplayWrites(gts::GtsIndex* index, const Dataset& fresh,
                        std::span<const WriteOp> ops, Tracer* tracer) {
  WriteTally t;
  const uint64_t retired0 = index->versions_retired();
  const uint64_t reclaimed0 = index->versions_reclaimed();
  const auto phase0 = SteadyClock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    const WriteOp& op = ops[i];
    const uint64_t rebuilds0 = index->rebuild_count();
    const auto t0 = SteadyClock::now();
    bool ok;
    if (op.insert) {
      auto res = [&] {
        ScopedSpan s(tracer, "core.Insert", i);
        return index->Insert(fresh, op.fresh);
      }();
      ok = res.ok();
      if (ok) t.inserted_ids.push_back(res.value());
    } else {
      ScopedSpan s(tracer, "core.Remove", i);
      ok = index->Remove(op.remove_id).ok();
    }
    const double ms = SecondsSince(t0) * 1e3;
    ++t.attempted;
    if (!ok) ++t.failed;
    (op.insert ? t.insert_ms : t.remove_ms).push_back(ms);
    const uint64_t rebuilds = index->rebuild_count() - rebuilds0;
    if (rebuilds > 0) {
      t.rebuilds += rebuilds;
      t.rebuild_ms.push_back(ms);
    }
    t.limbo_peak = std::max(t.limbo_peak, index->versions_retired() -
                                              index->versions_reclaimed());
  }
  t.wall_s = SecondsSince(phase0);
  t.retired = index->versions_retired() - retired0;
  t.reclaimed = index->versions_reclaimed() - reclaimed0;
  return t;
}

MetricReplay ReplayDistances(gts::DatasetId id, const Dataset& corpus,
                             const Dataset& queries, uint64_t seed,
                             Tracer* tracer) {
  const auto metric = gts::MakeDatasetMetric(id);
  const std::vector<uint32_t> ids =
      SampleIndices(corpus.size(), std::min<uint32_t>(corpus.size(), 2048),
                    seed);
  const gts::SoaPack pack = gts::SoaPack::Pack(corpus, ids);
  const uint32_t nq = std::min<uint32_t>(queries.size(), 64);
  // A fixed distance budget per kind: enough work to time an edit-distance
  // kernel (~250 ns) and a 2-d L2 kernel (a few ns) to well under 1%.
  const uint64_t budget =
      corpus.kind() == gts::DataKind::kString ? 1u << 19 : 1u << 23;
  const uint64_t per_rep = 2ull * nq * ids.size();
  const uint64_t reps = std::max<uint64_t>(1, budget / per_rep);
  std::vector<float> out(ids.size());
  for (uint64_t rep = 0; rep < reps; ++rep) {
    for (uint32_t q = 0; q < nq; ++q) {
      {
        ScopedSpan s(tracer, "metric.DistanceBlock", q);
        metric->DistanceBlock(queries, q, corpus, pack, 0,
                              static_cast<uint32_t>(ids.size()), out.data());
      }
      {
        ScopedSpan s(tracer, "metric.DistanceBatch", q);
        metric->DistanceBatch(queries, q, corpus, ids, out.data());
      }
    }
  }
  double ms = 0.0;
  for (const char* name : {"metric.DistanceBlock", "metric.DistanceBatch"}) {
    for (const double d : tracer->DurationsMs(name)) ms += d;
  }
  const gts::DistanceStats st = metric->stats();
  MetricReplay r;
  r.ns_per_dist = st.calls == 0 ? 0.0 : ms * 1e6 / st.calls;
  r.ops_per_dist = st.calls == 0 ? 0.0 : static_cast<double>(st.ops) / st.calls;
  return r;
}

void SnapshotCounters(Tracer* tracer, const std::string& phase,
                      const std::string& prefix, const gts::GtsIndex& index,
                      const gts::DistanceMetric& metric,
                      const gts::gpu::Device& device) {
  if (tracer == nullptr || !tracer->enabled()) return;
  const gts::GtsQueryStats q = index.query_stats();
  const gts::DistanceStats d = metric.stats();
  const std::pair<const char*, double> rows[] = {
      {"core.distance_computations", static_cast<double>(q.distance_computations)},
      {"core.nodes_visited", static_cast<double>(q.nodes_visited)},
      {"core.objects_verified", static_cast<double>(q.objects_verified)},
      {"core.query_groups", static_cast<double>(q.query_groups)},
      {"core.nodes_pruned", static_cast<double>(q.nodes_pruned)},
      {"core.rebuild_count", static_cast<double>(index.rebuild_count())},
      {"core.alive_size", static_cast<double>(index.alive_size())},
      {"metric.calls", static_cast<double>(d.calls)},
      {"metric.ops", static_cast<double>(d.ops)},
      {"gpu.clock_ns", device.clock().ElapsedNs()},
      {"gpu.kernels", static_cast<double>(device.clock().kernels_launched())},
      {"gpu.allocated_bytes", static_cast<double>(device.allocated_bytes())},
      {"gpu.peak_bytes", static_cast<double>(device.peak_allocated_bytes())},
      {"epoch.retired", static_cast<double>(index.versions_retired())},
      {"epoch.reclaimed", static_cast<double>(index.versions_reclaimed())},
  };
  for (const auto& [name, value] : rows) {
    tracer->Counter(phase, prefix + "." + name, value);
  }
}

namespace {
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
}  // namespace

void AddQueryLayerMetrics(const QueryTally& range, const QueryTally& knn,
                          const MetricReplay& replay, Tracer* tracer,
                          RunResult* out) {
  const auto per_q = [](const QueryTally& t, uint64_t v) {
    return Ratio(static_cast<double>(v), static_cast<double>(t.queries));
  };
  const auto prune = [](const QueryTally& t) {
    return Ratio(static_cast<double>(t.stats.nodes_pruned),
                 static_cast<double>(t.stats.nodes_pruned + t.stats.nodes_visited));
  };
  const double range_dpq = per_q(range, range.stats.distance_computations);
  const double knn_dpq = per_q(knn, knn.stats.distance_computations);
  out->Layer("core.range.dist_per_q", range_dpq, "count");
  out->Layer("core.knn.dist_per_q", knn_dpq, "count");
  out->Layer("core.range.prune_ratio", prune(range), "1");
  out->Layer("core.knn.prune_ratio", prune(knn), "1");
  out->Layer("core.knn.cand_per_q", per_q(knn, knn.stats.objects_verified),
             "count");
  out->Layer("core.knn.verify_yield",
             Ratio(static_cast<double>(knn.stats.distance_computations),
                   static_cast<double>(knn.stats.objects_verified)),
             "1");
  out->Layer("core.range.hit_yield",
             Ratio(static_cast<double>(range.results),
                   static_cast<double>(range.stats.distance_computations)),
             "1");
  out->Layer("core.groups_per_batch",
             Ratio(static_cast<double>(range.stats.query_groups +
                                       knn.stats.query_groups),
                   static_cast<double>(range.batches + knn.batches)),
             "count");
  out->Layer("core.range.batch_ms",
             Median(tracer->DurationsMs("core.RangeQueryBatch")), "ms");
  out->Layer("core.knn.batch_ms",
             Median(tracer->DurationsMs("core.KnnQueryBatch")), "ms");
  out->Layer("metric.ns_per_dist", replay.ns_per_dist, "ns");
  out->Layer("metric.ops_per_dist", replay.ops_per_dist, "count");
  // The most a faster kernel can save: the share of a query's wall time its
  // distance evaluations take at the replayed kernel speed. Weighted by
  // elementary operations, not calls: an edit distance costs its DP area,
  // and the candidates a tree verifies are not a random sample of pairs.
  const double ns_per_op = Ratio(replay.ns_per_dist, replay.ops_per_dist);
  const auto share = [&](const QueryTally& t) {
    return Ratio(static_cast<double>(t.metric_ops) * ns_per_op * 1e-9,
                 t.wall_s);
  };
  out->Layer("metric.range.share", share(range), "1");
  out->Layer("metric.knn.share", share(knn), "1");
  out->Layer("gpu.range.modeled_us_per_q",
             Ratio(range.modeled_s * 1e6, static_cast<double>(range.queries)),
             "us");
  out->Layer("gpu.knn.modeled_us_per_q",
             Ratio(knn.modeled_s * 1e6, static_cast<double>(knn.queries)), "us");
  out->Layer("gpu.kernels_per_batch",
             Ratio(static_cast<double>(range.kernels + knn.kernels),
                   static_cast<double>(range.batches + knn.batches)),
             "count");
  out->Layer("gpu.range.wall_per_modeled", Ratio(range.wall_s, range.modeled_s),
             "1");
  out->Layer("gpu.knn.wall_per_modeled", Ratio(knn.wall_s, knn.modeled_s), "1");
}

void AddWriteLayerMetrics(const WriteTally& writes, Tracer* tracer,
                          RunResult* out) {
  const auto us = [&](const char* span) {
    return Median(tracer->DurationsMs(span)) * 1e3;
  };
  out->Layer("core.insert_us", us("core.Insert"), "us");
  out->Layer("core.remove_us", us("core.Remove"), "us");
  out->Layer("core.rebuild_ms", Median(writes.rebuild_ms), "ms");
  out->Layer("core.rebuilds", static_cast<double>(writes.rebuilds), "count");
}

}  // namespace perfbench
