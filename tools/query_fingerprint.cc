// Deterministic whole-stack query fingerprint for the kernel-dispatch CI
// matrix. Builds an index per paper dataset family, runs batched kNN and
// range queries, and folds every observable into two FNV-1a hashes per
// dataset: `answers` folds the exact results (ids and distance float
// bits), `work` folds everything an algorithmic change may legitimately
// move — query-stat counters, metric work counters and the built table
// list (object order and distance bits). Two further lines cover the leaf
// verifiers at scale, on a tombstoned T-Loc index whose device budget
// splits each batch into several query groups. `knn-20k` queries it in
// exact, approximate, bounded and large-k mode; its `answers` fold the
// exact and large-k results, its `work` the counters, the approximate and
// bounded results (whose contracts let them move) and the modeled device
// clock. `range-20k` runs one range batch; its `answers` fold the results,
// its `work` the counters and the modeled device clock. A combined digest
// of every hash closes the report.
//
// A change that keeps exact answers but changes the work (a better bound,
// a different charge) moves only the `work` column; comparing the
// `answers` column of two builds proves the results did not move.
//
// Two modes:
//   query_fingerprint               print one `<dataset> answers <hex>
//                                   work <hex>` line per dataset and a
//                                   final `combined <hex>`,
//                                   under whatever tier GTS_SIMD /
//                                   GTS_FORCE_SCALAR resolve to. CI runs
//                                   this once per forced tier and diffs
//                                   the outputs byte-for-byte.
//   query_fingerprint --self-check  run every tier compiled into this
//                                   binary AND runnable on this CPU
//                                   in-process (simd::ScopedTierForTest)
//                                   and fail (exit 1) unless all agree.
//                                   Registered as the
//                                   `kernel_dispatch_selfcheck` ctest.
//
// The equivalence contract this enforces is documented in metric/simd.h:
// every tier of every kernel is bitwise-identical, so the fingerprint is a
// function of the workload alone, never of the ISA that executed it.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gpu/device.h"
#include "metric/simd.h"

namespace {

using namespace gts;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Fold(uint64_t* h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

template <typename T>
void FoldPod(uint64_t* h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  Fold(h, &v, sizeof(v));
}

void FoldNeighbors(uint64_t* h, const KnnResults& results) {
  for (const auto& res : results) {
    FoldPod(h, static_cast<uint64_t>(res.size()));
    for (const Neighbor& nb : res) {
      FoldPod(h, nb.id);
      FoldPod(h, nb.dist);  // float BITS: equality is bitwise, not approx
    }
  }
}

// The evaluated distance set — and so every work counter — is part of the
// contract: a tier that skipped or reordered evaluations would change
// these even if the returned results happened to match.
void FoldStats(uint64_t* h, const GtsQueryStats& s) {
  FoldPod(h, s.distance_computations);
  FoldPod(h, s.nodes_visited);
  FoldPod(h, s.objects_verified);
  FoldPod(h, s.query_groups);
  FoldPod(h, s.nodes_pruned);
}

// The two hashes of one report line.
struct Hashes {
  uint64_t answers = kFnvOffset;
  uint64_t work = kFnvOffset;
};

// Fingerprint of one dataset family's full query workload (mirrors the
// TierEquivalenceTest workload so a CI mismatch reproduces under gtest).
Hashes FingerprintDataset(DatasetId id) {
  const uint32_t n = id == DatasetId::kDna ? 120 : 400;
  Dataset data = GenerateDataset(id, n, 17);
  const Dataset queries = SampleQueries(data, 8, 29);
  auto metric = MakeDatasetMetric(id);
  gpu::Device device;
  GtsOptions options;
  options.node_capacity = 10;
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(2);
  }
  const GtsIndex& index = *built.value();

  Hashes h;
  FoldPod(&h.answers, static_cast<uint32_t>(id));
  FoldPod(&h.work, static_cast<uint32_t>(id));

  GtsQueryStats knn_stats;
  auto knn = index.KnnQueryBatch(queries, 5, &knn_stats);
  if (!knn.ok()) std::exit(2);
  FoldNeighbors(&h.answers, knn.value());

  const float radius = id == DatasetId::kDna     ? 18.0f
                       : id == DatasetId::kWords ? 4.0f
                                                 : 0.35f * 282;
  const std::vector<float> radii(queries.size(), radius);
  GtsQueryStats range_stats;
  auto range = index.RangeQueryBatch(queries, radii, &range_stats);
  if (!range.ok()) std::exit(2);
  for (const auto& ids : range.value()) {
    FoldPod(&h.answers, static_cast<uint64_t>(ids.size()));
    for (const uint32_t oid : ids) FoldPod(&h.answers, oid);
  }

  FoldStats(&h.work, knn_stats);
  FoldStats(&h.work, range_stats);
  const DistanceStats ms = metric->stats();
  FoldPod(&h.work, ms.calls);
  FoldPod(&h.work, ms.ops);
  for (const uint32_t oid : index.table_objects()) FoldPod(&h.work, oid);
  for (const float dis : index.table_dis()) FoldPod(&h.work, dis);
  return h;
}

// The leaf verifiers' workload: T-Loc 20k with every 7th object tombstoned
// (the leaves keep them; 1/7 stays under the rebuild threshold), on a
// 900 KB device budget, under three times the index's own 342 KB, so the
// frontier of a 128-query batch splits into several query groups.
struct VerifierSetup {
  Dataset queries;
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> index;
};

VerifierSetup BuildVerifierSetup() {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 20000, 23);
  VerifierSetup s{SampleQueries(data, 128, 31),
                  MakeDatasetMetric(DatasetId::kTLoc), nullptr, nullptr};
  gpu::DeviceOptions device_options;
  device_options.memory_bytes = 900ull << 10;
  s.device = std::make_unique<gpu::Device>(device_options);
  GtsOptions options;
  options.node_capacity = 10;
  auto built = GtsIndex::Build(std::move(data), s.metric.get(),
                               s.device.get(), options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(2);
  }
  s.index = std::move(built).value();
  for (uint32_t id = 0; id < s.index->size(); id += 7) {
    if (!s.index->Remove(id).ok()) std::exit(2);
  }
  return s;
}

// Exits unless some level of the descent split the batch: a batch that
// runs whole counts one group per inner level.
void RequireSplit(const char* line, const GtsQueryStats& stats,
                  const GtsIndex& index) {
  if (stats.query_groups < index.height()) {
    std::fprintf(stderr, "%s: no level split the batch\n", line);
    std::exit(2);
  }
}

// Fingerprint of the kNN leaf verifier. Folds exact kNN,
// candidate_fraction 0.5 and 0.2, initial bounds (+inf for even queries,
// the exact k-th distance for odd ones), k = 50, and finally the bits of
// the device clock every call charged. Answers: the exact and k = 50
// results; work: the rest.
Hashes FingerprintKnnVerifier() {
  constexpr uint32_t kK = 8;
  const VerifierSetup s = BuildVerifierSetup();
  const Dataset& queries = s.queries;
  const GtsIndex& index = *s.index;

  Hashes h;
  const auto run = [&](uint32_t k, const KnnOptions& knn_options,
                       uint64_t* results_hash) {
    GtsQueryStats stats;
    auto res = index.KnnQueryBatch(queries, k, &stats, knn_options);
    if (!res.ok()) std::exit(2);
    RequireSplit("knn-20k", stats, index);
    FoldNeighbors(results_hash, res.value());
    FoldStats(&h.work, stats);
    return std::move(res).value();
  };
  const KnnResults exact = run(kK, {}, &h.answers);
  for (const double fraction : {0.5, 0.2}) {
    KnnOptions approx;
    approx.candidate_fraction = fraction;
    run(kK, approx, &h.work);
  }
  std::vector<float> bounds;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    bounds.push_back(q % 2 == 1 && exact[q].size() == kK
                         ? exact[q].back().dist
                         : std::numeric_limits<float>::infinity());
  }
  KnnOptions bounded;
  bounded.initial_bounds = bounds;
  run(kK, bounded, &h.work);
  run(50, {}, &h.answers);
  FoldPod(&h.work, s.device->clock().ElapsedNs());
  return h;
}

// Fingerprint of the range leaf verifier: one batch at a radius of 0.5%
// selectivity, whose results are the answers; the counters and the bits
// of the device clock are the work.
Hashes FingerprintRangeVerifier() {
  const VerifierSetup s = BuildVerifierSetup();
  const float radius =
      CalibrateRadius(s.index->data(), *s.metric, 0.005, 200, 37);
  const std::vector<float> radii(s.queries.size(), radius);
  GtsQueryStats stats;
  auto res = s.index->RangeQueryBatch(s.queries, radii, &stats);
  if (!res.ok()) std::exit(2);
  RequireSplit("range-20k", stats, *s.index);
  Hashes h;
  for (const auto& ids : res.value()) {
    FoldPod(&h.answers, static_cast<uint64_t>(ids.size()));
    for (const uint32_t oid : ids) FoldPod(&h.answers, oid);
  }
  FoldStats(&h.work, stats);
  FoldPod(&h.work, s.device->clock().ElapsedNs());
  return h;
}

struct Report {
  std::vector<Hashes> per_dataset;
  Hashes knn_verifier;
  Hashes range_verifier;
  uint64_t combined = kFnvOffset;
};

Report RunAll() {
  Report r;
  for (const DatasetId id : kAllDatasets) {
    r.per_dataset.push_back(FingerprintDataset(id));
  }
  r.knn_verifier = FingerprintKnnVerifier();
  r.range_verifier = FingerprintRangeVerifier();
  for (const Hashes& h : r.per_dataset) {
    FoldPod(&r.combined, h.answers);
    FoldPod(&r.combined, h.work);
  }
  for (const Hashes& h : {r.knn_verifier, r.range_verifier}) {
    FoldPod(&r.combined, h.answers);
    FoldPod(&r.combined, h.work);
  }
  return r;
}

void PrintLine(const char* name, const Hashes& h) {
  std::printf("%-8s answers %016" PRIx64 " work %016" PRIx64 "\n", name,
              h.answers, h.work);
}

void Print(const Report& r, const char* tier) {
  std::printf("tier %s\n", tier);
  size_t i = 0;
  for (const DatasetId id : kAllDatasets) {
    PrintLine(GetDatasetSpec(id).name, r.per_dataset[i++]);
  }
  PrintLine("knn-20k", r.knn_verifier);
  PrintLine("range-20k", r.range_verifier);
  std::printf("combined %016" PRIx64 "\n", r.combined);
}

int SelfCheck() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::TierCompiled(t) && simd::TierSupportedByCpu(t)) {
      tiers.push_back(t);
    }
  }
  std::vector<Report> reports;
  for (const simd::Tier t : tiers) {
    simd::ScopedTierForTest scoped(t);
    reports.push_back(RunAll());
    Print(reports.back(), simd::TierName(t));
  }
  int rc = 0;
  for (size_t t = 1; t < reports.size(); ++t) {
    if (reports[t].combined != reports[0].combined) {
      std::fprintf(stderr, "FAIL: tier %s fingerprint differs from %s\n",
                   simd::TierName(tiers[t]), simd::TierName(tiers[0]));
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("self-check OK: %zu tier(s) byte-identical\n", tiers.size());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--self-check") == 0) {
    return SelfCheck();
  }
  Print(RunAll(), simd::TierName(simd::ActiveTier()));
  return 0;
}
