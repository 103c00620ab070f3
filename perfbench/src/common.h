// Shared pieces of the repository benchmark: the workload parameters, the
// environment each workload runs in, sample statistics, the metric list a
// run prints, and the brute-force answer check.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/gts.h"
#include "data/generators.h"
#include "gpu/device.h"
#include "metric/dataset.h"
#include "metric/distance.h"

namespace perfbench {

/// One workload's fixed parameters. Everything here is part of the
/// benchmark's definition; only the query pool and the write stream
/// depend on the run's --seed.
struct WorkloadSpec {
  const char* name;
  gts::DatasetId dataset;
  uint32_t n;           ///< corpus size
  uint64_t data_seed;   ///< corpus generator seed
  int radius_step;      ///< r in units of 0.01% selectivity
  uint32_t k;
  uint32_t batch;       ///< batch size of the closed loop / query pool
  uint32_t node_capacity;
  uint32_t shards;        ///< 1 = direct GtsIndex calls
  uint32_t exec_threads;  ///< executor pool (tloc-serve)
  double nominal_rate;    ///< offered requests per second (tloc-serve)
  // Sizing of the fixed work (batch workloads).
  uint32_t pool_batches;    ///< range and kNN batches in the query pool
  double passes_per_second; ///< pool passes per requested second
  uint32_t setup_reps;      ///< identical constructions behind setup_s
  uint32_t writes;          ///< direct Insert/Remove calls replayed
  uint32_t check_queries;   ///< answers checked against brute force
};

/// Command-line options of one run.
struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: perturb one checked answer so the check must fail.
  bool corrupt_answer = false;
};

/// Corpus, metric and simulated device of one index, budgets scaled to the
/// corpus the way bench::MakeEnv scales them.
struct IndexEnv {
  std::unique_ptr<gts::DistanceMetric> metric;
  std::unique_ptr<gts::gpu::Device> device;
};
IndexEnv MakeIndexEnv(gts::DatasetId id, uint32_t n);

gts::GtsOptions IndexOptions(const WorkloadSpec& spec);

/// The corpus plus a reserve of fresh objects from the same distribution
/// (the write stream's inserts draw from it).
struct Corpus {
  gts::Dataset data = gts::Dataset::Strings();
  gts::Dataset fresh = gts::Dataset::Strings();
  float radius = 0.0f;
};
Corpus MakeCorpus(const WorkloadSpec& spec, uint32_t fresh);

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (0 for an empty one): the
/// bench harness's one shared convention.
inline double Percentile(std::vector<double> v, double q) {
  return gts::bench::PercentileOf(std::move(v), q);
}
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
/// Peak resident set size of this process, MB.
double PeakRssMb();

using SteadyClock = std::chrono::steady_clock;
inline double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// --- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What a workload hands back to main: the operation tally, the end-to-end
/// metrics, and (traced runs only) the per-layer metrics.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< errors, refusals and wrong answers
  uint64_t mismatches = 0;  ///< wrong answers among `failed`
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// FNV-1a over every generated input (corpus, queries, radii, write
  /// stream): equal seeds must give equal fingerprints.
  uint64_t inputs_fingerprint = 0;

  void E2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Per-stream seed derived from the run's --seed, so the query pool and the
/// write stream are independent draws.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

// --- Input fingerprint --------------------------------------------------------

class Fingerprint {
 public:
  void Bytes(const void* p, size_t n);
  void Objects(const gts::Dataset& d);
  template <typename T>
  void Pod(const T& v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// --- Answer check against baselines/brute_force ------------------------------

/// Exact reference answers over `objects`, reported with `ids[i]` as the id
/// of objects[i] (`ids` ascending, so the canonical (dist, id) order of a
/// kNN answer is preserved).
class Reference {
 public:
  Reference(gts::DatasetId id, const gts::Dataset* objects,
            std::vector<uint32_t> ids);
  std::vector<uint32_t> Range(const gts::Dataset& queries, uint32_t q,
                              float radius);
  std::vector<gts::Neighbor> Knn(const gts::Dataset& queries, uint32_t q,
                                 uint32_t k);

 private:
  std::unique_ptr<gts::DistanceMetric> metric_;
  const gts::Dataset* objects_;
  std::vector<uint32_t> ids_;
};

/// Range answers match when they hold the same ids (order free); kNN
/// answers match entry for entry in (dist, id) order.
bool SameRange(std::vector<uint32_t> got, std::vector<uint32_t> want);
bool SameKnn(const std::vector<gts::Neighbor>& got,
             const std::vector<gts::Neighbor>& want);

/// Deterministic sample of `count` distinct indices below `n`.
std::vector<uint32_t> SampleIndices(uint32_t n, uint32_t count, uint64_t seed);

/// The objects alive after a write stream, ascending by id: the corpus
/// (ids 0..n-1) minus `removed`, plus each inserted fresh object under the
/// id its insert returned.
struct AliveSet {
  gts::Dataset objects = gts::Dataset::Strings();
  std::vector<uint32_t> ids;
};
struct Inserted {
  uint32_t id;     ///< id the insert returned
  uint32_t fresh;  ///< object of the fresh reserve
};
AliveSet BuildAlive(const Corpus& corpus, std::vector<uint32_t> removed,
                    std::vector<Inserted> inserted);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
