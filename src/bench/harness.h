// Shared benchmark harness: per-dataset environments with scaled memory
// budgets, measurement helpers reading the simulated clocks, and row
// printers producing the paper's tables/series.
//
// Budgets (docs/ARCHITECTURE.md, "Scale and calibration"): every experiment
// models the paper's testbed — an 11 GB RTX 2080 Ti and 128 GB host —
// scaled by the ratio between our synthetic cardinality and the paper's
// dataset cardinality, so the OOM / memory-deadlock episodes of Table 4 and
// Figs. 9/11 reproduce at scale.
// Set GTS_BENCH_SCALE (e.g. 2.0) to grow workloads and budgets together.
#ifndef GTS_BENCH_HARNESS_H_
#define GTS_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/baseline.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gpu/device.h"

namespace gts::bench {

/// One dataset's experiment environment.
struct BenchEnv {
  DatasetId id = DatasetId::kWords;
  const DatasetSpec* spec = nullptr;
  Dataset data = Dataset::Strings();
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  uint64_t host_budget = 0;

  MethodContext Context() const {
    return MethodContext{device.get(), host_budget, /*seed=*/42};
  }
};

/// GTS_BENCH_SCALE (default 1.0).
double EnvScale();

uint64_t DeviceBudgetBytes(const DatasetSpec& spec, double scale);
uint64_t HostBudgetBytes(const DatasetSpec& spec, double scale);

/// Builds the environment for a dataset; `n_override` (if nonzero) replaces
/// the scaled default cardinality (budgets stay at the default scale, as on
/// a fixed card — used by the Fig. 11 cardinality sweep).
BenchEnv MakeEnv(DatasetId id, uint32_t n_override = 0);

/// Simulated radius for a paper radius step (r = step ×0.01% selectivity).
float RadiusForStep(const BenchEnv& env, int step);

struct Measurement {
  Status status = Status::Ok();
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// `config` labels the swept benchmark parameter (e.g. "Nc=20", "r=4",
/// "k=16"); it is appended to the recorded series name so sweep points stay
/// separate records in the BENCH_*.json output.
Measurement MeasureBuild(SimilarityIndex* method, const BenchEnv& env,
                         std::string_view config = {});
Measurement MeasureRange(SimilarityIndex* method, const BenchEnv& env,
                         const Dataset& queries, std::span<const float> radii,
                         std::string_view config = {});
Measurement MeasureKnn(SimilarityIndex* method, const BenchEnv& env,
                       const Dataset& queries, uint32_t k,
                       std::string_view config = {});

/// queries/min from a batch's simulated seconds.
double ThroughputPerMin(uint32_t batch, double sim_seconds);

/// Nearest-rank percentile (ceil(q·n), the convention every recorded
/// series uses) of an UNSORTED sample; 0.0 for an empty one. The one
/// shared implementation — bench binaries must not grow private copies,
/// or the checked-in series silently mix rank conventions.
double PercentileOf(std::vector<double> samples, double q);

/// "x.xxe+yy" or the paper's failure markers: "/" (unsupported / OOM at
/// build), "DEADLOCK", "OOM".
std::string FormatThroughput(double v);
std::string FormatFailure(const Status& status);

// ---------------------------------------------------------------------------
// Machine-readable benchmark output (BENCH_*.json).
//
// Every bench binary accepts `--json <path>` (or bare `--json`, defaulting
// to BENCH_<bench>.json). The Measure* helpers record each successful
// measurement into the process-global BenchReporter; on exit the JsonOutput
// guard aggregates the samples into BenchResult records — one per
// (name, dataset) series — and writes
//   {"bench": ..., "schema": "gts-bench-v1", "results": [...]}.
// ---------------------------------------------------------------------------

/// One aggregated benchmark series. All fields are required in the JSON
/// encoding; `BenchResultFromJson` rejects records missing any of them.
struct BenchResult {
  std::string name;            ///< "<method>/<operation>" or micro-bench name
  std::string dataset;         ///< dataset label ("-" for dataset-free series)
  uint64_t samples = 0;        ///< number of recorded measurements
  double p50_latency_ms = 0.0; ///< median per-item latency (simulated ms)
  double p95_latency_ms = 0.0; ///< 95th-percentile per-item latency
  double throughput_per_min = 0.0;  ///< items per simulated minute

  bool operator==(const BenchResult&) const = default;
};

/// Canonical series name for harness-recorded measurements:
/// "<method>/<op>", plus "@<config>" when a swept parameter label is given.
/// All Measure*/AddSample recordings of paper-figure benches use this
/// scheme; the google-benchmark micro benches keep their native
/// "BM_name/arg" names, so diff tooling should key on the whole string.
std::string SeriesName(std::string_view method, std::string_view op,
                       std::string_view config = {});

/// Serializes one result as a single JSON object.
std::string ToJson(const BenchResult& r);

/// Parses a JSON object produced by ToJson. Returns kInvalidArgument on
/// malformed input or when any required field is absent.
Result<BenchResult> BenchResultFromJson(std::string_view json);

/// Collects measurement samples and aggregates them into BenchResults.
class BenchReporter {
 public:
  /// Records one measurement of `items` work items taking `sim_seconds`
  /// total; the per-item latency becomes one p50/p95 sample.
  void AddSample(std::string_view name, std::string_view dataset,
                 double sim_seconds, uint64_t items);
  /// Adds an already-aggregated result, bypassing sample aggregation — for
  /// callers whose statistics are computed elsewhere.
  void AddResult(BenchResult result);

  /// Aggregated results in first-recorded order.
  std::vector<BenchResult> Results() const;

  /// Writes {"bench": bench, "schema": ..., "results": [...]} to `path`.
  Status WriteJson(const std::string& path, std::string_view bench) const;

  void Clear();

 private:
  struct Series {
    std::string name;
    std::string dataset;
    std::vector<double> latencies_ms;  // per-item, one per AddSample call
    uint64_t items = 0;
    double sim_seconds = 0.0;
  };
  Series& FindOrAddSeries(std::string_view name, std::string_view dataset);

  std::vector<Series> series_;
  std::vector<BenchResult> preaggregated_;
};

/// The process-global reporter the Measure* helpers record into.
BenchReporter& GlobalReporter();

/// RAII guard for a bench main(): strips `--json [path]` from argc/argv and
/// writes the global reporter's BENCH_*.json on destruction when requested.
/// Exits with status 2 up front when the requested path is unwritable, or —
/// unless `allow_extra_args` is set (for binaries with their own flag
/// parser, like the google-benchmark micro benches) — when unrecognized
/// arguments remain after stripping.
class JsonOutput {
 public:
  JsonOutput(int* argc, char** argv, std::string bench_name,
             bool allow_extra_args = false);
  ~JsonOutput();
  JsonOutput(const JsonOutput&) = delete;
  JsonOutput& operator=(const JsonOutput&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string bench_name_;
  std::string path_;
};

/// The evaluation's method list in the paper's legend order.
const std::vector<MethodId>& AllMethods();
/// Methods shown in the update experiments (Fig. 5 legend).
const std::vector<MethodId>& UpdateMethods();

void PrintRule(char c = '-', int width = 96);

}  // namespace gts::bench

#endif  // GTS_BENCH_HARNESS_H_
