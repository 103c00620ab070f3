// Shared main() for the google-benchmark micro benches. Adds the harness's
// `--json <path>` flag on top of the standard benchmark flags: every
// completed run is mirrored into the global BenchReporter so the binary
// emits the same BENCH_*.json schema as the figure/table reproductions.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace {

// benchmark <= 1.7 reports failures via Run::error_occurred; 1.8 replaced
// it with the Run::skipped enum (NotSkipped == 0). Resolve whichever member
// exists: the int overload is preferred, and SFINAE drops it when
// error_occurred is gone.
template <typename R>
auto RunFailed(const R& run, int) -> decltype(bool(run.error_occurred)) {
  return run.error_occurred;
}
template <typename R>
auto RunFailed(const R& run, long) -> decltype(bool(run.skipped)) {
  return bool(run.skipped);
}

// Mirrors each run into the harness reporter, then hands it to the
// display reporter the standard flags select (--benchmark_format,
// --benchmark_color, ...), which the library owns.
class RecordingReporter : public benchmark::BenchmarkReporter {
 public:
  RecordingReporter()
      : display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Aggregate rows (--benchmark_repetitions means/stddev/cv) are not
      // per-iteration latencies; record only the real iteration runs.
      if (run.run_type == Run::RT_Aggregate) continue;
      if (RunFailed(run, 0) || run.iterations == 0) continue;
      // One sample per run: repetitions of the same benchmark merge into a
      // single series whose p50/p95 are real percentiles across runs
      // (a single run degenerates to its mean per-iteration time).
      gts::bench::GlobalReporter().AddSample(
          run.benchmark_name(), "-", run.real_accumulated_time,
          static_cast<uint64_t>(run.iterations));
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

 private:
  benchmark::BenchmarkReporter* display_;
};

std::string BenchNameFromArgv0(const char* argv0) {
  std::string name = argv0;
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(std::strlen("bench_"));
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  gts::bench::JsonOutput json(&argc, argv, BenchNameFromArgv0(argv[0]),
                              /*allow_extra_args=*/true);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  return 0;
}
