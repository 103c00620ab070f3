// perfbench: the repository benchmark's binary. run.py builds and runs it;
// see BENCHMARK.json for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--tiny] [--corrupt-answer]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it untraced and then again on the same inputs
// with every benchmark-side call into a layer wrapped in a span, and
// reports the per-layer metrics, the tracing overhead (traced / untraced,
// per end-to-end metric) and the self-time summary. The last stdout line is
// one JSON object; the process exits 1 when any checked answer was wrong
// and 2 on bad arguments.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

// name, dataset, n, data seed (the bench harness's corpus seeds), r step,
// k, batch, Nc, shards, executor threads, nominal rate (1/s), pool batches,
// passes per second, setup reps, writes, checked queries. Pools and passes
// are sized so a --seconds 20 run measures 10-20 s on a 4-vCPU x86 VM.
constexpr WorkloadSpec kWorkloads[] = {
    {"tloc-batch", gts::DatasetId::kTLoc, 400000, 1235, 8, 8, 128, 10, 1, 1,
     0.0, 64, 0.1, 5, 2000, 48},
    {"words-batch", gts::DatasetId::kWords, 8000, 1234, 8, 8, 128, 10, 1, 1,
     0.0, 48, 0.05, 41, 2000, 48},
    {"tloc-serve", gts::DatasetId::kTLoc, 20000, 1235, 8, 8, 128, 10, 2, 2,
     1500.0, 16, 0.0, 25, 0, 48},
};

// The same shapes at self-test size.
constexpr WorkloadSpec kTinyWorkloads[] = {
    {"tloc-batch", gts::DatasetId::kTLoc, 20000, 1235, 8, 8, 128, 10, 1, 1,
     0.0, 2, 2.0, 2, 1600, 8},
    {"words-batch", gts::DatasetId::kWords, 2000, 1234, 8, 8, 128, 10, 1, 1,
     0.0, 2, 2.0, 2, 1600, 8},
    {"tloc-serve", gts::DatasetId::kTLoc, 4000, 1235, 8, 8, 128, 10, 2, 2,
     1000.0, 4, 0.0, 2, 0, 8},
};

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--tiny] [--corrupt-answer]\n");
  return 2;
}

// `tiny` picks the self-test sizes.
const WorkloadSpec* FindWorkload(const std::string& name, bool tiny) {
  for (const WorkloadSpec& w : tiny ? kTinyWorkloads : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string workload, trace_out;
  bool tiny = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--corrupt-answer") {
      opt.corrupt_answer = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage();
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  opt.spec = FindWorkload(workload, tiny);
  if (opt.spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  const auto run = opt.spec->nominal_rate > 0.0 ? RunServeWorkload
                                                : RunBatchWorkload;

  Tracer off(false);
  const RunResult plain = run(opt, &off);
  RunResult result = plain;
  std::vector<Metric> metrics = plain.e2e;
  if (opt.trace) {
    Tracer on(true);
    const RunResult traced = run(opt, &on);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    result.mismatches += traced.mismatches;
    metrics = traced.layer;
    // Tracing's cost per end-to-end metric, > 1 when the traced run read
    // worse: rates (1/s) are better higher, everything else lower.
    for (const Metric& m : plain.e2e) {
      for (const Metric& t : traced.e2e) {
        if (t.name != m.name || m.value == 0.0 || t.value == 0.0) continue;
        metrics.push_back({"bench.trace_overhead." + m.name,
                           m.unit == "1/s" ? m.value / t.value
                                           : t.value / m.value,
                           "1"});
      }
    }
    const std::map<std::string, double> self = on.LayerSelfSeconds();
    double total = 0.0;
    for (const auto& [layer, s] : self) total += s;
    for (const char* layer : {"bench", "core", "metric", "serve"}) {
      const auto it = self.find(layer);
      const double s = it == self.end() ? 0.0 : it->second;
      metrics.push_back({std::string("self.") + layer + ".share",
                         total == 0.0 ? 0.0 : s / total, "1"});
      std::printf("self time %-7s %10.4f s  %6.2f%%\n", layer, s,
                  total == 0.0 ? 0.0 : 100.0 * s / total);
    }
    const double closure = on.ClosureError();
    std::printf("closure: layers' self times vs measured phase time differ "
                "by %.4f%% (tolerance 1%%)\n", closure * 100.0);
    metrics.push_back({"bench.closure_err", closure, "1"});
    metrics.push_back({"bench.failed_frac",
                       result.attempted == 0
                           ? 0.0
                           : static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted),
                       "1"});
    // The traced pass must have run exactly the untraced pass's inputs.
    if (traced.inputs_fingerprint != plain.inputs_fingerprint) {
      std::fprintf(stderr, "traced run saw different inputs\n");
      ++result.mismatches;
    }
    if (!trace_out.empty() && !on.Dump(trace_out)) {
      std::fprintf(stderr, "cannot write span dump %s\n", trace_out.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("inputs fingerprint %016" PRIx64 "; %" PRIu64 " attempted, %" PRIu64
              " failed, %" PRIu64 " wrong answers\n",
              plain.inputs_fingerprint, result.attempted, result.failed,
              result.mismatches);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"inputs\": \"%016" PRIx64 "\", \"metrics\": {",
              result.mismatches == 0 ? "true" : "false", result.attempted,
              result.failed, plain.inputs_fingerprint);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    PrintJsonNumber(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.mismatches == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
