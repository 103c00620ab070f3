#include "bench/harness.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/env.h"
#include "common/timer.h"

namespace gts::bench {

namespace {
// Paper testbed: 11 GB device, 128 GB host. The host base is reduced to
// 1.2 GB-equivalent so the scaled budgets reproduce EGNAT's construction
// OOM on T-Loc (Table 4) — calibration documented in docs/ARCHITECTURE.md,
// "Scale and calibration".
constexpr double kDeviceBaseBytes = 11e9;
constexpr double kHostBaseBytes = 1.2e9;
}  // namespace

double EnvScale() { return GetEnvDouble("GTS_BENCH_SCALE", 1.0); }

uint64_t DeviceBudgetBytes(const DatasetSpec& spec, double scale) {
  const double ratio = static_cast<double>(spec.default_cardinality) * scale /
                       static_cast<double>(spec.paper_cardinality);
  return static_cast<uint64_t>(kDeviceBaseBytes * ratio);
}

uint64_t HostBudgetBytes(const DatasetSpec& spec, double scale) {
  const double ratio = static_cast<double>(spec.default_cardinality) * scale /
                       static_cast<double>(spec.paper_cardinality);
  return static_cast<uint64_t>(kHostBaseBytes * ratio);
}

BenchEnv MakeEnv(DatasetId id, uint32_t n_override) {
  const double scale = EnvScale();
  BenchEnv env;
  env.id = id;
  env.spec = &GetDatasetSpec(id);
  const uint32_t n =
      n_override != 0
          ? n_override
          : static_cast<uint32_t>(env.spec->default_cardinality * scale);
  env.data = GenerateDataset(id, n, /*seed=*/1234 + static_cast<int>(id));
  env.metric = MakeDatasetMetric(id);
  gpu::DeviceOptions options;
  options.memory_bytes = DeviceBudgetBytes(*env.spec, scale);
  // Fixed per-kernel costs must shrink with the workload: at 1/ρ of the
  // paper's cardinality, an unscaled launch overhead would dominate every
  // kernel and erase the variable-cost structure the figures measure.
  const double ratio = static_cast<double>(env.spec->default_cardinality) *
                       scale / static_cast<double>(env.spec->paper_cardinality);
  options.launch_overhead_ns =
      std::max(1.0, gpu::kGpuLaunchOverheadNs * ratio);
  env.device = std::make_unique<gpu::Device>(options);
  env.host_budget = HostBudgetBytes(*env.spec, scale);
  return env;
}

float RadiusForStep(const BenchEnv& env, int step) {
  return CalibrateRadius(env.data, *env.metric, step * 1e-4,
                         /*samples=*/200, /*seed=*/7);
}

std::string SeriesName(std::string_view method, std::string_view op,
                       std::string_view config) {
  std::string name = std::string(method) + "/";
  name += op;
  if (!config.empty()) {
    name += "@";
    name += config;
  }
  return name;
}

Measurement MeasureBuild(SimilarityIndex* method, const BenchEnv& env,
                         std::string_view config) {
  Measurement m;
  WallTimer timer;
  method->ResetClocks();
  m.status = method->Build(&env.data, env.metric.get());
  m.sim_seconds = method->SimSeconds();
  m.wall_seconds = timer.ElapsedSeconds();
  if (m.status.ok()) {
    GlobalReporter().AddSample(SeriesName(method->Name(), "build", config),
                               env.spec->name, m.sim_seconds, 1);
  }
  return m;
}

Measurement MeasureRange(SimilarityIndex* method, const BenchEnv& env,
                         const Dataset& queries, std::span<const float> radii,
                         std::string_view config) {
  Measurement m;
  WallTimer timer;
  method->ResetClocks();
  auto res = method->RangeBatch(queries, radii);
  m.status = res.status();
  m.sim_seconds = method->SimSeconds();
  m.wall_seconds = timer.ElapsedSeconds();
  if (m.status.ok()) {
    GlobalReporter().AddSample(SeriesName(method->Name(), "mrq", config),
                               env.spec->name, m.sim_seconds, queries.size());
  }
  return m;
}

Measurement MeasureKnn(SimilarityIndex* method, const BenchEnv& env,
                       const Dataset& queries, uint32_t k,
                       std::string_view config) {
  Measurement m;
  WallTimer timer;
  method->ResetClocks();
  auto res = method->KnnBatch(queries, k);
  m.status = res.status();
  m.sim_seconds = method->SimSeconds();
  m.wall_seconds = timer.ElapsedSeconds();
  if (m.status.ok()) {
    GlobalReporter().AddSample(SeriesName(method->Name(), "knn", config),
                               env.spec->name, m.sim_seconds, queries.size());
  }
  return m;
}

double ThroughputPerMin(uint32_t batch, double sim_seconds) {
  if (sim_seconds <= 0.0) return 0.0;
  return static_cast<double>(batch) / sim_seconds * 60.0;
}

double PercentileOf(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string FormatThroughput(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

std::string FormatFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kMemoryLimit: return "OOM";
    case StatusCode::kDeadlock: return "DEADLOCK";
    case StatusCode::kUnsupported: return "/";
    default: return std::string("ERR(") + StatusCodeName(status.code()) + ")";
  }
}

const std::vector<MethodId>& AllMethods() {
  static const std::vector<MethodId> kMethods = {
      MethodId::kBst,      MethodId::kEgnat,   MethodId::kMvpt,
      MethodId::kGpuTable, MethodId::kGpuTree, MethodId::kLbpgTree,
      MethodId::kGanns,    MethodId::kGts};
  return kMethods;
}

const std::vector<MethodId>& UpdateMethods() {
  static const std::vector<MethodId> kMethods = {
      MethodId::kBst,      MethodId::kEgnat,    MethodId::kMvpt,
      MethodId::kGpuTree,  MethodId::kLbpgTree, MethodId::kGanns,
      MethodId::kGts};
  return kMethods;
}

void PrintRule(char c, int width) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

// ---------------------------------------------------------------------------
// BENCH_*.json output
// ---------------------------------------------------------------------------

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string FormatJsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // JSON has no inf/nan literals; clamp to null-free sentinel 0.
  if (!std::isfinite(v)) return "0";
  return buf;
}

// Minimal parser for the flat JSON objects ToJson emits: string and number
// values only, no nesting. Enough to round-trip and validate BENCH records
// without a JSON dependency.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view in) : in_(in) {}

  // Parses `{"key": value, ...}`; returns false on malformed input.
  bool ParseObject(std::vector<std::pair<std::string, std::string>>* strings,
                   std::vector<std::pair<std::string, double>>* numbers) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return Done();
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (pos_ < in_.size() && in_[pos_] == '"') {
        std::string value;
        if (!ParseString(&value)) return false;
        strings->emplace_back(std::move(key), std::move(value));
      } else {
        double value = 0.0;
        if (!ParseNumber(&value)) return false;
        numbers->emplace_back(std::move(key), value);
      }
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Done();
      return false;
    }
  }

 private:
  void SkipWs() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Done() {
    SkipWs();
    return pos_ == in_.size();
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      const char esc = in_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          if (code > 0xFF) return false;  // ASCII emitter never exceeds this
          out->push_back(static_cast<char>(code));
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool ParseNumber(double* out) {
    // Copy the bounded number token before strtod: the string_view need not
    // be NUL-terminated, so strtod on in_.data() could scan past the view.
    size_t end = pos_;
    while (end < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[end])) ||
            in_[end] == '+' || in_[end] == '-' || in_[end] == '.' ||
            in_[end] == 'e' || in_[end] == 'E')) {
      ++end;
    }
    const std::string token(in_.substr(pos_, end - pos_));
    char* parsed_end = nullptr;
    *out = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size() || token.empty()) {
      return false;
    }
    pos_ = end;
    return true;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank: the smallest value with at least q of the mass below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

std::string ToJson(const BenchResult& r) {
  std::string out = "{\"name\": ";
  AppendJsonString(&out, r.name);
  out += ", \"dataset\": ";
  AppendJsonString(&out, r.dataset);
  out += ", \"samples\": " + std::to_string(r.samples);
  out += ", \"p50_latency_ms\": " + FormatJsonDouble(r.p50_latency_ms);
  out += ", \"p95_latency_ms\": " + FormatJsonDouble(r.p95_latency_ms);
  out += ", \"throughput_per_min\": " + FormatJsonDouble(r.throughput_per_min);
  out += "}";
  return out;
}

Result<BenchResult> BenchResultFromJson(std::string_view json) {
  std::vector<std::pair<std::string, std::string>> strings;
  std::vector<std::pair<std::string, double>> numbers;
  FlatJsonParser parser(json);
  if (!parser.ParseObject(&strings, &numbers)) {
    return Status::InvalidArgument("malformed BenchResult JSON");
  }
  BenchResult r;
  bool have_name = false, have_dataset = false;
  for (auto& [key, value] : strings) {
    if (key == "name") { r.name = std::move(value); have_name = true; }
    else if (key == "dataset") { r.dataset = std::move(value); have_dataset = true; }
  }
  bool have_samples = false, have_p50 = false, have_p95 = false,
       have_tput = false;
  for (const auto& [key, value] : numbers) {
    if (key == "samples") {
      // Validate before the cast: double -> uint64_t is UB out of range.
      if (value < 0.0 || value > 9.007199254740992e15) {
        return Status::InvalidArgument("BenchResult samples out of range");
      }
      r.samples = static_cast<uint64_t>(value);
      have_samples = true;
    }
    else if (key == "p50_latency_ms") { r.p50_latency_ms = value; have_p50 = true; }
    else if (key == "p95_latency_ms") { r.p95_latency_ms = value; have_p95 = true; }
    else if (key == "throughput_per_min") { r.throughput_per_min = value; have_tput = true; }
  }
  if (!have_name || !have_dataset || !have_samples || !have_p50 || !have_p95 ||
      !have_tput) {
    return Status::InvalidArgument("BenchResult JSON missing required field");
  }
  return r;
}

void BenchReporter::AddSample(std::string_view name, std::string_view dataset,
                              double sim_seconds, uint64_t items) {
  if (items == 0) return;
  Series& s = FindOrAddSeries(name, dataset);
  s.latencies_ms.push_back(sim_seconds / static_cast<double>(items) * 1e3);
  s.items += items;
  s.sim_seconds += sim_seconds;
}

void BenchReporter::AddResult(BenchResult result) {
  preaggregated_.push_back(std::move(result));
}

BenchReporter::Series& BenchReporter::FindOrAddSeries(
    std::string_view name, std::string_view dataset) {
  for (Series& s : series_) {
    if (s.name == name && s.dataset == dataset) return s;
  }
  Series s;
  s.name = std::string(name);
  s.dataset = std::string(dataset);
  series_.push_back(std::move(s));
  return series_.back();
}

std::vector<BenchResult> BenchReporter::Results() const {
  std::vector<BenchResult> out;
  out.reserve(series_.size() + preaggregated_.size());
  for (const Series& s : series_) {
    BenchResult r;
    r.name = s.name;
    r.dataset = s.dataset;
    r.samples = s.latencies_ms.size();
    std::vector<double> sorted = s.latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    r.p50_latency_ms = Percentile(sorted, 0.50);
    r.p95_latency_ms = Percentile(sorted, 0.95);
    r.throughput_per_min =
        s.sim_seconds > 0.0
            ? static_cast<double>(s.items) / s.sim_seconds * 60.0
            : 0.0;
    out.push_back(std::move(r));
  }
  out.insert(out.end(), preaggregated_.begin(), preaggregated_.end());
  return out;
}

Status BenchReporter::WriteJson(const std::string& path,
                                std::string_view bench) const {
  std::string doc = "{\"bench\": ";
  AppendJsonString(&doc, bench);
  doc += ", \"schema\": \"gts-bench-v1\", \"results\": [\n";
  const std::vector<BenchResult> results = Results();
  for (size_t i = 0; i < results.size(); ++i) {
    doc += "  " + ToJson(results[i]);
    if (i + 1 < results.size()) doc += ",";
    doc += "\n";
  }
  doc += "]}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  out << doc;
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

void BenchReporter::Clear() {
  series_.clear();
  preaggregated_.clear();
}

BenchReporter& GlobalReporter() {
  static BenchReporter* reporter = new BenchReporter();
  return *reporter;
}

JsonOutput::JsonOutput(int* argc, char** argv, std::string bench_name,
                       bool allow_extra_args)
    : bench_name_(std::move(bench_name)) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 < *argc && argv[i + 1][0] != '-') {
        path_ = argv[++i];
      }
      // Bare `--json` and `--json ""` both fall back to the default name.
      if (path_.empty()) path_ = "BENCH_" + bench_name_ + ".json";
    } else if (arg.rfind("--json=", 0) == 0) {
      path_ = std::string(arg.substr(std::strlen("--json=")));
      if (path_.empty()) path_ = "BENCH_" + bench_name_ + ".json";
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;
  if (!allow_extra_args && *argc > 1) {
    std::fprintf(stderr, "unrecognized argument: %s (supported: --json [path])\n",
                 argv[1]);
    std::exit(2);
  }
  if (!path_.empty()) {
    // Fail fast on an unwritable path: the report is only written at exit,
    // when a bad path could no longer change the exit code.
    std::ofstream probe(path_, std::ios::binary | std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "BENCH json: cannot open %s for writing\n",
                   path_.c_str());
      std::exit(2);
    }
  }
}

JsonOutput::~JsonOutput() {
  if (path_.empty()) return;
  const Status s = GlobalReporter().WriteJson(path_, bench_name_);
  if (s.ok()) {
    std::fprintf(stderr, "BENCH json written to %s\n", path_.c_str());
  } else {
    std::fprintf(stderr, "BENCH json write failed: %s\n",
                 s.ToString().c_str());
  }
}

}  // namespace gts::bench
