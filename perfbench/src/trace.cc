#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
std::atomic<uint64_t> g_next_generation{1};
// The calling thread's buffer in the tracer of this generation.
thread_local uint64_t tl_generation = 0;
thread_local void* tl_log = nullptr;

std::string LayerOf(const char* name) {
  const std::string_view s(name);
  return std::string(s.substr(0, s.find('.')));
}
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      generation_(g_next_generation.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadLog* Tracer::Log() {
  if (tl_generation != generation_) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(1 << 16);
    tl_log = log.get();
    tl_generation = generation_;
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::move(log));
  }
  return static_cast<ThreadLog*>(tl_log);
}

void Tracer::Counter(const std::string& phase, const std::string& name,
                     double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({phase, name, value});
}

void Tracer::Measured(const std::string& root, double seconds) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  measured_[root] += seconds;
}

namespace {
// Index of each span's root in the same thread's buffer. A parent is
// always recorded before its children.
std::vector<size_t> Roots(const std::vector<Span>& spans) {
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0 ? i : root[spans[i].parent];
  }
  return root;
}
}  // namespace

std::vector<double> Tracer::DurationsMs(std::string_view name,
                                        std::string_view root) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans;
    const std::vector<size_t> roots = Roots(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (name != spans[i].name) continue;
      if (!root.empty() && root != spans[roots[i]].name) continue;
      out.push_back((spans[i].end_ns - spans[i].start_ns) * 1e-6);
    }
  }
  return out;
}

namespace {
// Self time of each span of one thread: its duration minus its children's.
// Children of one parent run one after another on the same thread, so
// their durations never overlap.
std::vector<int64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}
}  // namespace

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    const std::vector<int64_t> self = SelfNs(log->spans);
    for (size_t i = 0; i < self.size(); ++i) {
      out[LayerOf(log->spans[i].name)] += self[i] * 1e-9;
    }
  }
  return out;
}

double Tracer::ClosureError() const {
  std::map<std::string, double> summed;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans;
    const std::vector<int64_t> self = SelfNs(spans);
    const std::vector<size_t> roots = Roots(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      summed[spans[roots[i]].name] += self[i] * 1e-9;
    }
  }
  double worst = 0.0;
  for (const auto& [name, seconds] : measured_) {
    if (seconds <= 0.0) continue;
    worst = std::max(worst, std::abs(summed[name] - seconds) / seconds);
  }
  return worst;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "# span thread index parent name req start_ns end_ns\n");
  std::fprintf(f, "# counter phase name value\n");
  for (size_t t = 0; t < logs_.size(); ++t) {
    const std::vector<Span>& spans = logs_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "span %zu %zu %lld %s %llu %lld %lld\n", t, i,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  for (const CounterRow& c : counters_) {
    std::fprintf(f, "counter %s %s %.17g\n", c.phase.c_str(), c.name.c_str(),
                 c.value);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t req) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  log_ = tracer->Log();
  const int64_t parent = log_->open.empty() ? -1 : log_->open.back();
  index_ = static_cast<int64_t>(log_->spans.size());
  log_->spans.push_back({name, tracer->NowNs(), 0, parent, req});
  log_->open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  log_->spans[index_].end_ns = tracer_->NowNs();
  log_->open.pop_back();
}

}  // namespace perfbench
