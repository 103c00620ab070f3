#include "common.h"

#include <sys/resource.h>

#include <algorithm>

#include "baselines/brute_force.h"
#include "bench/harness.h"
#include "common/rng.h"
#include "data/workload.h"

namespace perfbench {

using gts::Dataset;

IndexEnv MakeIndexEnv(gts::DatasetId id, uint32_t n) {
  const gts::DatasetSpec& spec = gts::GetDatasetSpec(id);
  const double scale = static_cast<double>(n) / spec.default_cardinality;
  const double ratio =
      static_cast<double>(n) / static_cast<double>(spec.paper_cardinality);
  gts::gpu::DeviceOptions options;
  options.memory_bytes = gts::bench::DeviceBudgetBytes(spec, scale);
  options.launch_overhead_ns =
      std::max(1.0, gts::gpu::kGpuLaunchOverheadNs * ratio);
  IndexEnv env;
  env.metric = gts::MakeDatasetMetric(id);
  env.device = std::make_unique<gts::gpu::Device>(options);
  return env;
}

gts::GtsOptions IndexOptions(const WorkloadSpec& spec) {
  gts::GtsOptions options;
  options.node_capacity = spec.node_capacity;
  return options;
}

Corpus MakeCorpus(const WorkloadSpec& spec, uint32_t fresh) {
  const Dataset all =
      gts::GenerateDataset(spec.dataset, spec.n + fresh, spec.data_seed);
  std::vector<uint32_t> head(spec.n), tail(fresh);
  for (uint32_t i = 0; i < spec.n; ++i) head[i] = i;
  for (uint32_t i = 0; i < fresh; ++i) tail[i] = spec.n + i;
  Corpus c;
  c.data = all.Slice(head);
  c.fresh = all.Slice(tail);
  // Same calibration as bench::RadiusForStep: fixed sample, fixed seed.
  const auto metric = gts::MakeDatasetMetric(spec.dataset);
  c.radius = gts::CalibrateRadius(c.data, *metric, spec.radius_step * 1e-4,
                                  /*samples=*/200, /*seed=*/7);
  return c;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Fingerprint::Bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Objects(const gts::Dataset& d) {
  Pod(d.size());
  for (uint32_t i = 0; i < d.size(); ++i) {
    if (d.kind() == gts::DataKind::kFloatVector) {
      const auto v = d.Vector(i);
      Bytes(v.data(), v.size_bytes());
    } else {
      const auto s = d.String(i);
      Pod(s.size());
      Bytes(s.data(), s.size());
    }
  }
}

Reference::Reference(gts::DatasetId id, const Dataset* objects,
                     std::vector<uint32_t> ids)
    : metric_(gts::MakeDatasetMetric(id)),
      objects_(objects),
      ids_(std::move(ids)) {}

std::vector<uint32_t> Reference::Range(const Dataset& queries, uint32_t q,
                                       float radius) {
  gts::BruteForce bf{gts::MethodContext{}};
  std::vector<uint32_t> out;
  if (!bf.Build(objects_, metric_.get()).ok()) return out;
  const uint32_t one[] = {q};
  const float radii[] = {radius};
  auto res = bf.RangeBatch(queries.Slice(one), radii);
  if (!res.ok()) return out;
  for (const uint32_t pos : res.value()[0]) out.push_back(ids_[pos]);
  return out;
}

std::vector<gts::Neighbor> Reference::Knn(const Dataset& queries, uint32_t q,
                                          uint32_t k) {
  gts::BruteForce bf{gts::MethodContext{}};
  std::vector<gts::Neighbor> out;
  if (!bf.Build(objects_, metric_.get()).ok()) return out;
  const uint32_t one[] = {q};
  auto res = bf.KnnBatch(queries.Slice(one), k);
  if (!res.ok()) return out;
  for (const gts::Neighbor& nb : res.value()[0]) {
    out.push_back({ids_[nb.id], nb.dist});
  }
  return out;
}

bool SameRange(std::vector<uint32_t> got, std::vector<uint32_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

bool SameKnn(const std::vector<gts::Neighbor>& got,
             const std::vector<gts::Neighbor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].dist != want[i].dist) return false;
  }
  return true;
}

std::vector<uint32_t> SampleIndices(uint32_t n, uint32_t count, uint64_t seed) {
  std::vector<uint32_t> all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  gts::Rng rng(seed);
  count = std::min(count, n);
  for (uint32_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.UniformU64(n - i)]);
  }
  all.resize(count);
  return all;
}

AliveSet BuildAlive(const Corpus& corpus, std::vector<uint32_t> removed,
                    std::vector<Inserted> inserted) {
  std::sort(removed.begin(), removed.end());
  std::sort(inserted.begin(), inserted.end(),
            [](const Inserted& a, const Inserted& b) { return a.id < b.id; });
  AliveSet alive;
  alive.objects = corpus.data.kind() == gts::DataKind::kFloatVector
                      ? Dataset::FloatVectors(corpus.data.dim())
                      : Dataset::Strings();
  for (uint32_t id = 0; id < corpus.data.size(); ++id) {
    if (std::binary_search(removed.begin(), removed.end(), id)) continue;
    alive.objects.AppendFrom(corpus.data, id);
    alive.ids.push_back(id);
  }
  for (const Inserted& ins : inserted) {
    alive.objects.AppendFrom(corpus.fresh, ins.fresh);
    alive.ids.push_back(ins.id);
  }
  return alive;
}

}  // namespace perfbench
