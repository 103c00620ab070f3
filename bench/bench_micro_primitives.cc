// Micro-benchmarks (google-benchmark, real wall time): device-simulator
// primitives — the encode-sort, scans and top-k selection used by the
// builder and both query paths.
#include <benchmark/benchmark.h>

#include <numeric>

#include "common/rng.h"
#include "gpu/primitives.h"

namespace gts::gpu {
namespace {

void BM_SortTableByKey(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> objects(n);
  std::vector<float> dis(n);
  for (size_t i = 0; i < n; ++i) {
    // Ten nodes per level, as at node capacity 10.
    keys[i] = TableKey(static_cast<uint32_t>(rng.UniformU64(10)),
                       rng.UniformFloat(0.0f, 1.0f));
    objects[i] = static_cast<uint32_t>(i);
  }
  Device dev;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> k2 = keys;
    std::vector<uint32_t> o2 = objects;
    state.ResumeTiming();
    SortTableByKey(&dev, k2, o2, dis);
    benchmark::DoNotOptimize(o2.data());
    benchmark::DoNotOptimize(dis.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SortTableByKey)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_ExclusiveScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> in(n, 3), out(n);
  Device dev;
  for (auto _ : state) {
    ExclusiveScan(&dev, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExclusiveScan)->Arg(1 << 12)->Arg(1 << 18);

void BM_SelectKSmallest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.UniformFloat(0.0f, 1.0f);
  Device dev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectKSmallest(&dev, v, 16));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SelectKSmallest)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace
}  // namespace gts::gpu
