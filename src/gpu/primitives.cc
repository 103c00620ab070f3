#include "gpu/primitives.h"

#include <cassert>

namespace gts::gpu {

void SortTableByKey(Device* device, std::span<double> keys,
                    std::span<uint32_t> objects, std::span<float> dis) {
  assert(keys.size() == objects.size() && keys.size() == dis.size());
  const size_t n = keys.size();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  std::vector<double> keys_out(n);
  std::vector<uint32_t> objects_out(n);
  std::vector<float> dis_out(n);
  for (size_t i = 0; i < n; ++i) {
    keys_out[i] = keys[perm[i]];
    objects_out[i] = objects[perm[i]];
    dis_out[i] = dis[perm[i]];
  }
  std::copy(keys_out.begin(), keys_out.end(), keys.begin());
  std::copy(objects_out.begin(), objects_out.end(), objects.begin());
  std::copy(dis_out.begin(), dis_out.end(), dis.begin());
  device->clock().ChargeSort(n);
}

float ReduceMax(Device* device, std::span<const float> values) {
  float best = 0.0f;
  for (const float v : values) best = std::max(best, v);
  device->clock().ChargeScan(values.size());
  return best;
}

void ExclusiveScan(Device* device, std::span<const uint32_t> in,
                   std::span<uint32_t> out) {
  assert(in.size() == out.size());
  uint32_t running = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = running;
    running += in[i];
  }
  device->clock().ChargeScan(in.size());
}

std::vector<uint32_t> SelectKSmallest(Device* device,
                                      std::span<const float> values,
                                      uint32_t k) {
  const size_t n = values.size();
  if (k == 0 || n == 0) return {};
  std::vector<uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  const size_t kk = std::min<size_t>(k, n);
  std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (values[a] != values[b]) return values[a] < values[b];
                      return a < b;
                    });
  idx.resize(kk);
  // Charged as the delegate-centric two-phase selection: a full pass to
  // produce per-lane candidates, then a merge of lanes*k candidates.
  device->clock().ChargeScan(n);
  device->clock().ChargeSort(
      std::min<uint64_t>(n, uint64_t{device->lanes()} * k));
  return idx;
}

}  // namespace gts::gpu
