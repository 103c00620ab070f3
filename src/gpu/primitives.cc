#include "gpu/primitives.h"

#include <array>
#include <cassert>
#include <utility>

namespace gts::gpu {

namespace {

template <typename Key>
void RadixSortImpl(std::span<Key> keys, std::span<uint32_t> payload) {
  constexpr int kDigits = sizeof(Key);
  const size_t n = keys.size();
  assert(payload.empty() || payload.size() == n);
  assert(n <= UINT32_MAX);
  if (n < 2) return;
  const auto digit = [](Key key, int shift) {
    return static_cast<uint32_t>(key >> shift) & 0xFFu;
  };
  // One read of the keys counts every digit.
  std::array<std::array<uint32_t, 256>, kDigits> counts{};
  for (const Key key : keys) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][digit(key, 8 * d)];
  }
  std::vector<Key> key_tmp;
  std::vector<uint32_t> payload_tmp;
  Key* src = keys.data();
  uint32_t* src_payload = payload.data();
  Key* dst = nullptr;
  uint32_t* dst_payload = nullptr;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    std::array<uint32_t, 256>& next = counts[d];
    if (next[digit(keys[0], shift)] == n) continue;  // every key agrees
    if (dst == nullptr) {
      key_tmp.resize(n);
      payload_tmp.resize(payload.size());
      dst = key_tmp.data();
      dst_payload = payload_tmp.data();
    }
    uint32_t running = 0;
    for (uint32_t& c : next) running += std::exchange(c, running);
    if (payload.empty()) {
      for (size_t i = 0; i < n; ++i) dst[next[digit(src[i], shift)]++] = src[i];
    } else {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t to = next[digit(src[i], shift)]++;
        dst[to] = src[i];
        dst_payload[to] = src_payload[i];
      }
    }
    std::swap(src, dst);
    std::swap(src_payload, dst_payload);
  }
  if (src != keys.data()) {
    std::copy_n(src, n, keys.data());
    std::copy_n(src_payload, payload.size(), payload.data());
  }
}

}  // namespace

void RadixSort(std::span<uint32_t> keys, std::span<uint32_t> payload) {
  RadixSortImpl(keys, payload);
}

void RadixSort(std::span<uint64_t> keys, std::span<uint32_t> payload) {
  RadixSortImpl(keys, payload);
}

void SortTableByKey(Device* device, std::span<uint64_t> keys,
                    std::span<uint32_t> objects, std::span<float> dis) {
  assert(keys.size() == objects.size() && keys.size() == dis.size());
  RadixSort(keys, objects);
  for (size_t i = 0; i < keys.size(); ++i) {
    dis[i] = std::bit_cast<float>(static_cast<uint32_t>(keys[i]));
  }
  device->clock().ChargeSort(keys.size());
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
