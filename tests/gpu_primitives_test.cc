#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "gpu/primitives.h"

namespace gts::gpu {
namespace {

Device MakeDevice() { return Device(DeviceOptions{}); }

// The reference every RadixSort test compares against: std::stable_sort
// of (key, payload) pairs by key alone.
template <typename Key>
void ExpectMatchesStableSort(std::vector<Key> keys) {
  std::vector<uint32_t> payload(keys.size());
  std::iota(payload.begin(), payload.end(), 0u);
  std::vector<std::pair<Key, uint32_t>> expect;
  for (size_t i = 0; i < keys.size(); ++i) expect.emplace_back(keys[i], i);
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<Key> keys_only = keys;
  RadixSort(std::span<Key>(keys), payload);
  RadixSort(std::span<Key>(keys_only));
  ASSERT_EQ(keys.size(), expect.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], expect[i].first) << "slot " << i;
    EXPECT_EQ(payload[i], expect[i].second) << "slot " << i;
  }
  EXPECT_EQ(keys_only, keys);
}

TEST(RadixSortTest, HeavyDuplicatesMatchStableSort) {
  Rng rng(4);
  std::vector<uint32_t> keys32(5000);
  std::vector<uint64_t> keys64(5000);
  for (size_t i = 0; i < keys32.size(); ++i) {
    // 16 distinct values spread over several digits.
    const uint64_t v = rng.UniformU64(16);
    keys32[i] = static_cast<uint32_t>((v & 3) << 24 | (v >> 2) << 4);
    keys64[i] = (v & 3) << 60 | (v >> 2) << 28 | (v & 1);
  }
  ExpectMatchesStableSort(keys32);
  ExpectMatchesStableSort(keys64);
}

TEST(RadixSortTest, RandomKeysMatchStableSort) {
  Rng rng(5);
  std::vector<uint32_t> keys32(3000);
  std::vector<uint64_t> keys64(3000);
  for (auto& k : keys32) k = static_cast<uint32_t>(rng.NextU64());
  for (auto& k : keys64) k = rng.NextU64();
  ExpectMatchesStableSort(keys32);
  ExpectMatchesStableSort(keys64);
}

TEST(RadixSortTest, AllEqualKeys) {
  ExpectMatchesStableSort(std::vector<uint32_t>(777, 0xDEADBEEFu));
  ExpectMatchesStableSort(std::vector<uint64_t>(777, 42));
}

TEST(RadixSortTest, KeysDifferOnlyInTopDigit) {
  Rng rng(6);
  std::vector<uint32_t> keys32(1000);
  std::vector<uint64_t> keys64(1000);
  for (size_t i = 0; i < keys32.size(); ++i) {
    keys32[i] = static_cast<uint32_t>(rng.UniformU64(256)) << 24 | 0x123456u;
    keys64[i] = rng.UniformU64(256) << 56 | 0x0123456789ABCDull;
  }
  ExpectMatchesStableSort(keys32);
  ExpectMatchesStableSort(keys64);
}

TEST(RadixSortTest, TinyInputs) {
  ExpectMatchesStableSort(std::vector<uint32_t>{});
  ExpectMatchesStableSort(std::vector<uint32_t>{7});
  ExpectMatchesStableSort(std::vector<uint32_t>{9, 3});
  ExpectMatchesStableSort(std::vector<uint32_t>{3, 9});
  ExpectMatchesStableSort(std::vector<uint64_t>{});
  ExpectMatchesStableSort(std::vector<uint64_t>{1ull << 63});
  ExpectMatchesStableSort(std::vector<uint64_t>{1ull << 63, 1});
  ExpectMatchesStableSort(std::vector<uint64_t>{5, 5});
}

TEST(RadixSortTest, PayloadShowsStability) {
  std::vector<uint32_t> keys32 = {1, 1, 0, 1, 0};
  std::vector<uint64_t> keys64 = {1ull << 40, 1ull << 40, 0, 1ull << 40, 0};
  std::vector<uint32_t> payload32 = {10, 11, 12, 13, 14};
  std::vector<uint32_t> payload64 = payload32;
  RadixSort(std::span<uint32_t>(keys32), payload32);
  RadixSort(std::span<uint64_t>(keys64), payload64);
  EXPECT_EQ(keys32, (std::vector<uint32_t>{0, 0, 1, 1, 1}));
  EXPECT_EQ(payload32, (std::vector<uint32_t>{12, 14, 10, 11, 13}));
  EXPECT_EQ(payload64, payload32);
}

// The builder's table keys hold distance float bits: +0 sorts first, +inf
// after every finite distance, and a NaN after +inf.
TEST(RadixSortTest, FloatBitsOrderAsValues) {
  const auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
  const uint32_t nan = 0x7FC00000u;
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float fmax = std::numeric_limits<float>::max();
  std::vector<uint32_t> keys = {nan,       bits(inf), bits(1.0f),
                                bits(0.0f), bits(fmax), bits(denorm),
                                bits(0.5f)};
  RadixSort(std::span<uint32_t>(keys));
  EXPECT_EQ(keys, (std::vector<uint32_t>{bits(0.0f), bits(denorm), bits(0.5f),
                                         bits(1.0f), bits(fmax), bits(inf),
                                         nan}));
}

// FloatKey turns a stable sort of floats of either sign, with -0 == +0,
// into a RadixSort.
TEST(RadixSortTest, FloatKeysMatchStableSortOfFloats) {
  Rng rng(8);
  std::vector<float> values(4000);
  for (auto& v : values) {
    // Few distinct values, both signed zeros, infinities and denormals.
    const float pool[] = {-std::numeric_limits<float>::infinity(),
                          -3.5f, -1e-40f, -0.0f, 0.0f, 1e-40f, 0.25f,
                          2.0f, std::numeric_limits<float>::infinity()};
    v = rng.UniformU64(4) == 0 ? rng.UniformFloat(-5.0f, 5.0f)
                               : pool[rng.UniformU64(9)];
  }
  std::vector<uint32_t> expect(values.size());
  std::iota(expect.begin(), expect.end(), 0u);
  std::stable_sort(expect.begin(), expect.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<uint32_t> keys(values.size()), order(values.size());
  for (size_t i = 0; i < values.size(); ++i) keys[i] = FloatKey(values[i]);
  std::iota(order.begin(), order.end(), 0u);
  RadixSort(keys, order);
  EXPECT_EQ(order, expect);
  EXPECT_EQ(FloatKey(-0.0f), FloatKey(0.0f));
}

TEST(SortTableTest, SortsByKey) {
  Device dev = MakeDevice();
  Rng rng(4);
  const size_t n = 5000;
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> objects(n);
  std::vector<float> dis(n, -1.0f);  // written from the keys
  std::vector<float> orig_dis(n);
  for (size_t i = 0; i < n; ++i) {
    orig_dis[i] = rng.UniformFloat(0.0f, 100.0f);
    keys[i] = TableKey(static_cast<uint32_t>(rng.UniformU64(50)), orig_dis[i]);
    objects[i] = static_cast<uint32_t>(i);
  }
  const std::vector<uint64_t> orig_keys = keys;
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (size_t i = 0; i < n; ++i) {
    // Objects follow their key; distances decode from it exactly.
    EXPECT_EQ(keys[i], orig_keys[objects[i]]);
    EXPECT_EQ(std::bit_cast<uint32_t>(dis[i]),
              std::bit_cast<uint32_t>(orig_dis[objects[i]]));
  }
}

TEST(SortTableTest, StableOnEqualKeys) {
  Device dev = MakeDevice();
  std::vector<uint64_t> keys = {TableKey(1, 0.5f), TableKey(1, 0.5f),
                                TableKey(0, 2.0f), TableKey(1, 0.5f),
                                TableKey(0, 2.0f)};
  std::vector<uint32_t> objects = {0, 1, 2, 3, 4};
  std::vector<float> dis(5);
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_EQ(objects, (std::vector<uint32_t>{2, 4, 0, 1, 3}));
  EXPECT_EQ(dis, (std::vector<float>{2.0f, 2.0f, 0.5f, 0.5f, 0.5f}));
}

TEST(SortTableTest, CarriesBothColumns) {
  Device dev = MakeDevice();
  std::vector<uint64_t> keys = {TableKey(0, 2.5f), TableKey(0, 0.5f),
                                TableKey(0, 1.5f)};
  std::vector<uint32_t> objects = {10, 11, 12};
  std::vector<float> dis(3);
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_EQ(objects, (std::vector<uint32_t>{11, 12, 10}));
  EXPECT_EQ(dis, (std::vector<float>{0.5f, 1.5f, 2.5f}));
}

// The rank orders first and the distance second, whatever the distances'
// range: neither a huge distance nor a tiny gap between two is lost.
TEST(SortTableTest, ExactForWideDistanceRanges) {
  Device dev = MakeDevice();
  std::vector<uint64_t> keys = {TableKey(1, 0.0f), TableKey(0, 2e-30f),
                                TableKey(0, 1.4e30f), TableKey(1, 1e-30f),
                                TableKey(0, 1e-30f)};
  std::vector<uint32_t> objects = {10, 11, 12, 13, 14};
  std::vector<float> dis(5);
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_EQ(objects, (std::vector<uint32_t>{14, 11, 12, 10, 13}));
  EXPECT_EQ(dis, (std::vector<float>{1e-30f, 2e-30f, 1.4e30f, 0.0f, 1e-30f}));
}

TEST(ExclusiveScanTest, PrefixSums) {
  Device dev = MakeDevice();
  std::vector<uint32_t> in = {3, 0, 2, 5};
  std::vector<uint32_t> out(4);
  ExclusiveScan(&dev, in, out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 3, 3, 5}));
}

TEST(SelectKSmallestTest, MatchesPartialSort) {
  Device dev = MakeDevice();
  Rng rng(17);
  std::vector<float> v(2000);
  for (auto& x : v) x = rng.UniformFloat(0.0f, 1.0f);
  const auto idx = SelectKSmallest(&dev, v, 10);
  ASSERT_EQ(idx.size(), 10u);
  std::vector<float> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < idx.size(); ++i) {
    EXPECT_FLOAT_EQ(v[idx[i]], sorted[i]);
  }
}

TEST(SelectKSmallestTest, EdgeCases) {
  Device dev = MakeDevice();
  std::vector<float> v = {5.0f, 1.0f};
  EXPECT_TRUE(SelectKSmallest(&dev, v, 0).empty());
  EXPECT_EQ(SelectKSmallest(&dev, v, 10).size(), 2u);  // k > n clamps
  EXPECT_TRUE(SelectKSmallest(&dev, {}, 3).empty());
}

TEST(KernelDistanceScopeTest, ChargesMeasuredOps) {
  Device dev = MakeDevice();
  Dataset d = Dataset::FloatVectors(4);
  d.AppendVector(std::vector<float>{0, 0, 0, 0});
  d.AppendVector(std::vector<float>{1, 1, 1, 1});
  auto metric = MakeMetric(MetricKind::kL2);
  {
    KernelDistanceScope scope(&dev, metric.get(), 3);
    metric->Distance(d, 0, 1);
    metric->Distance(d, 0, 1);
    metric->Distance(d, 0, 1);
  }
  // 3 items x (4 + kDistanceCallOps) ops each, 1 wave, plus overhead.
  EXPECT_DOUBLE_EQ(dev.clock().ElapsedNs(),
                   (4.0 + gts::kDistanceCallOps) * kGpuNsPerOp +
                       kGpuLaunchOverheadNs);
}

}  // namespace
}  // namespace gts::gpu
