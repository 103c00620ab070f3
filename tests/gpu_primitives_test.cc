#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "gpu/primitives.h"

namespace gts::gpu {
namespace {

Device MakeDevice() { return Device(DeviceOptions{}); }

TEST(SortTableTest, SortsByKey) {
  Device dev = MakeDevice();
  Rng rng(4);
  const size_t n = 5000;
  std::vector<double> keys(n);
  std::vector<uint32_t> objects(n);
  std::vector<float> dis(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.UniformDouble();
    objects[i] = static_cast<uint32_t>(i);
    dis[i] = static_cast<float>(i) * 0.5f;
  }
  const std::vector<double> orig_keys = keys;
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (size_t i = 0; i < n; ++i) {
    // Both carried columns follow their key.
    EXPECT_DOUBLE_EQ(keys[i], orig_keys[objects[i]]);
    EXPECT_EQ(dis[i], static_cast<float>(objects[i]) * 0.5f);
  }
}

TEST(SortTableTest, StableOnEqualKeys) {
  Device dev = MakeDevice();
  std::vector<double> keys = {1.0, 1.0, 0.0, 1.0, 0.0};
  std::vector<uint32_t> objects = {0, 1, 2, 3, 4};
  std::vector<float> dis = {10.0f, 11.0f, 12.0f, 13.0f, 14.0f};
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_EQ(objects, (std::vector<uint32_t>{2, 4, 0, 1, 3}));
  EXPECT_EQ(dis, (std::vector<float>{12.0f, 14.0f, 10.0f, 11.0f, 13.0f}));
}

TEST(SortTableTest, CarriesBothColumns) {
  Device dev = MakeDevice();
  std::vector<double> keys = {2.5, 0.5, 1.5};
  std::vector<uint32_t> objects = {10, 11, 12};
  std::vector<float> dis = {2.5f, 0.5f, 1.5f};
  SortTableByKey(&dev, keys, objects, dis);
  EXPECT_EQ(objects, (std::vector<uint32_t>{11, 12, 10}));
  EXPECT_EQ(dis, (std::vector<float>{0.5f, 1.5f, 2.5f}));
}

TEST(ReduceMaxTest, FindsMaximum) {
  Device dev = MakeDevice();
  std::vector<float> v = {1.0f, 9.5f, -2.0f, 3.0f};
  EXPECT_FLOAT_EQ(ReduceMax(&dev, v), 9.5f);
  EXPECT_FLOAT_EQ(ReduceMax(&dev, std::span<const float>{}), 0.0f);
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
