// Approximate MkNNQ mode (paper §7 future work): recall/efficiency trade-off
// of the leaf-verification candidate budget, and the guarantee that
// fraction = 1 reproduces the exact result.
#include <gtest/gtest.h>

#include <limits>

#include "baselines/brute_force.h"
#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

class GtsApproxTest : public ::testing::Test {
 protected:
  void Build(DatasetId id, uint32_t n) {
    metric_ = MakeDatasetMetric(id);
    Dataset data = GenerateDataset(id, n, 5);
    ref_data_ = GenerateDataset(id, n, 5);
    GtsOptions options;
    options.node_capacity = 10;
    auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                                 options);
    ASSERT_TRUE(built.ok());
    index_ = std::move(built).value();
  }

  /// The approximate query: KnnQueryBatch at candidate `fraction`.
  Result<KnnResults> Approx(const Dataset& queries, uint32_t k,
                            double fraction) const {
    return index_->KnnQueryBatch(queries, k, nullptr,
                                 KnnOptions{.candidate_fraction = fraction});
  }

  double RecallAt(const KnnResults& got, const KnnResults& truth) const {
    uint64_t hits = 0, total = 0;
    for (uint32_t q = 0; q < got.size(); ++q) {
      const float kth = truth[q].back().dist;
      for (const auto& nb : got[q]) {
        ++total;
        hits += (nb.dist <= kth + 1e-6f);
      }
    }
    return static_cast<double>(hits) / static_cast<double>(total);
  }

  gpu::Device device_;
  std::unique_ptr<DistanceMetric> metric_;
  Dataset ref_data_ = Dataset::Strings();
  std::unique_ptr<GtsIndex> index_;
};

TEST_F(GtsApproxTest, FullFractionIsExact) {
  Build(DatasetId::kVector, 800);
  const Dataset queries = SampleQueries(index_->data(), 12, 3);
  auto exact = index_->KnnQueryBatch(queries, 8);
  auto approx = Approx(queries, 8, 1.0);
  ASSERT_TRUE(exact.ok() && approx.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(approx.value()[q].size(), exact.value()[q].size());
    for (size_t i = 0; i < exact.value()[q].size(); ++i) {
      EXPECT_FLOAT_EQ(approx.value()[q][i].dist, exact.value()[q][i].dist);
    }
  }
}

TEST_F(GtsApproxTest, SmallFractionSavesDistancesWithGoodRecall) {
  Build(DatasetId::kVector, 1500);
  const Dataset queries = SampleQueries(index_->data(), 16, 3);

  index_->ResetQueryStats();
  auto exact = index_->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(exact.ok());
  const uint64_t exact_dists = index_->query_stats().distance_computations;

  index_->ResetQueryStats();
  auto approx = Approx(queries, 8, 0.1);
  ASSERT_TRUE(approx.ok());
  const uint64_t approx_dists = index_->query_stats().distance_computations;

  EXPECT_LT(approx_dists, exact_dists);
  // The annulus gap is only a weak distance proxy in 300-d, but gap-ordered
  // verification must still beat random candidate picks (expected recall
  // k/n' for a random tenth would be far below this).
  EXPECT_GE(RecallAt(approx.value(), exact.value()), 0.25);
  for (const auto& res : approx.value()) EXPECT_EQ(res.size(), 8u);
}

TEST_F(GtsApproxTest, RecallGrowsWithFraction) {
  Build(DatasetId::kColor, 1500);
  const Dataset queries = SampleQueries(index_->data(), 16, 3);
  auto exact = index_->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(exact.ok());

  double prev_recall = -1.0;
  for (const double fraction : {0.05, 0.3, 1.0}) {
    auto approx = Approx(queries, 8, fraction);
    ASSERT_TRUE(approx.ok());
    const double recall = RecallAt(approx.value(), exact.value());
    EXPECT_GE(recall, prev_recall - 0.05) << "fraction " << fraction;
    prev_recall = recall;
  }
  EXPECT_DOUBLE_EQ(prev_recall, 1.0);  // fraction = 1 -> exact
}

TEST_F(GtsApproxTest, RejectsBadFraction) {
  Build(DatasetId::kTLoc, 200);
  const Dataset queries = SampleQueries(index_->data(), 2, 3);
  EXPECT_FALSE(Approx(queries, 4, 0.0).ok());
  EXPECT_FALSE(Approx(queries, 4, 1.5).ok());
  EXPECT_FALSE(
      Approx(queries, 4, std::numeric_limits<double>::quiet_NaN()).ok());
}

TEST_F(GtsApproxTest, ExactModeUnaffectedAfterApproxCall) {
  Build(DatasetId::kTLoc, 600);
  const Dataset queries = SampleQueries(index_->data(), 8, 3);
  auto before = index_->KnnQueryBatch(queries, 4);
  ASSERT_TRUE(Approx(queries, 4, 0.05).ok());
  auto after = index_->KnnQueryBatch(queries, 4);
  ASSERT_TRUE(before.ok() && after.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    for (size_t i = 0; i < before.value()[q].size(); ++i) {
      EXPECT_FLOAT_EQ(after.value()[q][i].dist, before.value()[q][i].dist);
    }
  }
}

}  // namespace
}  // namespace gts
