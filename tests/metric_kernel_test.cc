// Scalar vs SIMD differential suite for the block distance kernels
// (metric/kernels.h). The equivalence contract is BITWISE: every compiled
// tier, on either data path (SoA block or gather), must reproduce the
// scalar reference bit for bit — including NaN payloads, denormals and
// remainder lanes — and whole queries must return identical results and
// identical work counters under every tier.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "test_util.h"

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "metric/kernels.h"
#include "metric/simd.h"
#include "metric/soa.h"

namespace gts {
namespace {

std::vector<simd::Tier> CompiledRunnableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  for (const simd::Tier t : {simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::TierCompiled(t) && simd::TierSupportedByCpu(t)) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

// Bitwise float equality (NaN payloads included).
::testing::AssertionResult BitEqual(float a, float b) {
  if (std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << std::bit_cast<uint32_t>(a) << ") vs "
         << b << " (0x" << std::bit_cast<uint32_t>(b) << ")";
}

Dataset RandomVectors(uint32_t n, uint32_t dim, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-10.0f, 10.0f);
  Dataset data = Dataset::FloatVectors(dim);
  std::vector<float> v(dim);
  for (uint32_t i = 0; i < n; ++i) {
    for (float& x : v) x = dist(rng);
    data.AppendVector(v);
  }
  return data;
}

// --- Float kernels: block + gather vs per-object scalar reference ----------

class FloatKernelTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(FloatKernelTest, BlockAndGatherMatchScalarBitwise) {
  const MetricKind kind = GetParam();
  const auto tiers = CompiledRunnableTiers();
  // Dims straddle lane/register boundaries; counts cover remainder lanes
  // of first/last blocks.
  for (const uint32_t dim : {1u, 2u, 3u, 7u, 8u, 31u, 282u}) {
    const uint32_t n = 61;  // not a multiple of kLane: padded tail block
    const Dataset data = RandomVectors(n + 1, dim, 1000 + dim);
    const uint32_t qi = n;  // last object doubles as the query

    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const SoaPack pack = SoaPack::Pack(data, order);

    // Scalar per-object reference, via the historical metric code path.
    auto metric = MakeMetric(kind);
    std::vector<float> want(n);
    for (uint32_t i = 0; i < n; ++i) {
      want[i] = metric->Distance(data, qi, data, i);
    }

    const float* q = data.Vector(qi).data();
    for (const simd::Tier tier : tiers) {
      for (const uint32_t pos : {0u, 1u, 5u, 8u, 13u}) {
        for (uint32_t count : {1u, 2u, 7u, 8u, 9u, 16u, 17u, n - pos}) {
          count = std::min(count, n - pos);
          std::vector<float> got(count, -1.0f);
          kernels::ScoreBlockFloat(kind, tier, q, pack, pos, count,
                                   got.data());
          for (uint32_t i = 0; i < count; ++i) {
            EXPECT_TRUE(BitEqual(got[i], want[pos + i]))
                << simd::TierName(tier) << " block dim=" << dim
                << " pos=" << pos << " count=" << count << " i=" << i;
          }
        }
      }
      std::vector<float> got(n, -1.0f);
      kernels::ScoreIds(kind, tier, data, qi, data, order, got.data());
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_TRUE(BitEqual(got[i], want[i]))
            << simd::TierName(tier) << " gather dim=" << dim << " i=" << i;
      }
    }
  }
}

TEST_P(FloatKernelTest, SpecialValuesMatchBitwise) {
  const MetricKind kind = GetParam();
  const auto tiers = CompiledRunnableTiers();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = 1e-42f;  // subnormal
  const std::vector<std::vector<float>> rows = {
      {0.0f, -0.0f, 1.0f, -1.0f},        {kNan, 0.0f, 1.0f, 2.0f},
      {kDenorm, -kDenorm, kDenorm, 0.f}, {kInf, -kInf, 1.0f, 0.0f},
      {3e38f, -3e38f, 3e38f, -3e38f},    {0.0f, 0.0f, 0.0f, 0.0f},
      {1.0f, 2.0f, 3.0f, 4.0f},          {-0.0f, kNan, -kInf, kDenorm},
      {5.0f, -5.0f, 0.5f, -0.5f},
  };
  Dataset data = Dataset::FloatVectors(4);
  for (const auto& r : rows) data.AppendVector(r);
  std::vector<uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  const SoaPack pack = SoaPack::Pack(data, order);

  auto metric = MakeMetric(kind);
  for (uint32_t qi = 0; qi < rows.size(); ++qi) {
    std::vector<float> want(rows.size());
    for (uint32_t i = 0; i < rows.size(); ++i) {
      want[i] = metric->Distance(data, qi, data, i);
    }
    for (const simd::Tier tier : tiers) {
      std::vector<float> got(rows.size(), -1.0f);
      kernels::ScoreBlockFloat(kind, tier, data.Vector(qi).data(), pack, 0,
                               static_cast<uint32_t>(rows.size()),
                               got.data());
      std::vector<float> gathered(rows.size(), -1.0f);
      kernels::ScoreIds(kind, tier, data, qi, data, order, gathered.data());
      for (uint32_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(BitEqual(got[i], want[i]))
            << simd::TierName(tier) << " block q=" << qi << " i=" << i;
        EXPECT_TRUE(BitEqual(gathered[i], want[i]))
            << simd::TierName(tier) << " gather q=" << qi << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, FloatKernelTest,
                         ::testing::Values(MetricKind::kL1, MetricKind::kL2,
                                           MetricKind::kAngularCosine),
                         [](const auto& info) {
                           return std::string(MetricKindName(info.param));
                         });

// --- Edit kernels: Myers / banded vs the DP reference -----------------------

// `alphabet` consecutive byte values from `first`; (256, 0) is raw bytes,
// NUL and bytes >= 0x80 included.
std::string RandomString(std::mt19937_64& rng, size_t len, int alphabet,
                         int first = 'a') {
  std::uniform_int_distribution<int> pick(0, alphabet - 1);
  std::string s(len, ' ');
  for (char& c : s) c = static_cast<char>(first + pick(rng));
  return s;
}

struct Alphabet {
  int size;
  int first;
};
constexpr Alphabet kFuzzAlphabets[] = {{2, 'a'}, {4, 'a'}, {26, 'a'}, {256, 0}};

TEST(EditKernelTest, MyersMatchesDpFuzz) {
  std::mt19937_64 rng(7);
  // Lengths cross the 64-byte word boundary (single-word vs blocked Myers)
  // and mix small (DNA-like), large and raw-byte alphabets; includes empty
  // strings. Every tier's dispatched kernel runs in both argument orders.
  const std::vector<size_t> lens = {0,  1,  2,   5,   7,   31, 63,
                                    64, 65, 100, 128, 129, 200};
  for (const Alphabet alpha : kFuzzAlphabets) {
    for (const size_t la : lens) {
      for (const size_t lb : lens) {
        const std::string a = RandomString(rng, la, alpha.size, alpha.first);
        const std::string b = RandomString(rng, lb, alpha.size, alpha.first);
        const uint32_t want = kernels::EditDistanceDp(a, b);
        EXPECT_EQ(kernels::EditDistanceMyers(a, b), want)
            << "alphabet=" << alpha.size << " la=" << la << " lb=" << lb;
        for (const simd::Tier tier : CompiledRunnableTiers()) {
          EXPECT_EQ(kernels::EditDistance(tier, a, b), want)
              << simd::TierName(tier) << " alphabet=" << alpha.size
              << " la=" << la << " lb=" << lb;
          EXPECT_EQ(kernels::EditDistance(tier, b, a), want)
              << simd::TierName(tier) << " alphabet=" << alpha.size
              << " la=" << lb << " lb=" << la << " (swapped)";
        }
      }
    }
  }
  // Random length pairs for volume.
  std::uniform_int_distribution<size_t> len_dist(0, 180);
  for (int iter = 0; iter < 500; ++iter) {
    const std::string a = RandomString(rng, len_dist(rng), 4);
    const std::string b = RandomString(rng, len_dist(rng), 4);
    ASSERT_EQ(kernels::EditDistanceMyers(a, b), kernels::EditDistanceDp(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(EditKernelTest, MyersIdentityAndKnownValues) {
  EXPECT_EQ(kernels::EditDistanceMyers("", ""), 0u);
  EXPECT_EQ(kernels::EditDistanceMyers("abc", "abc"), 0u);
  EXPECT_EQ(kernels::EditDistanceMyers("kitten", "sitting"), 3u);
  EXPECT_EQ(kernels::EditDistanceMyers("flaw", "lawn"), 2u);
  const std::string long_a(150, 'a');
  std::string long_b = long_a;
  long_b[17] = 'b';
  long_b[99] = 'c';
  EXPECT_EQ(kernels::EditDistanceMyers(long_a, long_b), 2u);
  EXPECT_EQ(kernels::EditDistanceMyers(long_a, long_a + "xyz"), 3u);
}

TEST(EditKernelTest, BandedExactWithinBoundAndCappedAbove) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<size_t> len_dist(0, 120);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string a = RandomString(rng, len_dist(rng), 4);
    const std::string b = RandomString(rng, len_dist(rng), 4);
    const uint32_t d = kernels::EditDistanceDp(a, b);
    for (const uint32_t bound :
         {d, d + 1, d + 10, d > 0 ? d - 1 : 0u, d / 2, 0u}) {
      const uint32_t got = kernels::EditDistanceBanded(a, b, bound);
      if (bound >= d) {
        ASSERT_EQ(got, d) << "a=" << a << " b=" << b << " bound=" << bound;
      } else {
        ASSERT_GT(got, bound) << "a=" << a << " b=" << b
                              << " bound=" << bound << " d=" << d;
      }
    }
  }
}

TEST(EditKernelTest, DispatchedTierIsExact) {
  for (const simd::Tier tier : CompiledRunnableTiers()) {
    EXPECT_EQ(kernels::EditDistance(tier, "kitten", "sitting"), 3u)
        << simd::TierName(tier);
  }
}

// The batch entry against per-pair DP: queries on both sides of the 64-byte
// pattern limit, including a query longer than the objects it scores.
TEST(EditKernelTest, ScoreIdsMatchesDpFuzz) {
  std::mt19937_64 rng(29);
  for (const Alphabet alpha : kFuzzAlphabets) {
    Dataset queries = Dataset::Strings();
    for (const size_t len : {0u, 1u, 64u, 65u}) {
      queries.AppendString(RandomString(rng, len, alpha.size, alpha.first));
    }
    Dataset objects = Dataset::Strings();
    for (size_t len = 0; len <= 130; ++len) {
      objects.AppendString(RandomString(rng, len, alpha.size, alpha.first));
    }
    std::vector<uint32_t> ids(objects.size());
    std::iota(ids.begin(), ids.end(), 0u);
    for (uint32_t qi = 0; qi < queries.size(); ++qi) {
      for (const simd::Tier tier : CompiledRunnableTiers()) {
        std::vector<float> got(ids.size(), -1.0f);
        kernels::ScoreIds(MetricKind::kEdit, tier, queries, qi, objects, ids,
                          got.data());
        for (const uint32_t i : ids) {
          ASSERT_EQ(got[i], static_cast<float>(kernels::EditDistanceDp(
                                queries.String(qi), objects.String(i))))
              << simd::TierName(tier) << " alphabet=" << alpha.size
              << " qlen=" << queries.String(qi).size() << " olen=" << i;
        }
      }
    }
  }
}

// The pattern masks are shared per thread and must be all-zero between
// calls: each call's text is over the previous call's pattern alphabet and
// disjoint from its own pattern, so a mask left set lowers the answer.
TEST(EditKernelTest, PatternMasksClearedBetweenCalls) {
  std::mt19937_64 rng(31);
  Dataset objects = Dataset::Strings();
  Dataset queries = Dataset::Strings();
  for (int i = 0; i < 40; ++i) {
    const int from = i % 2 == 0 ? 'a' : 'n';  // 'a'-'m' and 'n'-'z'
    const int to = i % 2 == 0 ? 'n' : 'a';
    const std::string pattern = RandomString(rng, 5 + i % 7, 13, from);
    const std::string text = RandomString(rng, 12 + i % 30, 13, to);
    queries.AppendString(pattern);
    objects.AppendString(text);
  }
  std::vector<uint32_t> ids(objects.size());
  std::iota(ids.begin(), ids.end(), 0u);
  for (const simd::Tier tier : CompiledRunnableTiers()) {
    for (uint32_t i = 0; i < queries.size(); ++i) {
      const std::string_view pattern = queries.String(i);
      const std::string_view text = objects.String(i);
      // No shared byte: the distance is the longer length.
      ASSERT_EQ(kernels::EditDistance(tier, pattern, text), text.size())
          << simd::TierName(tier) << " pair " << i;
      std::vector<float> got(ids.size(), -1.0f);
      kernels::ScoreIds(MetricKind::kEdit, tier, queries, i, objects, ids,
                        got.data());
      for (const uint32_t j : ids) {
        ASSERT_EQ(got[j], static_cast<float>(kernels::EditDistanceDp(
                              pattern, objects.String(j))))
            << simd::TierName(tier) << " query " << i << " object " << j;
      }
    }
  }
}

// --- SoaPack layout ---------------------------------------------------------

TEST(SoaPackTest, LayoutRoundTrip) {
  const Dataset data = RandomVectors(21, 5, 99);
  std::vector<uint32_t> order = {7, 3, 19, 0, 11, 2, 20, 5, 13, 1};
  const SoaPack pack = SoaPack::Pack(data, order);
  ASSERT_EQ(pack.size(), order.size());
  for (uint32_t s = 0; s < pack.size(); ++s) {
    const auto v = data.Vector(order[s]);
    const float* block = pack.BlockPtr(s / SoaPack::kLane);
    const uint32_t lane = s % SoaPack::kLane;
    for (uint32_t d = 0; d < 5; ++d) {
      EXPECT_EQ(block[d * SoaPack::kLane + lane], v[d])
          << "slot=" << s << " d=" << d;
    }
  }
  // Tail lanes of the last block are zero.
  const float* last = pack.BlockPtr((pack.size() - 1) / SoaPack::kLane);
  for (uint32_t lane = pack.size() % SoaPack::kLane; lane < SoaPack::kLane;
       ++lane) {
    for (uint32_t d = 0; d < 5; ++d) {
      EXPECT_EQ(last[d * SoaPack::kLane + lane], 0.0f);
    }
  }
}

// --- Batch entry points charge exactly the per-object counters --------------

TEST(DistanceBatchTest, CountersMatchPerObjectCalls) {
  for (const DatasetId id : {DatasetId::kTLoc, DatasetId::kColor,
                             DatasetId::kVector, DatasetId::kWords}) {
    const Dataset data = GenerateDataset(id, 40, 3);
    std::vector<uint32_t> ids(30);
    std::iota(ids.begin(), ids.end(), 1u);

    auto a = MakeDatasetMetric(id);
    std::vector<float> per(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      per[i] = a->Distance(data, 0, data, ids[i]);
    }

    auto b = MakeDatasetMetric(id);
    std::vector<float> batched(ids.size());
    b->DistanceBatch(data, 0, data, ids, batched.data());

    EXPECT_EQ(a->stats().calls, b->stats().calls) << static_cast<int>(id);
    EXPECT_EQ(a->stats().ops, b->stats().ops) << static_cast<int>(id);
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(BitEqual(batched[i], per[i])) << static_cast<int>(id);
    }

    if (data.kind() == DataKind::kFloatVector) {
      auto c = MakeDatasetMetric(id);
      const SoaPack pack = SoaPack::Pack(data, ids);
      std::vector<float> blocked(ids.size());
      c->DistanceBlock(data, 0, data, pack, 0,
                       static_cast<uint32_t>(ids.size()), blocked.data());
      EXPECT_EQ(a->stats().calls, c->stats().calls) << static_cast<int>(id);
      EXPECT_EQ(a->stats().ops, c->stats().ops) << static_cast<int>(id);
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_TRUE(BitEqual(blocked[i], per[i])) << static_cast<int>(id);
      }
    }
  }
}

// --- Whole queries: identical results and counters under every tier ---------

TEST(TierEquivalenceTest, FullQueriesByteIdenticalAcrossTiers) {
  for (const DatasetId id :
       {DatasetId::kTLoc, DatasetId::kColor, DatasetId::kVector,
        DatasetId::kWords, DatasetId::kDna}) {
    const uint32_t n = id == DatasetId::kDna ? 120 : 400;
    struct Run {
      KnnResults knn;
      RangeResults range;
      uint64_t knn_dists = 0;
      uint64_t range_dists = 0;
      DistanceStats metric_stats;
    };
    std::vector<Run> runs;
    for (const simd::Tier tier : CompiledRunnableTiers()) {
      simd::ScopedTierForTest scoped(tier);
      Dataset data = GenerateDataset(id, n, 17);
      const Dataset queries = SampleQueries(data, 8, 29);
      auto metric = MakeDatasetMetric(id);
      gpu::Device device;
      GtsOptions options;
      options.node_capacity = 10;
      auto built =
          GtsIndex::Build(std::move(data), metric.get(), &device, options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();

      Run run;
      GtsQueryStats knn_stats;
      auto knn = built.value()->KnnQueryBatch(queries, 5, &knn_stats);
      ASSERT_TRUE(knn.ok());
      run.knn = std::move(knn.value());
      run.knn_dists = knn_stats.distance_computations;

      const float radius = id == DatasetId::kDna ? 18.0f
                           : id == DatasetId::kWords
                               ? 4.0f
                               : 0.35f * 282;  // loose enough to hit leaves
      std::vector<float> radii(queries.size(), radius);
      GtsQueryStats range_stats;
      auto range = built.value()->RangeQueryBatch(queries, radii, &range_stats);
      ASSERT_TRUE(range.ok());
      run.range = std::move(range.value());
      run.range_dists = range_stats.distance_computations;
      run.metric_stats = metric->stats();
      runs.push_back(std::move(run));
    }

    for (size_t t = 1; t < runs.size(); ++t) {
      const Run& a = runs[0];
      const Run& b = runs[t];
      ASSERT_EQ(a.knn.size(), b.knn.size());
      for (size_t q = 0; q < a.knn.size(); ++q) {
        ASSERT_EQ(a.knn[q].size(), b.knn[q].size()) << "query " << q;
        for (size_t r = 0; r < a.knn[q].size(); ++r) {
          EXPECT_EQ(a.knn[q][r].id, b.knn[q][r].id)
              << "dataset " << static_cast<int>(id) << " query " << q
              << " rank " << r;
          EXPECT_TRUE(BitEqual(a.knn[q][r].dist, b.knn[q][r].dist))
              << "dataset " << static_cast<int>(id) << " query " << q
              << " rank " << r;
        }
      }
      ASSERT_EQ(a.range.size(), b.range.size());
      for (size_t q = 0; q < a.range.size(); ++q) {
        EXPECT_EQ(a.range[q], b.range[q])
            << "dataset " << static_cast<int>(id) << " query " << q;
      }
      // The evaluated distance set — and therefore every work counter —
      // must not depend on the tier.
      EXPECT_EQ(a.knn_dists, b.knn_dists) << static_cast<int>(id);
      EXPECT_EQ(a.range_dists, b.range_dists) << static_cast<int>(id);
      EXPECT_EQ(a.metric_stats.calls, b.metric_stats.calls)
          << static_cast<int>(id);
      EXPECT_EQ(a.metric_stats.ops, b.metric_stats.ops)
          << static_cast<int>(id);
    }
  }
}

}  // namespace
}  // namespace gts
