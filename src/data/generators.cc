#include "data/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "common/rng.h"

namespace gts {

namespace {

// Scaled defaults (docs/ARCHITECTURE.md, "Scale and calibration"). DNA
// reads are shortened from 108 to 64 characters to keep the O(len²)
// edit-distance benchmarks tractable on one core; the clustered mutation
// structure is preserved.
constexpr DatasetSpec kSpecs[] = {
    {DatasetId::kWords, "Words", MetricKind::kEdit, 8000, 8000, 611756, 34},
    {DatasetId::kTLoc, "T-Loc", MetricKind::kL2, 20000, 20000, 10000000, 2},
    {DatasetId::kVector, "Vector", MetricKind::kAngularCosine, 4000, 4000,
     200000, 300},
    {DatasetId::kDna, "DNA", MetricKind::kEdit, 1200, 1200, 1000000, 64},
    {DatasetId::kColor, "Color", MetricKind::kL1, 10000, 50000, 1000000, 282},
};

std::string RandomWord(Rng* rng, uint32_t min_len, uint32_t max_len) {
  const uint32_t len =
      min_len + static_cast<uint32_t>(rng->UniformU64(max_len - min_len + 1));
  std::string w(len, 'a');
  for (auto& ch : w) {
    ch = static_cast<char>('a' + rng->UniformU64(26));
  }
  return w;
}

std::string MutateWord(const std::string& base, Rng* rng, uint32_t max_edits,
                       const char* alphabet, uint32_t alphabet_size,
                       uint32_t max_len) {
  std::string w = base;
  const uint32_t edits =
      static_cast<uint32_t>(rng->UniformU64(max_edits + 1));
  for (uint32_t e = 0; e < edits; ++e) {
    const uint64_t op = rng->UniformU64(3);
    const char ch = alphabet[rng->UniformU64(alphabet_size)];
    if (op == 0 && w.size() < max_len) {  // insert
      w.insert(w.begin() + rng->UniformU64(w.size() + 1), ch);
    } else if (op == 1 && w.size() > 1) {  // delete
      w.erase(w.begin() + rng->UniformU64(w.size()));
    } else if (!w.empty()) {  // substitute
      w[rng->UniformU64(w.size())] = ch;
    }
  }
  return w;
}

Dataset GenerateWords(uint32_t n, uint64_t seed) {
  // Morphological clusters: root words plus edit-distance variants, like
  // the Moby proper nouns / compound words corpus.
  static const char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
  Rng rng(seed);
  Dataset data = Dataset::Strings();
  const uint32_t num_roots = std::max<uint32_t>(1, n / 20);
  std::vector<std::string> roots;
  roots.reserve(num_roots);
  for (uint32_t i = 0; i < num_roots; ++i) {
    roots.push_back(RandomWord(&rng, 2, 14));
  }
  for (uint32_t i = 0; i < n; ++i) {
    const std::string& root = roots[rng.UniformU64(roots.size())];
    data.AppendString(MutateWord(root, &rng, 6, kAlpha, 26, 34));
  }
  return data;
}

Dataset GenerateTLoc(uint32_t n, uint64_t seed) {
  // Geolocations: a Gaussian mixture around city centres plus sparse
  // uniform noise, in a [0, 100]² degree-like box.
  Rng rng(seed);
  Dataset data = Dataset::FloatVectors(2);
  constexpr uint32_t kCities = 32;
  float cx[kCities], cy[kCities], cs[kCities];
  for (uint32_t c = 0; c < kCities; ++c) {
    cx[c] = rng.UniformFloat(0.0f, 100.0f);
    cy[c] = rng.UniformFloat(0.0f, 100.0f);
    cs[c] = rng.UniformFloat(0.3f, 2.5f);
  }
  for (uint32_t i = 0; i < n; ++i) {
    float p[2];
    if (rng.UniformDouble() < 0.05) {
      p[0] = rng.UniformFloat(0.0f, 100.0f);
      p[1] = rng.UniformFloat(0.0f, 100.0f);
    } else {
      const uint32_t c = static_cast<uint32_t>(rng.UniformU64(kCities));
      p[0] = cx[c] + cs[c] * static_cast<float>(rng.NormalDouble());
      p[1] = cy[c] + cs[c] * static_cast<float>(rng.NormalDouble());
    }
    data.AppendVector(p);
  }
  return data;
}

Dataset GenerateVector(uint32_t n, uint64_t seed) {
  // Word-embedding-like vectors: a mixture of directions on the 300-d
  // sphere with intra-cluster angular noise and varying magnitudes.
  Rng rng(seed);
  constexpr uint32_t kDim = 300;
  constexpr uint32_t kClusters = 64;
  Dataset data = Dataset::FloatVectors(kDim);
  std::vector<float> centers(kClusters * kDim);
  for (auto& v : centers) v = static_cast<float>(rng.NormalDouble());
  // Heterogeneous cluster dispersions keep the pairwise angular-distance
  // distribution smooth (embedding corpora are not uniformly tight).
  std::vector<float> spread(kClusters);
  for (auto& s : spread) s = rng.UniformFloat(0.2f, 1.4f);
  std::vector<float> obj(kDim);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t c = static_cast<uint32_t>(rng.UniformU64(kClusters));
    const float mag = rng.UniformFloat(0.5f, 3.0f);
    for (uint32_t d = 0; d < kDim; ++d) {
      obj[d] = centers[c * kDim + d] +
               spread[c] * static_cast<float>(rng.NormalDouble());
      obj[d] *= mag;
    }
    data.AppendVector(obj);
  }
  return data;
}

Dataset GenerateDna(uint32_t n, uint64_t seed) {
  // Sequencing reads: ancestor sequences mutated by substitutions/indels.
  static const char kBases[] = "ACGT";
  Rng rng(seed);
  Dataset data = Dataset::Strings();
  const uint32_t kLen = GetDatasetSpec(DatasetId::kDna).dimensionality;
  const uint32_t num_ancestors = std::max<uint32_t>(1, n / 25);
  std::vector<std::string> ancestors;
  for (uint32_t a = 0; a < num_ancestors; ++a) {
    std::string s(kLen, 'A');
    for (auto& ch : s) ch = kBases[rng.UniformU64(4)];
    ancestors.push_back(std::move(s));
  }
  for (uint32_t i = 0; i < n; ++i) {
    const std::string& anc = ancestors[rng.UniformU64(ancestors.size())];
    data.AppendString(
        MutateWord(anc, &rng, kLen / 8, kBases, 4, kLen + kLen / 8));
  }
  return data;
}

Dataset GenerateColor(uint32_t n, uint64_t seed) {
  // Image feature histograms: non-negative, mostly sparse 282-d vectors
  // around prototype feature profiles, L1-comparable.
  Rng rng(seed);
  constexpr uint32_t kDim = 282;
  constexpr uint32_t kPrototypes = 40;
  Dataset data = Dataset::FloatVectors(kDim);
  std::vector<float> protos(kPrototypes * kDim, 0.0f);
  for (uint32_t p = 0; p < kPrototypes; ++p) {
    // Each prototype concentrates mass on a sparse support set.
    const uint32_t support = 20 + static_cast<uint32_t>(rng.UniformU64(40));
    for (uint32_t s = 0; s < support; ++s) {
      protos[p * kDim + rng.UniformU64(kDim)] = rng.UniformFloat(0.1f, 1.0f);
    }
  }
  std::vector<float> obj(kDim);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t p = static_cast<uint32_t>(rng.UniformU64(kPrototypes));
    float sum = 0.0f;
    for (uint32_t d = 0; d < kDim; ++d) {
      float v = protos[p * kDim + d];
      if (v > 0.0f || rng.UniformDouble() < 0.05) {
        v = std::max(0.0f, v + 0.15f * static_cast<float>(rng.NormalDouble()));
      }
      obj[d] = v;
      sum += v;
    }
    if (sum > 0.0f) {
      for (auto& v : obj) v /= sum;  // histogram normalization
    }
    data.AppendVector(obj);
  }
  return data;
}

}  // namespace

const DatasetSpec& GetDatasetSpec(DatasetId id) {
  return kSpecs[static_cast<int>(id)];
}

Dataset GenerateDataset(DatasetId id, uint32_t n, uint64_t seed) {
  switch (id) {
    case DatasetId::kWords: return GenerateWords(n, seed);
    case DatasetId::kTLoc: return GenerateTLoc(n, seed);
    case DatasetId::kVector: return GenerateVector(n, seed);
    case DatasetId::kDna: return GenerateDna(n, seed);
    case DatasetId::kColor: return GenerateColor(n, seed);
  }
  return Dataset::Strings();
}

Dataset GenerateWithDistinctFraction(DatasetId id, uint32_t n,
                                     double distinct_fraction, uint64_t seed) {
  const uint32_t distinct = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::ceil(n * distinct_fraction)));
  Dataset base = GenerateDataset(id, std::min(distinct, n), seed);
  Rng rng(seed ^ 0xD15717C7u);
  while (base.size() < n) {
    base.AppendFrom(base, static_cast<uint32_t>(rng.UniformU64(distinct)));
  }
  return base;
}

std::unique_ptr<DistanceMetric> MakeDatasetMetric(DatasetId id) {
  return MakeMetric(GetDatasetSpec(id).metric);
}

}  // namespace gts
