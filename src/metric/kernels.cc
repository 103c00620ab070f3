// Dispatchers, scalar reference lane kernels, and the edit-distance kernel
// family. The scalar lane kernels below ARE the equivalence contract: each
// vector tier replicates their per-lane arithmetic exactly (metric/simd.h),
// and the scalar lanes themselves replicate the historical per-object
// DistanceMetric implementations, so switching a call site from per-object
// scoring to a block call never changes a single output bit.

#include "metric/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#ifndef GTS_HAVE_KERNELS_AVX2
#define GTS_HAVE_KERNELS_AVX2 0
#endif
#ifndef GTS_HAVE_KERNELS_AVX512
#define GTS_HAVE_KERNELS_AVX512 0
#endif

namespace gts::kernels {

namespace detail {

/// The scalar tail shared by every cosine tier: lane accumulators in, the
/// historical AngularCosineMetric epilogue out (identical branches, clamp
/// and identity snap — see metric/distance.cc).
float CosFinish(double dot, double na, double nb) {
  const double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom <= 0.0) return (na == nb) ? 0.0f : 1.0f;
  double c = std::clamp(dot / denom, -1.0, 1.0);
  if (c > 1.0 - 1e-12) c = 1.0;
  return static_cast<float>(ClearSign(std::acos(c) / M_PI));
}

}  // namespace detail

namespace {

using detail::CosFinish;

simd::Tier ClampTier(simd::Tier tier) {
  const simd::Tier best = simd::BestTier();
  return tier <= best ? tier : best;
}

}  // namespace

// --- Scalar lane kernels ----------------------------------------------------
// Lane-outer, dimension-inner: every lane is one object's full sequential
// accumulation, in exactly the order the per-object scalar metrics used.

void L1Block_Scalar(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out) {
  for (uint32_t l = 0; l < count; ++l) {
    double sum = 0.0;
    for (uint32_t d = 0; d < dim; ++d) {
      sum += std::fabs(q[d] - block[d * SoaPack::kLane + l]);
    }
    out[l] = static_cast<float>(sum);
  }
}

void L2Block_Scalar(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out) {
  for (uint32_t l = 0; l < count; ++l) {
    double sum = 0.0;
    for (uint32_t d = 0; d < dim; ++d) {
      const double diff = q[d] - block[d * SoaPack::kLane + l];
      sum += diff * diff;
    }
    out[l] = static_cast<float>(std::sqrt(detail::ClearSign(sum)));
  }
}

void CosBlock_Scalar(const float* q, const float* block, uint32_t dim,
                     uint32_t count, float* out) {
  for (uint32_t l = 0; l < count; ++l) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (uint32_t d = 0; d < dim; ++d) {
      const float o = block[d * SoaPack::kLane + l];
      dot += static_cast<double>(q[d]) * o;
      na += static_cast<double>(q[d]) * q[d];
      nb += static_cast<double>(o) * o;
    }
    out[l] = CosFinish(dot, na, nb);
  }
}

void L1Gather_Scalar(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out) {
  for (uint32_t l = 0; l < count; ++l) {
    const float* row = rows[l];
    double sum = 0.0;
    for (uint32_t d = 0; d < dim; ++d) sum += std::fabs(q[d] - row[d]);
    out[l] = static_cast<float>(sum);
  }
}

void L2Gather_Scalar(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out) {
  for (uint32_t l = 0; l < count; ++l) {
    const float* row = rows[l];
    double sum = 0.0;
    for (uint32_t d = 0; d < dim; ++d) {
      const double diff = q[d] - row[d];
      sum += diff * diff;
    }
    out[l] = static_cast<float>(std::sqrt(detail::ClearSign(sum)));
  }
}

void CosGather_Scalar(const float* q, const float* const* rows, uint32_t dim,
                      uint32_t count, float* out) {
  for (uint32_t l = 0; l < count; ++l) {
    const float* row = rows[l];
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (uint32_t d = 0; d < dim; ++d) {
      dot += static_cast<double>(q[d]) * row[d];
      na += static_cast<double>(q[d]) * q[d];
      nb += static_cast<double>(row[d]) * row[d];
    }
    out[l] = CosFinish(dot, na, nb);
  }
}

// --- Dispatch ---------------------------------------------------------------

FloatBlockFn FloatBlockKernel(MetricKind kind, simd::Tier tier) {
  switch (ClampTier(tier)) {
#if GTS_HAVE_KERNELS_AVX512
    case simd::Tier::kAvx512:
      switch (kind) {
        case MetricKind::kL1: return &L1Block_Avx512;
        case MetricKind::kL2: return &L2Block_Avx512;
        case MetricKind::kAngularCosine: return &CosBlock_Avx512;
        case MetricKind::kEdit: break;
      }
      break;
#endif
#if GTS_HAVE_KERNELS_AVX2
    case simd::Tier::kAvx2:
      switch (kind) {
        case MetricKind::kL1: return &L1Block_Avx2;
        case MetricKind::kL2: return &L2Block_Avx2;
        case MetricKind::kAngularCosine: return &CosBlock_Avx2;
        case MetricKind::kEdit: break;
      }
      break;
#endif
    default:
      break;
  }
  switch (kind) {
    case MetricKind::kL1: return &L1Block_Scalar;
    case MetricKind::kL2: return &L2Block_Scalar;
    case MetricKind::kAngularCosine: return &CosBlock_Scalar;
    case MetricKind::kEdit: break;
  }
  assert(false && "no float block kernel for this metric kind");
  return &L2Block_Scalar;
}

FloatGatherFn FloatGatherKernel(MetricKind kind, simd::Tier tier) {
  switch (ClampTier(tier)) {
#if GTS_HAVE_KERNELS_AVX512
    case simd::Tier::kAvx512:
      switch (kind) {
        case MetricKind::kL1: return &L1Gather_Avx512;
        case MetricKind::kL2: return &L2Gather_Avx512;
        case MetricKind::kAngularCosine: return &CosGather_Avx512;
        case MetricKind::kEdit: break;
      }
      break;
#endif
#if GTS_HAVE_KERNELS_AVX2
    case simd::Tier::kAvx2:
      switch (kind) {
        case MetricKind::kL1: return &L1Gather_Avx2;
        case MetricKind::kL2: return &L2Gather_Avx2;
        case MetricKind::kAngularCosine: return &CosGather_Avx2;
        case MetricKind::kEdit: break;
      }
      break;
#endif
    default:
      break;
  }
  switch (kind) {
    case MetricKind::kL1: return &L1Gather_Scalar;
    case MetricKind::kL2: return &L2Gather_Scalar;
    case MetricKind::kAngularCosine: return &CosGather_Scalar;
    case MetricKind::kEdit: break;
  }
  assert(false && "no float gather kernel for this metric kind");
  return &L2Gather_Scalar;
}

void ScoreBlockFloat(MetricKind kind, simd::Tier tier, const float* q,
                     const SoaPack& pack, uint32_t pos, uint32_t count,
                     float* out) {
  assert(pack.kind() == DataKind::kFloatVector);
  assert(static_cast<uint64_t>(pos) + count <= pack.size());
  const FloatBlockFn fn = FloatBlockKernel(kind, tier);
  const uint32_t dim = pack.dim();
  uint32_t written = 0;
  while (written < count) {
    const uint32_t slot = pos + written;
    const uint32_t block = slot / SoaPack::kLane;
    const uint32_t lane = slot % SoaPack::kLane;
    const uint32_t n =
        std::min(SoaPack::kLane - lane, count - written);
    if (lane == 0) {
      fn(q, pack.BlockPtr(block), dim, n, out + written);
    } else {
      // Misaligned start: compute the block's leading lanes too and keep
      // only the requested ones (the discarded lanes change no output and
      // no accounting — the caller charges logical work, not lanes).
      float tmp[SoaPack::kLane];
      fn(q, pack.BlockPtr(block), dim, lane + n, tmp);
      std::memcpy(out + written, tmp + lane, n * sizeof(float));
    }
    written += n;
  }
}

// --- Edit distance ----------------------------------------------------------

uint32_t EditDistanceDp(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter
  const size_t m = a.size(), n = b.size();
  if (m == 0) return static_cast<uint32_t>(n);
  static thread_local std::vector<uint32_t> row;
  row.resize(m + 1);
  for (size_t x = 0; x <= m; ++x) row[x] = static_cast<uint32_t>(x);
  for (size_t y = 1; y <= n; ++y) {
    uint32_t diag = row[0];
    row[0] = static_cast<uint32_t>(y);
    for (size_t x = 1; x <= m; ++x) {
      const uint32_t sub = diag + (a[x - 1] != b[y - 1] ? 1 : 0);
      diag = row[x];
      row[x] = std::min({row[x] + 1, row[x - 1] + 1, sub});
    }
  }
  return row[m];
}

namespace {

/// One 64-bit segment step of the blocked Myers recurrence (Hyyrö's
/// formulation). `hin`/the return value are the horizontal deltas entering/
/// leaving the segment (-1, 0, +1); `top` selects the bit whose row the
/// outgoing delta is read at (bit 63 for interior blocks, bit (m-1)%64 for
/// the final one).
int AdvanceMyersBlock(uint64_t* pv, uint64_t* mv, uint64_t eq, int hin,
                      uint64_t top) {
  const uint64_t pv0 = *pv;
  const uint64_t mv0 = *mv;
  const uint64_t xv = eq | mv0;
  if (hin < 0) eq |= 1;
  const uint64_t xh = (((eq & pv0) + pv0) ^ pv0) | eq;
  uint64_t ph = mv0 | ~(xh | pv0);
  uint64_t mh = pv0 & xh;
  int hout = 0;
  if (ph & top) {
    hout = 1;
  } else if (mh & top) {
    hout = -1;
  }
  ph <<= 1;
  mh <<= 1;
  if (hin > 0) {
    ph |= 1;
  } else if (hin < 0) {
    mh |= 1;
  }
  *pv = mh | ~(xv | ph);
  *mv = ph & xv;
  return hout;
}

constexpr size_t kWordBits = 64;

// Pattern-character masks for the single-word kernel. All-zero outside a
// PatternMasks' lifetime, so a pattern costs O(m) to set and clear instead
// of a 256-word wipe.
thread_local uint64_t tls_peq[256];
#ifndef NDEBUG
thread_local bool tls_peq_live = false;
#endif

/// Single-word Myers (Hyyrö's formulation) for a pattern of at most 64
/// bytes against texts of any length: one word step per text byte. Sets the
/// pattern's entries of `tls_peq` on construction and clears exactly those
/// on destruction; at most one may be live per thread.
class PatternMasks {
 public:
  explicit PatternMasks(std::string_view pattern)
      : peq_(tls_peq), pattern_(pattern) {
    assert(pattern.size() <= kWordBits);
#ifndef NDEBUG
    assert(!tls_peq_live && "nested PatternMasks would share tls_peq");
    tls_peq_live = true;
#endif
    for (size_t i = 0; i < pattern.size(); ++i) {
      peq_[static_cast<uint8_t>(pattern[i])] |= 1ull << i;
    }
  }
  ~PatternMasks() {
    for (const char c : pattern_) peq_[static_cast<uint8_t>(c)] = 0;
#ifndef NDEBUG
    tls_peq_live = false;
#endif
  }
  PatternMasks(const PatternMasks&) = delete;
  PatternMasks& operator=(const PatternMasks&) = delete;

  uint32_t Distance(std::string_view text) const {
    const size_t m = pattern_.size();
    if (m == 0) return static_cast<uint32_t>(text.size());
    const uint64_t top = 1ull << (m - 1);
    uint64_t pv = ~0ull;
    uint64_t mv = 0;
    uint32_t score = static_cast<uint32_t>(m);
    for (const char c : text) {
      const uint64_t eq = peq_[static_cast<uint8_t>(c)];
      const uint64_t xv = eq | mv;
      const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      const uint64_t ph = mv | ~(xh | pv);
      const uint64_t mh = pv & xh;
      // ph and mh are disjoint: the score moves by at most one.
      score += static_cast<uint32_t>((ph & top) != 0);
      score -= static_cast<uint32_t>((mh & top) != 0);
      const uint64_t ph1 = (ph << 1) | 1;  // row 0 grows by one per byte
      pv = (mh << 1) | ~(xv | ph1);
      mv = ph1 & xv;
    }
    return score;
  }

 private:
  uint64_t* peq_;
  std::string_view pattern_;
};

}  // namespace

uint32_t EditDistanceMyers(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a (the pattern) is the shorter
  const size_t m = a.size(), n = b.size();
  if (m == 0) return static_cast<uint32_t>(n);
  const size_t words = (m + 63) / 64;

  // Pattern-character bit masks and the vertical delta vectors; reused
  // thread_local scratch like the DP row (concurrent queries never share).
  static thread_local std::vector<uint64_t> peq;
  static thread_local std::vector<uint64_t> pv;
  static thread_local std::vector<uint64_t> mv;
  peq.assign(256 * words, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<uint8_t>(a[i]) * words + i / 64] |= 1ull << (i % 64);
  }
  pv.assign(words, ~0ull);
  mv.assign(words, 0);

  uint32_t score = static_cast<uint32_t>(m);
  const uint64_t last_top = 1ull << ((m - 1) % 64);
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* eq_row = peq.data() +
                             static_cast<size_t>(static_cast<uint8_t>(b[j])) *
                                 words;
    int h = 1;  // row 0 of the DP increases by one per text character
    for (size_t w = 0; w < words; ++w) {
      const uint64_t top = (w + 1 == words) ? last_top : (1ull << 63);
      h = AdvanceMyersBlock(&pv[w], &mv[w], eq_row[w], h, top);
    }
    score = static_cast<uint32_t>(static_cast<int64_t>(score) + h);
  }
  return score;
}

uint32_t EditDistanceBanded(std::string_view a, std::string_view b,
                            uint32_t bound) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter
  const size_t m = a.size(), n = b.size();
  // D >= |len difference|: the band cannot contain the answer.
  if (n - m > bound) return bound + 1;
  if (m == 0) return static_cast<uint32_t>(n);

  const uint32_t inf = bound + 1;  // saturating sentinel, never exceeded
  static thread_local std::vector<uint32_t> row;
  row.assign(m + 1, inf);
  const size_t k = bound;
  for (size_t x = 0; x <= std::min<size_t>(m, k); ++x) {
    row[x] = static_cast<uint32_t>(x);
  }
  for (size_t y = 1; y <= n; ++y) {
    // Cells with |x - y| > bound cannot be <= bound (D[x][y] >= |x - y|).
    const size_t lo = y > k ? y - k : 1;
    const size_t hi = std::min(m, y + k);
    if (lo > hi) return inf;
    uint32_t diag = (lo == 1) ? static_cast<uint32_t>(y - 1)
                              : row[lo - 1];  // D[lo-1][y-1] before overwrite
    uint32_t left = (lo == 1 && y <= k) ? static_cast<uint32_t>(y) : inf;
    if (lo >= 2) row[lo - 2] = inf;  // cell leaving the band
    row[lo - 1] = left;
    for (size_t x = lo; x <= hi; ++x) {
      const uint32_t sub = diag + (a[x - 1] != b[y - 1] ? 1 : 0);
      diag = row[x];
      uint32_t best = std::min({row[x] + 1, left + 1, sub});
      if (best > inf) best = inf;
      row[x] = best;
      left = best;
    }
    if (hi < m) row[hi] = left;  // already stored; keep cells right of band
    for (size_t x = hi + 1; x <= m; ++x) row[x] = inf;
  }
  return std::min(row[m], inf);
}

uint32_t EditDistance(simd::Tier tier, std::string_view a,
                      std::string_view b) {
  if (tier == simd::Tier::kScalar) return EditDistanceDp(a, b);
  if (a.size() > b.size()) std::swap(a, b);  // a (the pattern) is the shorter
  if (a.size() > kWordBits) return EditDistanceMyers(a, b);
  return PatternMasks(a).Distance(b);
}

// --- Gather entry (float lanes and edit distance) ---------------------------

void ScoreIds(MetricKind kind, simd::Tier tier, const Dataset& qd, uint32_t qi,
              const Dataset& objects, std::span<const uint32_t> ids,
              float* out) {
  if (ids.empty()) return;
  if (kind == MetricKind::kEdit) {
    const std::string_view query = qd.String(qi);
    if (tier == simd::Tier::kScalar || query.size() > kWordBits) {
      for (size_t i = 0; i < ids.size(); ++i) {
        out[i] = static_cast<float>(
            EditDistance(tier, query, objects.String(ids[i])));
      }
      return;
    }
    // Edit distance is symmetric, so a query of at most 64 bytes is the
    // pattern for every object: its masks are set once for the whole call.
    const PatternMasks masks(query);
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = static_cast<float>(masks.Distance(objects.String(ids[i])));
    }
    return;
  }
  const FloatGatherFn fn = FloatGatherKernel(kind, tier);
  const float* q = qd.Vector(qi).data();
  const uint32_t dim = objects.dim();
  const float* rows[SoaPack::kLane];
  size_t done = 0;
  while (done < ids.size()) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<size_t>(SoaPack::kLane, ids.size() - done));
    for (uint32_t l = 0; l < n; ++l) {
      rows[l] = objects.Vector(ids[done + l]).data();
    }
    for (uint32_t l = n; l < SoaPack::kLane; ++l) rows[l] = rows[n - 1];
    fn(q, rows, dim, n, out + done);
    done += n;
  }
}

}  // namespace gts::kernels
