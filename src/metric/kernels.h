// Block distance kernels: score one query against many objects per call.
//
// Two data paths feed the same per-lane arithmetic:
//   - Block: objects are consecutive slots of a SoaPack (metric/soa.h) —
//     contiguous lane-major loads, the leaf-verification fast path.
//   - Gather: objects are arbitrary Dataset rows addressed by id — the
//     builder, cache-scan and candidate-verification path.
//
// Equivalence contract (see metric/simd.h): every tier of every kernel, on
// either data path, produces bitwise-identical distances — each lane
// replicates the scalar DistanceMetric implementation's exact arithmetic
// (float subtraction, double promotion, sequential accumulation over
// dimensions, the same final sqrt/acos tail). The edit kernels are exact
// integer algorithms, so equality there is trivial. Work accounting stays
// with the caller (DistanceMetric::DistanceBatch/DistanceBlock and
// DistanceMetric::QueryScorer): these functions only compute.
//
// Bound contract: the entry points that take a `bound` give a pair its
// exact distance when that distance is at most the bound, and some value
// above the bound otherwise. Only edit distance uses it (a length
// difference above the bound ends the pair before any kernel runs); the
// float kinds ignore it and are always exact. At the default kNoBound
// every call is exact.
#ifndef GTS_METRIC_KERNELS_H_
#define GTS_METRIC_KERNELS_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "metric/dataset.h"
#include "metric/simd.h"
#include "metric/soa.h"

namespace gts {

enum class MetricKind;  // metric/distance.h

/// The bound of an unbounded call: every pair gets its exact distance.
inline constexpr float kNoBound = std::numeric_limits<float>::infinity();

}  // namespace gts

namespace gts::kernels {

// --- Float-vector lane kernels ---------------------------------------------
// `q` is the query vector (dim floats, object-major). Block kernels read
// `count <= SoaPack::kLane` objects from one lane-major block (layout in
// metric/soa.h); gather kernels read object-major rows via `rows[lane]`.
// All write exactly `count` distances to `out`.

using FloatBlockFn = void (*)(const float* q, const float* block, uint32_t dim,
                              uint32_t count, float* out);
using FloatGatherFn = void (*)(const float* q, const float* const* rows,
                               uint32_t dim, uint32_t count, float* out);

/// Block/gather kernel for `kind` (kL1/kL2/kAngularCosine) at `tier`,
/// clamped to the widest compiled+CPU-supported tier. Never null.
FloatBlockFn FloatBlockKernel(MetricKind kind, simd::Tier tier);
FloatGatherFn FloatGatherKernel(MetricKind kind, simd::Tier tier);

/// Scores query `q` against `count` consecutive slots of `pack` starting at
/// `pos` (any alignment: partial first/last blocks are handled).
void ScoreBlockFloat(MetricKind kind, simd::Tier tier, const float* q,
                     const SoaPack& pack, uint32_t pos, uint32_t count,
                     float* out);

/// Scores query object `qi` of `qd` against objects `ids` of `objects`,
/// bounded by `bound` (see the bound contract above). Float datasets run
/// the gather lane kernels; string datasets score every id through one
/// EditQuery for the query, so its masks are built once per call.
void ScoreIds(MetricKind kind, simd::Tier tier, const Dataset& qd, uint32_t qi,
              const Dataset& objects, std::span<const uint32_t> ids,
              float* out, float bound = kNoBound);

// --- Edit-distance kernels --------------------------------------------------

/// Reference two-row Levenshtein DP (the scalar tier).
uint32_t EditDistanceDp(std::string_view a, std::string_view b);

/// Myers bit-parallel Levenshtein (blocked, exact for any lengths): the
/// shorter string's characters become bit masks and each text character
/// advances ceil(m/64) 64-bit words instead of m DP cells.
uint32_t EditDistanceMyers(std::string_view a, std::string_view b);

/// One edit-distance query scored against many texts, its setup made once.
/// The scalar tier runs the DP reference per text. Off it, a query of at
/// most 64 bytes is the single-word Myers pattern (one word step per text
/// byte): its character masks are set in this thread's mask table on
/// construction and cleared on destruction, which costs O(m) instead of a
/// 256-word wipe. A longer query runs the blocked EditDistanceMyers per
/// text. EditQuery is the mask table's only owner: at most one pattern may
/// be live per thread (checked in debug builds).
class EditQuery {
 public:
  EditQuery(simd::Tier tier, std::string_view query);
  ~EditQuery();
  EditQuery(const EditQuery&) = delete;
  EditQuery& operator=(const EditQuery&) = delete;

  /// Distance from the query to `text`, bounded (see the bound contract
  /// above). A length difference above `bound` is returned as is, since it
  /// is a lower bound on the distance; any other pair runs the kernel.
  /// Inline, like the pattern kernel, because it runs once per pair.
  uint32_t Distance(std::string_view text, float bound = kNoBound) const {
    const size_t m = query_.size();
    const size_t n = text.size();
    const uint32_t len_gap = static_cast<uint32_t>(m > n ? m - n : n - m);
    if (static_cast<float>(len_gap) > bound) return len_gap;
    return peq_ != nullptr ? PatternDistance(text) : TextDistance(text);
  }

 private:
  /// Single-word Myers (Hyyrö's formulation), the query as the pattern:
  /// edit distance is symmetric, so the text may be the shorter string.
  uint32_t PatternDistance(std::string_view text) const {
    const size_t m = query_.size();
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
  /// The scalar tier's DP, or the blocked Myers kernel for a long query.
  uint32_t TextDistance(std::string_view text) const;

  std::string_view query_;
  simd::Tier tier_;
  // This thread's mask table while it holds the query's pattern, else null.
  const uint64_t* peq_ = nullptr;
};

/// Dispatched edit distance: an EditQuery for the shorter string, scored
/// against the longer one. Always exact, on every tier.
uint32_t EditDistance(simd::Tier tier, std::string_view a, std::string_view b);

namespace detail {
/// Cosine epilogue shared by every tier (defined once, in kernels.cc, so all
/// tiers run the same compiled code for the branchy scalar tail).
float CosFinish(double dot, double na, double nb);

/// `x` with its sign bit cleared. The L2 sum of squares and the cosine
/// result are non-negative by construction, so this changes only a NaN's
/// sign, which otherwise depends on a tier's operand order; every tier and
/// the per-object metrics clear it, so a NaN reads the same bits on all of
/// them. Not std::fabs: a compiler may drop a fabs whose argument it proves
/// non-negative (acos's result), taking a NaN's sign as unspecified.
inline double ClearSign(double x) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(x) &
                               ~(uint64_t{1} << 63));
}

/// An L1 or L2 distance narrowed to float, saturating at FLT_MAX. Finite
/// coordinates can be farther apart than FLT_MAX, and +inf would break the
/// ring tests' lower bound |d(q,p) - d(o,p)| (Lemmas 5.1 and 5.2), pruning
/// true answers; min(d, FLT_MAX) is still a metric. A NaN keeps its bits.
/// Every tier and the per-object metrics narrow through this.
inline float SaturatingNarrow(double x) {
  constexpr float kMax = std::numeric_limits<float>::max();
  const float f = static_cast<float>(x);
  return f > kMax ? kMax : f;
}
}  // namespace detail

// --- Per-tier entry points (resolved by the dispatchers above; exposed so
// --- the differential tests can pin a tier explicitly) ----------------------

void L1Block_Scalar(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out);
void L2Block_Scalar(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out);
void CosBlock_Scalar(const float* q, const float* block, uint32_t dim,
                     uint32_t count, float* out);
void L1Gather_Scalar(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out);
void L2Gather_Scalar(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out);
void CosGather_Scalar(const float* q, const float* const* rows, uint32_t dim,
                      uint32_t count, float* out);

// Compiled only when CMake enables the ISA (GTS_HAVE_KERNELS_AVX2 /
// GTS_HAVE_KERNELS_AVX512); the dispatchers never select a tier that is
// not compiled in and CPU-supported.
void L1Block_Avx2(const float* q, const float* block, uint32_t dim,
                  uint32_t count, float* out);
void L2Block_Avx2(const float* q, const float* block, uint32_t dim,
                  uint32_t count, float* out);
void CosBlock_Avx2(const float* q, const float* block, uint32_t dim,
                   uint32_t count, float* out);
void L1Gather_Avx2(const float* q, const float* const* rows, uint32_t dim,
                   uint32_t count, float* out);
void L2Gather_Avx2(const float* q, const float* const* rows, uint32_t dim,
                   uint32_t count, float* out);
void CosGather_Avx2(const float* q, const float* const* rows, uint32_t dim,
                    uint32_t count, float* out);

void L1Block_Avx512(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out);
void L2Block_Avx512(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out);
void CosBlock_Avx512(const float* q, const float* block, uint32_t dim,
                     uint32_t count, float* out);
void L1Gather_Avx512(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out);
void L2Gather_Avx512(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out);
void CosGather_Avx512(const float* q, const float* const* rows, uint32_t dim,
                      uint32_t count, float* out);

}  // namespace gts::kernels

#endif  // GTS_METRIC_KERNELS_H_
