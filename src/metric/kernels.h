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
// with the caller (DistanceMetric::DistanceBatch/DistanceBlock): these
// functions only compute.
#ifndef GTS_METRIC_KERNELS_H_
#define GTS_METRIC_KERNELS_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

#include "metric/distance.h"
#include "metric/simd.h"
#include "metric/soa.h"

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

/// Scores query object `qi` of `qd` against objects `ids` of `objects`.
/// Float datasets run the gather lane kernels; string datasets run the
/// dispatched edit kernel, except that off the scalar tier a query of at
/// most 64 bytes is the single-word Myers pattern for every id, its masks
/// built once per call.
void ScoreIds(MetricKind kind, simd::Tier tier, const Dataset& qd, uint32_t qi,
              const Dataset& objects, std::span<const uint32_t> ids,
              float* out);

// --- Edit-distance kernels --------------------------------------------------

/// Reference two-row Levenshtein DP (the scalar tier).
uint32_t EditDistanceDp(std::string_view a, std::string_view b);

/// Myers bit-parallel Levenshtein (blocked, exact for any lengths): the
/// shorter string's characters become bit masks and each text character
/// advances ceil(m/64) 64-bit words instead of m DP cells.
uint32_t EditDistanceMyers(std::string_view a, std::string_view b);

/// Ukkonen banded Levenshtein: exact when the true distance is <= `bound`,
/// otherwise returns some value > bound (callers pruning with a proven
/// bound never observe the difference). bound >= max(len) degenerates to
/// the exact distance.
uint32_t EditDistanceBanded(std::string_view a, std::string_view b,
                            uint32_t bound);

/// Dispatched edit distance: the scalar tier runs the DP reference; the
/// other tiers run single-word Myers (the shorter string as the pattern,
/// its masks built per pair) when the shorter string is at most 64 bytes,
/// and the blocked EditDistanceMyers otherwise. Always exact, on every
/// tier.
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
