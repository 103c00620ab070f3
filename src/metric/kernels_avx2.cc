// AVX2 tier of the float lane kernels. One vector lane per object: lane l
// accumulates object l's distance with exactly the scalar arithmetic —
// 32-bit float subtract, promote to double, multiply and add as SEPARATE
// exactly-rounded operations (never fused: this file is compiled without
// FMA and with contraction disabled, see CMakeLists.txt), dimensions in
// strict order. The cosine epilogue (CosFinish) is the same scalar code
// every tier runs; the L1 and L2 ones run 4 lanes at a time with the same
// IEEE operations (exactly rounded sqrt and narrowing). That is what makes
// the tier bitwise-equal to scalar.
//
// Built only when the compiler accepts -mavx2 (GTS_HAVE_KERNELS_AVX2);
// the dispatcher only selects it when the CPU reports AVX2.

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "metric/kernels.h"

namespace gts::kernels {

namespace {

constexpr uint32_t kLane = SoaPack::kLane;
static_assert(kLane == 8, "AVX2 kernels assume 8 objects per block");

// Clears the sign bit — IEEE-754 fabs, same as std::fabs on the promoted
// double in the scalar reference.
inline __m256d Abs(__m256d v) {
  const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  return _mm256_and_pd(v, mask);
}

// detail::SaturatingNarrow on two 4-lane halves, storing the first
// `count` lanes: min(FLT_MAX, x) is x itself when x is a NaN (vminpd
// returns its second operand), and the packed conversion rounds and keeps
// a NaN's payload as the scalar one does.
inline void StoreNarrow(__m256d lo, __m256d hi, uint32_t count, float* out) {
  const __m256d max = _mm256_set1_pd(std::numeric_limits<float>::max());
  const __m256 narrow =
      _mm256_set_m128(_mm256_cvtpd_ps(_mm256_min_pd(max, hi)),
                      _mm256_cvtpd_ps(_mm256_min_pd(max, lo)));
  if (count == kLane) {
    _mm256_storeu_ps(out, narrow);
    return;
  }
  float lanes[kLane];
  _mm256_storeu_ps(lanes, narrow);
  std::memcpy(out, lanes, count * sizeof(float));
}

// 8 object values for dimension d: block path loads them contiguously,
// gather path picks rows[l][d].
inline __m256 LoadBlock(const float* block, uint32_t d) {
  return _mm256_loadu_ps(block + static_cast<size_t>(d) * kLane);
}

inline __m256 LoadGather(const float* const* rows, uint32_t d) {
  return _mm256_set_ps(rows[7][d], rows[6][d], rows[5][d], rows[4][d],
                       rows[3][d], rows[2][d], rows[1][d], rows[0][d]);
}

// Promote the two float quads to doubles (cvtps2pd is exact).
inline __m256d LowPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
inline __m256d HighPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

// Per-thread memo of the cosine kernel's query-side work: the per-dimension
// double promotions (so the hot loop broadcasts from memory instead of
// converting) and the self-norm na (lane-invariant: every lane would
// accumulate the identical qd*qd sequence, so one scalar pass produces the
// exact per-lane value). Keyed on a bitwise copy of the query vector —
// bit-equal floats promote to bit-equal doubles, so a hit is exact even
// for NaN payloads or a reused allocation.
struct QueryAuxCache {
  std::vector<float> key;
  std::vector<double> qd;
  double na = 0.0;
};

inline const QueryAuxCache& QueryAux(const float* q, uint32_t dim) {
  thread_local QueryAuxCache cache;
  if (cache.key.size() != dim ||
      std::memcmp(cache.key.data(), q, dim * sizeof(float)) != 0) {
    cache.key.assign(q, q + dim);
    cache.qd.resize(dim);
    double na = 0.0;
    for (uint32_t d = 0; d < dim; ++d) {
      const double v = static_cast<double>(q[d]);
      cache.qd[d] = v;
      na += v * v;
    }
    cache.na = na;
  }
  return cache;
}

template <typename LoadFn>
inline void L1Body(const float* q, LoadFn load, uint32_t dim, uint32_t count,
                   float* out) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (uint32_t d = 0; d < dim; ++d) {
    const __m256 diff = _mm256_sub_ps(_mm256_set1_ps(q[d]), load(d));
    acc_lo = _mm256_add_pd(acc_lo, Abs(LowPd(diff)));
    acc_hi = _mm256_add_pd(acc_hi, Abs(HighPd(diff)));
  }
  StoreNarrow(acc_lo, acc_hi, count, out);
}

template <typename LoadFn>
inline void L2Body(const float* q, LoadFn load, uint32_t dim, uint32_t count,
                   float* out) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (uint32_t d = 0; d < dim; ++d) {
    const __m256 diff = _mm256_sub_ps(_mm256_set1_ps(q[d]), load(d));
    const __m256d lo = LowPd(diff);
    const __m256d hi = HighPd(diff);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(lo, lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(hi, hi));
  }
  // The scalar tier's detail::ClearSign and sqrt, 4 lanes at a time; IEEE
  // sqrt is exactly rounded and keeps a NaN's payload, as std::sqrt does.
  StoreNarrow(_mm256_sqrt_pd(Abs(acc_lo)), _mm256_sqrt_pd(Abs(acc_hi)), count,
              out);
}

template <typename LoadFn>
inline void CosBody(const float* q, LoadFn load, uint32_t dim, uint32_t count,
                    float* out) {
  const QueryAuxCache& aux = QueryAux(q, dim);
  __m256d dot_lo = _mm256_setzero_pd(), dot_hi = _mm256_setzero_pd();
  __m256d nb_lo = _mm256_setzero_pd(), nb_hi = _mm256_setzero_pd();
  for (uint32_t d = 0; d < dim; ++d) {
    const __m256d qd = _mm256_set1_pd(aux.qd[d]);
    const __m256 ov = load(d);
    const __m256d olo = LowPd(ov);
    const __m256d ohi = HighPd(ov);
    dot_lo = _mm256_add_pd(dot_lo, _mm256_mul_pd(qd, olo));
    dot_hi = _mm256_add_pd(dot_hi, _mm256_mul_pd(qd, ohi));
    nb_lo = _mm256_add_pd(nb_lo, _mm256_mul_pd(olo, olo));
    nb_hi = _mm256_add_pd(nb_hi, _mm256_mul_pd(ohi, ohi));
  }
  double dot[kLane], nb[kLane];
  _mm256_storeu_pd(dot, dot_lo);
  _mm256_storeu_pd(dot + 4, dot_hi);
  _mm256_storeu_pd(nb, nb_lo);
  _mm256_storeu_pd(nb + 4, nb_hi);
  for (uint32_t l = 0; l < count; ++l) {
    out[l] = detail::CosFinish(dot[l], aux.na, nb[l]);
  }
}

}  // namespace

void L1Block_Avx2(const float* q, const float* block, uint32_t dim,
                  uint32_t count, float* out) {
  L1Body(q, [&](uint32_t d) { return LoadBlock(block, d); }, dim, count, out);
}

void L2Block_Avx2(const float* q, const float* block, uint32_t dim,
                  uint32_t count, float* out) {
  L2Body(q, [&](uint32_t d) { return LoadBlock(block, d); }, dim, count, out);
}

void CosBlock_Avx2(const float* q, const float* block, uint32_t dim,
                   uint32_t count, float* out) {
  CosBody(q, [&](uint32_t d) { return LoadBlock(block, d); }, dim, count, out);
}

void L1Gather_Avx2(const float* q, const float* const* rows, uint32_t dim,
                   uint32_t count, float* out) {
  L1Body(q, [&](uint32_t d) { return LoadGather(rows, d); }, dim, count, out);
}

void L2Gather_Avx2(const float* q, const float* const* rows, uint32_t dim,
                   uint32_t count, float* out) {
  L2Body(q, [&](uint32_t d) { return LoadGather(rows, d); }, dim, count, out);
}

void CosGather_Avx2(const float* q, const float* const* rows, uint32_t dim,
                    uint32_t count, float* out) {
  CosBody(q, [&](uint32_t d) { return LoadGather(rows, d); }, dim, count, out);
}

}  // namespace gts::kernels
