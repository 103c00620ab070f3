// AVX-512 tier of the float lane kernels: one 8-wide double accumulator
// per block (the full SoaPack::kLane), half the accumulator instructions of
// the AVX2 tier. Same equivalence rules as kernels_avx2.cc — separate
// exactly-rounded multiply and add (no FMA contraction; enforced by compile
// flags), strict dimension order, shared scalar epilogue.
//
// Built only when the compiler accepts -mavx512f -mavx512vl
// (GTS_HAVE_KERNELS_AVX512); dispatched only when the CPU reports them.

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "metric/kernels.h"

namespace gts::kernels {

namespace {

constexpr uint32_t kLane = SoaPack::kLane;
static_assert(kLane == 8, "AVX-512 kernels assume 8 objects per block");

inline __m512d Abs(__m512d v) {
  // _mm512_and_pd needs AVX512DQ; the bit-identical integer AND is AVX512F.
  const __m512i mask =
      _mm512_set1_epi64(static_cast<long long>(0x7fffffffffffffffULL));
  return _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(v), mask));
}

inline __m256 LoadBlock(const float* block, uint32_t d) {
  return _mm256_loadu_ps(block + static_cast<size_t>(d) * kLane);
}

inline __m256 LoadGather(const float* const* rows, uint32_t d) {
  return _mm256_set_ps(rows[7][d], rows[6][d], rows[5][d], rows[4][d],
                       rows[3][d], rows[2][d], rows[1][d], rows[0][d]);
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
  __m512d acc = _mm512_setzero_pd();
  for (uint32_t d = 0; d < dim; ++d) {
    const __m256 diff = _mm256_sub_ps(_mm256_set1_ps(q[d]), load(d));
    acc = _mm512_add_pd(acc, Abs(_mm512_cvtps_pd(diff)));
  }
  double sums[kLane];
  _mm512_storeu_pd(sums, acc);
  for (uint32_t l = 0; l < count; ++l) {
    out[l] = static_cast<float>(sums[l]);
  }
}

template <typename LoadFn>
inline void L2Body(const float* q, LoadFn load, uint32_t dim, uint32_t count,
                   float* out) {
  __m512d acc = _mm512_setzero_pd();
  for (uint32_t d = 0; d < dim; ++d) {
    const __m256 diff = _mm256_sub_ps(_mm256_set1_ps(q[d]), load(d));
    const __m512d dd = _mm512_cvtps_pd(diff);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(dd, dd));
  }
  // The scalar tier's detail::ClearSign before sqrt, 8 lanes at a time.
  double sums[kLane];
  _mm512_storeu_pd(sums, Abs(acc));
  for (uint32_t l = 0; l < count; ++l) {
    out[l] = static_cast<float>(std::sqrt(sums[l]));
  }
}

template <typename LoadFn>
inline void CosBody(const float* q, LoadFn load, uint32_t dim, uint32_t count,
                    float* out) {
  const QueryAuxCache& aux = QueryAux(q, dim);
  __m512d dot_acc = _mm512_setzero_pd();
  __m512d nb_acc = _mm512_setzero_pd();
  for (uint32_t d = 0; d < dim; ++d) {
    const __m512d qd = _mm512_set1_pd(aux.qd[d]);
    const __m512d ov = _mm512_cvtps_pd(load(d));
    dot_acc = _mm512_add_pd(dot_acc, _mm512_mul_pd(qd, ov));
    nb_acc = _mm512_add_pd(nb_acc, _mm512_mul_pd(ov, ov));
  }
  double dot[kLane], nb[kLane];
  _mm512_storeu_pd(dot, dot_acc);
  _mm512_storeu_pd(nb, nb_acc);
  for (uint32_t l = 0; l < count; ++l) {
    out[l] = detail::CosFinish(dot[l], aux.na, nb[l]);
  }
}

}  // namespace

void L1Block_Avx512(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out) {
  L1Body(q, [&](uint32_t d) { return LoadBlock(block, d); }, dim, count, out);
}

void L2Block_Avx512(const float* q, const float* block, uint32_t dim,
                    uint32_t count, float* out) {
  L2Body(q, [&](uint32_t d) { return LoadBlock(block, d); }, dim, count, out);
}

void CosBlock_Avx512(const float* q, const float* block, uint32_t dim,
                     uint32_t count, float* out) {
  CosBody(q, [&](uint32_t d) { return LoadBlock(block, d); }, dim, count, out);
}

void L1Gather_Avx512(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out) {
  L1Body(q, [&](uint32_t d) { return LoadGather(rows, d); }, dim, count, out);
}

void L2Gather_Avx512(const float* q, const float* const* rows, uint32_t dim,
                     uint32_t count, float* out) {
  L2Body(q, [&](uint32_t d) { return LoadGather(rows, d); }, dim, count, out);
}

void CosGather_Avx512(const float* q, const float* const* rows, uint32_t dim,
                      uint32_t count, float* out) {
  CosBody(q, [&](uint32_t d) { return LoadGather(rows, d); }, dim, count, out);
}

}  // namespace gts::kernels
