// AVX2 (+FMA) kernels. 256-bit lanes carry all four of the scalar
// reference's accumulators in one register; the sparse dots pack the
// four weight loads with _mm256_set_pd (measured faster than
// vgatherdpd on every CPU we benched — the gather's index-vector
// round-trip costs more than four scalar loads that all hit cache).
// The f64 kernels use separate multiply and add (never FMA) and the
// exact (s0+s1)+(s2+s3) reduction, so they are bit-identical to the
// scalar tier; the f32 kernels widen float values with vcvtps2pd and
// are the one place FMA is used — their rounding is
// tolerance-checked, not bit-pinned.
//
// This TU is the only one built with -mavx2 -mfma; it must never be
// entered on a CPU without AVX2 (the dispatch probe guarantees that).
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>

#include "core/simd/kernels.h"

namespace mllibstar {
namespace simd {
namespace {

// (s0+s1)+(s2+s3) with the exact scalar association.
inline double Reduce4(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // s0, s1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // s2, s3
  const double s0 = _mm_cvtsd_f64(lo);
  const double s1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double s2 = _mm_cvtsd_f64(hi);
  const double s3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (s0 + s1) + (s2 + s3);
}

// Four scalar weight loads packed into one 256-bit register
// (vmovsd/vmovhpd + vinsertf128 under the hood).
inline __m256d Pack4(const double* w, const FeatureIndex* idx) {
  return _mm256_set_pd(w[idx[3]], w[idx[2]], w[idx[1]], w[idx[0]]);
}

}  // namespace

double SparseDotF64Avx2(const double* __restrict w,
                        const FeatureIndex* __restrict idx,
                        const double* __restrict val, size_t nnz) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(Pack4(w, idx + i), _mm256_loadu_pd(val + i)));
  }
  double sum = Reduce4(acc);
  for (; i < nnz; ++i) sum += w[idx[i]] * val[i];
  return sum;
}

double SparseDotF32Avx2(const double* __restrict w,
                        const FeatureIndex* __restrict idx,
                        const float* __restrict val, size_t nnz) {
  // Half the value bytes per element, and FMA halves the arithmetic
  // ops; the accumulator stays f64.
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    const __m256d v =
        _mm256_cvtps_pd(_mm_loadu_ps(val + i));
    acc = _mm256_fmadd_pd(Pack4(w, idx + i), v, acc);
  }
  double sum = Reduce4(acc);
  for (; i < nnz; ++i) sum += w[idx[i]] * static_cast<double>(val[i]);
  return sum;
}

void SparseAxpyF64Avx2(double* __restrict w,
                       const FeatureIndex* __restrict idx,
                       const double* __restrict val, size_t nnz,
                       double alpha) {
  // Vector products, scalar scatter stores (no scatter below
  // AVX-512). Per-coordinate independence keeps this bit-identical.
  const __m256d a = _mm256_set1_pd(alpha);
  alignas(32) double p[4];
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    _mm256_store_pd(p, _mm256_mul_pd(a, _mm256_loadu_pd(val + i)));
    w[idx[i]] += p[0];
    w[idx[i + 1]] += p[1];
    w[idx[i + 2]] += p[2];
    w[idx[i + 3]] += p[3];
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * val[i];
}

void SparseAxpyF32Avx2(double* __restrict w,
                       const FeatureIndex* __restrict idx,
                       const float* __restrict val, size_t nnz,
                       double alpha) {
  const __m256d a = _mm256_set1_pd(alpha);
  alignas(32) double p[4];
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(val + i));
    _mm256_store_pd(p, _mm256_mul_pd(a, v));
    w[idx[i]] += p[0];
    w[idx[i + 1]] += p[1];
    w[idx[i + 2]] += p[2];
    w[idx[i + 3]] += p[3];
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * static_cast<double>(val[i]);
}

double DenseDotAvx2(const double* __restrict a, const double* __restrict b,
                    size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double sum = Reduce4(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DenseAxpyAvx2(double* __restrict w, const double* __restrict x,
                   size_t n, double alpha) {
  const __m256d a = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(w + i,
                     _mm256_add_pd(_mm256_loadu_pd(w + i),
                                   _mm256_mul_pd(a, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) w[i] += alpha * x[i];
}

// ---- Linear-quantization codec kernels --------------------------------
//
// minpd/maxpd return their second operand when either input is NaN or
// both are zeros, so min(v, acc) / max(v, acc) is the scalar chain's
// std::min(acc, v) / std::max(acc, v) lane by lane. Seeding every lane
// with x[0] keeps a NaN x[0] sticky and makes each lane a min/max over
// a subset that contains x[0]; the lane fold and FixZeroEndpoints then
// give the scalar chain's exact bits.

void ChunkMinMaxAvx2(const double* __restrict x, size_t n, double* lo,
                     double* hi) {
  if (n < 8) {
    ChunkMinMaxScalar(x, n, lo, hi);
    return;
  }
  // Two accumulator pairs hide the min/max latency.
  __m256d lo0 = _mm256_set1_pd(x[0]);
  __m256d lo1 = lo0;
  __m256d hi0 = lo0;
  __m256d hi1 = lo0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a = _mm256_loadu_pd(x + i);
    const __m256d b = _mm256_loadu_pd(x + i + 4);
    lo0 = _mm256_min_pd(a, lo0);
    lo1 = _mm256_min_pd(b, lo1);
    hi0 = _mm256_max_pd(a, hi0);
    hi1 = _mm256_max_pd(b, hi1);
  }
  alignas(32) double l[4];
  alignas(32) double h[4];
  _mm256_store_pd(l, _mm256_min_pd(lo1, lo0));
  _mm256_store_pd(h, _mm256_max_pd(hi1, hi0));
  double lv = l[0];
  double hv = h[0];
  for (int j = 1; j < 4; ++j) {
    lv = std::min(lv, l[j]);
    hv = std::max(hv, h[j]);
  }
  for (; i < n; ++i) {
    lv = std::min(lv, x[i]);
    hv = std::max(hv, x[i]);
  }
  FixZeroEndpoints(x, &lv, &hv);
  *lo = lv;
  *hi = hv;
}

namespace {

// Four levels as doubles: the scalar QuantizeOne lane by lane. Clamp
// with max(a, 0) then min(c, L) (NaN → 0 through maxpd's second
// operand), truncate, and add 1 where the exact remainder is >= 0.5.
inline __m256d QuantizeLanes(const double* x, __m256d lo, __m256d scale,
                             __m256d levels) {
  const __m256d a = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x), lo),
                                  scale);
  const __m256d c =
      _mm256_min_pd(_mm256_max_pd(a, _mm256_setzero_pd()), levels);
  const __m256d t = _mm256_round_pd(c, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d up = _mm256_cmp_pd(_mm256_sub_pd(c, t), _mm256_set1_pd(0.5),
                                   _CMP_GE_OQ);
  return _mm256_add_pd(t, _mm256_and_pd(up, _mm256_set1_pd(1.0)));
}

}  // namespace

void QuantizeU8Avx2(const double* __restrict x, size_t n, double lo,
                    double scale, uint8_t* __restrict out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d levels = _mm256_set1_pd(255.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i q0 =
        _mm256_cvttpd_epi32(QuantizeLanes(x + i, vlo, vscale, levels));
    const __m128i q1 =
        _mm256_cvttpd_epi32(QuantizeLanes(x + i + 4, vlo, vscale, levels));
    const __m128i w = _mm_packs_epi32(q0, q1);  // levels fit in int16
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(w, w));
  }
  QuantizeU8Scalar(x + i, n - i, lo, scale, out + i);
}

void QuantizeU16Avx2(const double* __restrict x, size_t n, double lo,
                     double scale, uint8_t* __restrict out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d levels = _mm256_set1_pd(65535.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i q0 =
        _mm256_cvttpd_epi32(QuantizeLanes(x + i, vlo, vscale, levels));
    const __m128i q1 =
        _mm256_cvttpd_epi32(QuantizeLanes(x + i + 4, vlo, vscale, levels));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * i),
                     _mm_packus_epi32(q0, q1));
  }
  QuantizeU16Scalar(x + i, n - i, lo, scale, out + 2 * i);
}

// lo + q · step as a separate multiply and add (never FMA), exactly the
// scalar rounding.
void DequantizeU8Avx2(const uint8_t* __restrict q, size_t n, double lo,
                      double step, double* __restrict out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vstep = _mm256_set1_pd(step);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i)));
    const __m256d d0 = _mm256_cvtepi32_pd(_mm256_castsi256_si128(q32));
    const __m256d d1 = _mm256_cvtepi32_pd(_mm256_extracti128_si256(q32, 1));
    _mm256_storeu_pd(out + i, _mm256_add_pd(vlo, _mm256_mul_pd(d0, vstep)));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_add_pd(vlo, _mm256_mul_pd(d1, vstep)));
  }
  DequantizeU8Scalar(q + i, n - i, lo, step, out + i);
}

void DequantizeU16Avx2(const uint8_t* __restrict q, size_t n, double lo,
                       double step, double* __restrict out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vstep = _mm256_set1_pd(step);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q32 = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 2 * i)));
    const __m256d d0 = _mm256_cvtepi32_pd(_mm256_castsi256_si128(q32));
    const __m256d d1 = _mm256_cvtepi32_pd(_mm256_extracti128_si256(q32, 1));
    _mm256_storeu_pd(out + i, _mm256_add_pd(vlo, _mm256_mul_pd(d0, vstep)));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_add_pd(vlo, _mm256_mul_pd(d1, vstep)));
  }
  DequantizeU16Scalar(q + 2 * i, n - i, lo, step, out + i);
}

}  // namespace simd
}  // namespace mllibstar

#endif  // x86-64
