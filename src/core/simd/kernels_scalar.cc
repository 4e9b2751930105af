// Scalar reference kernels. This is the arithmetic the pre-SIMD
// DenseVector loops performed (four independent accumulators, pairwise
// (s0+s1)+(s2+s3) reduction, sequential remainder), moved verbatim
// into the dispatch layer: the vector tiers reproduce the f64 results
// bit-for-bit, and tests/simd_test pins them against this file.
//
// Built with -ffp-contract=off (see src/core/CMakeLists.txt) so the
// compiler cannot fuse any a*b+c into an FMA behind our back — the
// rounding of every kernel is exactly one multiply round plus one add
// round per element at every dispatch level.
#include "core/simd/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace mllibstar {
namespace simd {

double SparseDotF64Scalar(const double* __restrict w,
                          const FeatureIndex* __restrict idx,
                          const double* __restrict val, size_t nnz) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    s0 += w[idx[i]] * val[i];
    s1 += w[idx[i + 1]] * val[i + 1];
    s2 += w[idx[i + 2]] * val[i + 2];
    s3 += w[idx[i + 3]] * val[i + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < nnz; ++i) sum += w[idx[i]] * val[i];
  return sum;
}

double SparseDotF32Scalar(const double* __restrict w,
                          const FeatureIndex* __restrict idx,
                          const float* __restrict val, size_t nnz) {
  // f32 values widened per element; model reads and all four
  // accumulators stay f64. Same lane structure as the f64 kernel.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    s0 += w[idx[i]] * static_cast<double>(val[i]);
    s1 += w[idx[i + 1]] * static_cast<double>(val[i + 1]);
    s2 += w[idx[i + 2]] * static_cast<double>(val[i + 2]);
    s3 += w[idx[i + 3]] * static_cast<double>(val[i + 3]);
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < nnz; ++i) sum += w[idx[i]] * static_cast<double>(val[i]);
  return sum;
}

void SparseAxpyF64Scalar(double* __restrict w,
                         const FeatureIndex* __restrict idx,
                         const double* __restrict val, size_t nnz,
                         double alpha) {
  // Each coordinate updates independently (indices are strictly
  // increasing within a row), so unrolling cannot change the result;
  // it only breaks the loop-carried address dependence.
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    w[idx[i]] += alpha * val[i];
    w[idx[i + 1]] += alpha * val[i + 1];
    w[idx[i + 2]] += alpha * val[i + 2];
    w[idx[i + 3]] += alpha * val[i + 3];
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * val[i];
}

void SparseAxpyF32Scalar(double* __restrict w,
                         const FeatureIndex* __restrict idx,
                         const float* __restrict val, size_t nnz,
                         double alpha) {
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    w[idx[i]] += alpha * static_cast<double>(val[i]);
    w[idx[i + 1]] += alpha * static_cast<double>(val[i + 1]);
    w[idx[i + 2]] += alpha * static_cast<double>(val[i + 2]);
    w[idx[i + 3]] += alpha * static_cast<double>(val[i + 3]);
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * static_cast<double>(val[i]);
}

double DenseDotScalar(const double* __restrict a,
                      const double* __restrict b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DenseAxpyScalar(double* __restrict w, const double* __restrict x,
                     size_t n, double alpha) {
  for (size_t i = 0; i < n; ++i) w[i] += alpha * x[i];
}

// ---- Linear-quantization codec kernels --------------------------------

void ChunkMinMaxScalar(const double* __restrict x, size_t n, double* lo,
                       double* hi) {
  if (n == 0) {
    *lo = *hi = 0.0;
    return;
  }
  double l = x[0];
  double h = x[0];
  for (size_t i = 1; i < n; ++i) {
    l = std::min(l, x[i]);
    h = std::max(h, x[i]);
  }
  *lo = l;
  *hi = h;
}

void FixZeroEndpoints(const double* x, double* lo, double* hi) {
  if (*lo != 0.0 && *hi != 0.0) return;
  size_t i = 0;
  while (x[i] != 0.0) ++i;  // terminates: some x[i] equals the endpoint
  if (*lo == 0.0) *lo = x[i];
  if (*hi == 0.0) *hi = x[i];
}

namespace {

// clamp(std::round(a), 0, L) for every non-NaN a, without libm:
// clamping first is equivalent (L is an integer, so rounding cannot
// leave [0, L] once inside it), and inside [0, L] the truncation t is
// an exact integer whose remainder c - t is exact too, so `>= 0.5` is
// precisely the half-away-from-zero rule. The max/min forms match
// maxpd/minpd operand order, so a NaN product becomes level 0 here
// exactly as in the vector tiers.
template <typename LevelT>
inline LevelT QuantizeOne(double x, double lo, double scale) {
  constexpr double kLevels =
      static_cast<double>(std::numeric_limits<LevelT>::max());
  const double a = (x - lo) * scale;
  double c = a > 0.0 ? a : 0.0;
  c = c < kLevels ? c : kLevels;
  const uint32_t t = static_cast<uint32_t>(c);
  return static_cast<LevelT>(t + (c - static_cast<double>(t) >= 0.5));
}

}  // namespace

void QuantizeU8Scalar(const double* __restrict x, size_t n, double lo,
                      double scale, uint8_t* __restrict out) {
  for (size_t i = 0; i < n; ++i) out[i] = QuantizeOne<uint8_t>(x[i], lo, scale);
}

void QuantizeU16Scalar(const double* __restrict x, size_t n, double lo,
                       double scale, uint8_t* __restrict out) {
  for (size_t i = 0; i < n; ++i) {
    const uint16_t q = QuantizeOne<uint16_t>(x[i], lo, scale);
    std::memcpy(out + 2 * i, &q, sizeof(q));
  }
}

void DequantizeU8Scalar(const uint8_t* __restrict q, size_t n, double lo,
                        double step, double* __restrict out) {
  for (size_t i = 0; i < n; ++i) out[i] = lo + static_cast<double>(q[i]) * step;
}

void DequantizeU16Scalar(const uint8_t* __restrict q, size_t n, double lo,
                         double step, double* __restrict out) {
  for (size_t i = 0; i < n; ++i) {
    uint16_t level;
    std::memcpy(&level, q + 2 * i, sizeof(level));
    out[i] = lo + static_cast<double>(level) * step;
  }
}

}  // namespace simd
}  // namespace mllibstar
