#ifndef MLLIBSTAR_CORE_SIMD_KERNELS_H_
#define MLLIBSTAR_CORE_SIMD_KERNELS_H_

// Internal declarations of the per-level kernel implementations the
// dispatch table points at. Each tier lives in its own translation
// unit so it can carry its own -m flags (kernels_avx2.cc is built
// with -mavx2 -mfma); all three are built with -ffp-contract=off so
// no compiler-fused multiply-add can break the f64 bit-equality
// contract between tiers. Not part of the public API — callers go
// through simd::Kernels() (or DenseVector, which routes there).

#include <cstddef>
#include <cstdint>

#include "core/vector.h"

namespace mllibstar {
namespace simd {

#define MLLIBSTAR_DECLARE_KERNELS(SUFFIX)                                  \
  double SparseDotF64##SUFFIX(const double* w, const FeatureIndex* idx,    \
                              const double* val, size_t nnz);              \
  double SparseDotF32##SUFFIX(const double* w, const FeatureIndex* idx,    \
                              const float* val, size_t nnz);               \
  void SparseAxpyF64##SUFFIX(double* w, const FeatureIndex* idx,           \
                             const double* val, size_t nnz, double alpha); \
  void SparseAxpyF32##SUFFIX(double* w, const FeatureIndex* idx,           \
                             const float* val, size_t nnz, double alpha);  \
  double DenseDot##SUFFIX(const double* a, const double* b, size_t n);     \
  void DenseAxpy##SUFFIX(double* w, const double* x, size_t n,            \
                         double alpha);                                    \
  void ChunkMinMax##SUFFIX(const double* x, size_t n, double* lo,          \
                           double* hi)

MLLIBSTAR_DECLARE_KERNELS(Scalar);

// Lane-parallel min/max tiers finish through this: an endpoint that
// compares equal to zero is replaced by the first zero of x in index
// order — the one the sequential chain keeps — because lanes may have
// seen a zero of the other sign first. Every other endpoint value is
// the same whatever the lane split (min/max of a set), so after this
// the result is bit-identical to ChunkMinMaxScalar.
void FixZeroEndpoints(const double* x, double* lo, double* hi);

// The quantizer kernels: scalar reference plus one AVX2 form. SSE2
// aliases the scalar ones (no packed zero-extending loads or unsigned
// 32-bit packs there); AVX-512 reuses the AVX2 ones.
#define MLLIBSTAR_DECLARE_QUANT_KERNELS(SUFFIX)                             \
  void QuantizeU8##SUFFIX(const double* x, size_t n, double lo,             \
                          double scale, uint8_t* out);                      \
  void QuantizeU16##SUFFIX(const double* x, size_t n, double lo,            \
                           double scale, uint8_t* out);                     \
  void DequantizeU8##SUFFIX(const uint8_t* q, size_t n, double lo,          \
                            double step, double* out);                      \
  void DequantizeU16##SUFFIX(const uint8_t* q, size_t n, double lo,         \
                             double step, double* out)

MLLIBSTAR_DECLARE_QUANT_KERNELS(Scalar);

#if defined(__x86_64__) || defined(_M_X64)
MLLIBSTAR_DECLARE_KERNELS(Sse2);
MLLIBSTAR_DECLARE_KERNELS(Avx2);
MLLIBSTAR_DECLARE_QUANT_KERNELS(Avx2);

// The AVX-512 tier only reimplements the tolerance-checked f32 sparse
// kernels; its table reuses the Avx2 functions for everything bound
// by the f64 bit-exactness contract (see kernels_avx512.cc).
double SparseDotF32Avx512(const double* w, const FeatureIndex* idx,
                          const float* val, size_t nnz);
void SparseAxpyF32Avx512(double* w, const FeatureIndex* idx,
                         const float* val, size_t nnz, double alpha);
#endif

#undef MLLIBSTAR_DECLARE_KERNELS
#undef MLLIBSTAR_DECLARE_QUANT_KERNELS

}  // namespace simd
}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_SIMD_KERNELS_H_
