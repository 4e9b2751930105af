#include "comm/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"
#include "core/simd/dispatch.h"
#include "sim/network.h"

namespace mllibstar {
namespace {

// Payloads use host byte order (the simulated cluster is homogeneous;
// a real deployment would pin endianness). Every codec sizes its
// payload once and writes or reads it at computed offsets.
template <typename T>
void Store(uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(T));
}

template <typename T>
T Load(const uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

void StartPayload(size_t dim, uint64_t bytes, EncodedChunk* out) {
  out->dim = dim;
  out->bytes = bytes;
  out->payload.resize(bytes);
}

class DenseF64Codec : public GradientCodec {
 public:
  CodecKind kind() const override { return CodecKind::kDenseF64; }
  std::string name() const override { return "dense-f64"; }
  bool lossless() const override { return true; }

  void EncodeInto(const DenseVector& v, EncodedChunk* out) const override {
    StartPayload(v.dim(), EncodedBytes(v.dim()), out);
    std::memcpy(out->payload.data(), v.data(), out->payload.size());
  }

  void DecodeInto(const EncodedChunk& chunk,
                  DenseVector* out) const override {
    MLLIBSTAR_CHECK_EQ(chunk.payload.size(), 8 * chunk.dim);
    MLLIBSTAR_CHECK_EQ(out->dim(), chunk.dim);
    std::memcpy(out->data(), chunk.payload.data(), chunk.payload.size());
  }

  uint64_t EncodedBytes(size_t dim) const override {
    return NetworkModel::DenseBytes(dim);
  }

 protected:
  uint64_t value_bytes() const override { return 8; }
};

class DenseF32Codec : public GradientCodec {
 public:
  CodecKind kind() const override { return CodecKind::kDenseF32; }
  std::string name() const override { return "dense-f32"; }
  bool lossless() const override { return false; }

  void EncodeInto(const DenseVector& v, EncodedChunk* out) const override {
    StartPayload(v.dim(), EncodedBytes(v.dim()), out);
    uint8_t* at = out->payload.data();
    const double* x = v.data();
    for (size_t i = 0; i < v.dim(); ++i) {
      Store(at + 4 * i, static_cast<float>(x[i]));
    }
  }

  void DecodeInto(const EncodedChunk& chunk,
                  DenseVector* out) const override {
    MLLIBSTAR_CHECK_EQ(chunk.payload.size(), 4 * chunk.dim);
    MLLIBSTAR_CHECK_EQ(out->dim(), chunk.dim);
    const uint8_t* at = chunk.payload.data();
    double* x = out->data();
    for (size_t i = 0; i < chunk.dim; ++i) {
      x[i] = static_cast<double>(Load<float>(at + 4 * i));
    }
  }

  uint64_t EncodedBytes(size_t dim) const override { return 4ull * dim; }

 protected:
  uint64_t value_bytes() const override { return 4; }
};

/// Linear quantization with per-chunk [min, max] scaling: each group
/// of `chunk_size` coordinates stores its range as two float32s plus
/// one fixed-width integer level per coordinate. Decoding maps level q
/// back to lo + q * (hi - lo) / levels, so the worst-case error per
/// coordinate is half a step of its chunk's range. The per-chunk work
/// runs through the dispatched simd kernels, whose payload bytes and
/// decoded values are identical at every dispatch level.
template <typename LevelT>
class LinearQuantCodec : public GradientCodec {
 public:
  LinearQuantCodec(CodecKind kind, std::string name, size_t chunk_size)
      : kind_(kind), name_(std::move(name)),
        chunk_size_(std::max<size_t>(1, chunk_size)) {}

  CodecKind kind() const override { return kind_; }
  std::string name() const override { return name_; }
  bool lossless() const override { return false; }

  void EncodeInto(const DenseVector& v, EncodedChunk* out) const override {
    StartPayload(v.dim(), EncodedBytes(v.dim()), out);
    const simd::KernelDispatch& k = simd::Kernels();
    auto quantize = sizeof(LevelT) == 1 ? k.quantize_u8 : k.quantize_u16;
    uint8_t* at = out->payload.data();
    for (size_t begin = 0; begin < v.dim(); begin += chunk_size_) {
      const size_t n = std::min(v.dim() - begin, chunk_size_);
      const double* x = v.data() + begin;
      double lo = 0.0;
      double hi = 0.0;
      k.chunk_minmax(x, n, &lo, &hi);
      // The decoder sees the float32-rounded endpoints, so quantize
      // against those same values (consistency beats precision here).
      const float lo_f = static_cast<float>(lo);
      const float hi_f = static_cast<float>(hi);
      Store(at, lo_f);
      Store(at + 4, hi_f);
      const double span = static_cast<double>(hi_f) - static_cast<double>(lo_f);
      const double scale = span > 0.0 ? kLevels / span : 0.0;
      quantize(x, n, static_cast<double>(lo_f), scale, at + 8);
      at += 8 + sizeof(LevelT) * n;
    }
  }

  void DecodeInto(const EncodedChunk& chunk,
                  DenseVector* out) const override {
    MLLIBSTAR_CHECK_EQ(chunk.payload.size(), EncodedBytes(chunk.dim));
    MLLIBSTAR_CHECK_EQ(out->dim(), chunk.dim);
    const simd::KernelDispatch& k = simd::Kernels();
    auto dequantize = sizeof(LevelT) == 1 ? k.dequantize_u8 : k.dequantize_u16;
    const uint8_t* at = chunk.payload.data();
    for (size_t begin = 0; begin < chunk.dim; begin += chunk_size_) {
      const size_t n = std::min(chunk.dim - begin, chunk_size_);
      const double lo = static_cast<double>(Load<float>(at));
      const double hi = static_cast<double>(Load<float>(at + 4));
      const double step = (hi - lo) / kLevels;
      dequantize(at + 8, n, lo, step, out->data() + begin);
      at += 8 + sizeof(LevelT) * n;
    }
  }

  uint64_t EncodedBytes(size_t dim) const override {
    const uint64_t chunks = (dim + chunk_size_ - 1) / chunk_size_;
    return 8ull * chunks + sizeof(LevelT) * static_cast<uint64_t>(dim);
  }

 protected:
  uint64_t value_bytes() const override { return sizeof(LevelT); }

 private:
  static constexpr double kLevels =
      static_cast<double>(std::numeric_limits<LevelT>::max());
  CodecKind kind_;
  std::string name_;
  size_t chunk_size_;
};

/// Top-K sparsification: ship only the K largest-magnitude
/// coordinates as (uint32 index, float64 value) pairs behind a uint32
/// count. Kept coordinates survive bit-exactly; everything else
/// decodes to zero — which is exactly why error feedback matters for
/// this codec.
class TopKCodec : public GradientCodec {
 public:
  explicit TopKCodec(double ratio)
      : ratio_(std::clamp(ratio, 0.0, 1.0)) {}

  CodecKind kind() const override { return CodecKind::kTopK; }
  std::string name() const override { return "topk"; }
  bool lossless() const override { return false; }

  size_t Keep(size_t dim) const {
    if (dim == 0) return 0;
    return std::clamp<size_t>(
        static_cast<size_t>(ratio_ * static_cast<double>(dim)), 1, dim);
  }

  void EncodeInto(const DenseVector& v, EncodedChunk* out) const override {
    const size_t keep = Keep(v.dim());
    std::vector<FeatureIndex> order(v.dim());
    for (size_t i = 0; i < v.dim(); ++i) {
      order[i] = static_cast<FeatureIndex>(i);
    }
    // Largest magnitudes first; ties broken by index so the payload
    // (and therefore the whole simulation) is deterministic.
    std::nth_element(order.begin(), order.begin() + keep, order.end(),
                     [&](FeatureIndex a, FeatureIndex b) {
                       const double ma = std::fabs(v[a]);
                       const double mb = std::fabs(v[b]);
                       return ma != mb ? ma > mb : a < b;
                     });
    std::sort(order.begin(), order.begin() + keep);

    StartPayload(v.dim(), EncodedBytes(v.dim()), out);
    uint8_t* at = out->payload.data();
    Store(at, static_cast<uint32_t>(keep));
    for (size_t j = 0; j < keep; ++j) {
      Store(at + 4 + 12 * j, static_cast<uint32_t>(order[j]));
      Store(at + 8 + 12 * j, v[order[j]]);
    }
  }

  void DecodeInto(const EncodedChunk& chunk,
                  DenseVector* out) const override {
    MLLIBSTAR_CHECK_GE(chunk.payload.size(), 4u);
    MLLIBSTAR_CHECK_EQ(out->dim(), chunk.dim);
    const uint8_t* at = chunk.payload.data();
    const uint32_t keep = Load<uint32_t>(at);
    MLLIBSTAR_CHECK_EQ(chunk.payload.size(), 4ull + 12ull * keep);
    out->SetZero();
    for (uint32_t j = 0; j < keep; ++j) {
      const uint32_t index = Load<uint32_t>(at + 4 + 12 * j);
      MLLIBSTAR_CHECK_LT(index, chunk.dim);
      (*out)[index] = Load<double>(at + 8 + 12 * j);
    }
  }

  uint64_t EncodedBytes(size_t dim) const override {
    return 4ull + 12ull * Keep(dim);
  }

  uint64_t SparseEncodedBytes(size_t nnz, size_t dim) const override {
    // TopK never ships more than its K pairs.
    return 4ull + 12ull * std::min(nnz, Keep(dim));
  }

 protected:
  uint64_t value_bytes() const override { return 8; }

 private:
  double ratio_;
};

}  // namespace

std::string CodecName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kDenseF64:
      return "dense-f64";
    case CodecKind::kDenseF32:
      return "dense-f32";
    case CodecKind::kInt16Linear:
      return "int16";
    case CodecKind::kInt8Linear:
      return "int8";
    case CodecKind::kTopK:
      return "topk";
  }
  return "unknown";
}

Status CodecConfig::Validate() const {
  if (quant_chunk == 0) {
    return Status::InvalidArgument(
        "CodecConfig.quant_chunk must be >= 1, got 0");
  }
  if (!(topk_ratio > 0.0 && topk_ratio <= 1.0)) {
    return Status::InvalidArgument(
        "CodecConfig.topk_ratio must be in (0, 1], got " +
        FormatDouble(topk_ratio));
  }
  return Status::Ok();
}

EncodedChunk GradientCodec::Encode(const DenseVector& v) const {
  EncodedChunk chunk;
  EncodeInto(v, &chunk);
  return chunk;
}

DenseVector GradientCodec::Decode(const EncodedChunk& chunk) const {
  DenseVector v(chunk.dim);
  DecodeInto(chunk, &v);
  return v;
}

uint64_t GradientCodec::SparseEncodedBytes(size_t nnz, size_t dim) const {
  const uint64_t pairs = (4ull + value_bytes()) * static_cast<uint64_t>(nnz);
  return std::min(pairs, EncodedBytes(dim));
}

std::unique_ptr<GradientCodec> MakeCodec(const CodecConfig& config) {
  switch (config.kind) {
    case CodecKind::kDenseF64:
      return std::make_unique<DenseF64Codec>();
    case CodecKind::kDenseF32:
      return std::make_unique<DenseF32Codec>();
    case CodecKind::kInt16Linear:
      return std::make_unique<LinearQuantCodec<uint16_t>>(
          CodecKind::kInt16Linear, "int16", config.quant_chunk);
    case CodecKind::kInt8Linear:
      return std::make_unique<LinearQuantCodec<uint8_t>>(
          CodecKind::kInt8Linear, "int8", config.quant_chunk);
    case CodecKind::kTopK:
      return std::make_unique<TopKCodec>(config.topk_ratio);
  }
  return std::make_unique<DenseF64Codec>();
}

const GradientCodec& PassthroughCodec() {
  static const DenseF64Codec* codec = new DenseF64Codec();
  return *codec;
}

}  // namespace mllibstar
