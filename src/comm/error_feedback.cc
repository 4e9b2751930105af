#include "comm/error_feedback.h"

#include "common/logging.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"

namespace mllibstar {

namespace {

/// Byte accounting for one transmit: raw payload vs what went on the
/// wire, per {codec, stream}. Called from worker-pool threads, so it
/// only touches atomic counters after the registry lookup.
void RecordTransmit(const GradientCodec& codec, const ErrorFeedback* ef,
                    size_t stream, size_t dim, uint64_t encoded_bytes) {
  Telemetry& obs = Telemetry::Get();
  if (!obs.enabled()) return;
  const std::string stream_label =
      ef != nullptr && ef->enabled() ? std::to_string(stream) : "broadcast";
  const MetricLabels labels = {{"codec", codec.name()},
                               {"stream", stream_label}};
  obs.metrics()
      .Counter("comm.raw_bytes", labels)
      .Add(static_cast<uint64_t>(dim) * sizeof(double));
  obs.metrics().Counter("comm.encoded_bytes", labels).Add(encoded_bytes);
  obs.metrics().Counter("comm.transmits", labels).Add();
}

}  // namespace

ErrorFeedback::ErrorFeedback(size_t num_streams, size_t dim)
    : residuals_(num_streams, DenseVector(dim)) {}

const DenseVector& ErrorFeedback::residual(size_t stream) const {
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  return residuals_[stream];
}

const DenseVector& ErrorFeedback::Compensate(size_t stream,
                                             const DenseVector& v) {
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  DenseVector& r = residuals_[stream];
  MLLIBSTAR_CHECK_EQ(r.dim(), v.dim());
  double* rd = r.data();
  const double* vd = v.data();
  for (size_t i = 0; i < r.dim(); ++i) rd[i] = vd[i] + rd[i];
  return r;
}

void ErrorFeedback::Absorb(size_t stream, const DenseVector& decoded) {
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  DenseVector& r = residuals_[stream];
  MLLIBSTAR_CHECK_EQ(r.dim(), decoded.dim());
  double* rd = r.data();
  const double* dd = decoded.data();
  // compensated + (-1)·decoded, as one exact subtraction.
  for (size_t i = 0; i < r.dim(); ++i) rd[i] -= dd[i];
}

DenseVector* ErrorFeedback::mutable_residual(size_t stream) {
  MLLIBSTAR_CHECK_LT(stream, residuals_.size());
  return &residuals_[stream];
}

ErrorFeedback MakeErrorFeedback(const GradientCodec& codec,
                                const CodecConfig& config,
                                size_t num_streams, size_t dim) {
  if (codec.lossless() || !config.error_feedback) return ErrorFeedback();
  return ErrorFeedback(num_streams, dim);
}

const DenseVector& CodecTransmit(const GradientCodec& codec,
                                 ErrorFeedback* ef, size_t stream,
                                 const DenseVector& v, DenseVector* wire,
                                 uint64_t* wire_bytes) {
  EngineProfiler::Scope codec_prof(Subsystem::kCodec);
  EngineProfiler::Get().AddEvents(Subsystem::kCodec, 1);
  // Lossless: the wire is transparent (the roundtrip is bit-exact by
  // contract, which comm_test pins down), so the receivers see `v`.
  if (codec.lossless()) {
    const uint64_t encoded = codec.EncodedBytes(v.dim());
    if (wire_bytes != nullptr) *wire_bytes += encoded;
    RecordTransmit(codec, ef, stream, v.dim(), encoded);
    return v;
  }
  // The encode buffer is reused across calls on the same thread.
  thread_local EncodedChunk chunk;
  const bool feedback = ef != nullptr && ef->enabled();
  codec.EncodeInto(feedback ? ef->Compensate(stream, v) : v, &chunk);
  if (wire_bytes != nullptr) *wire_bytes += chunk.bytes;
  RecordTransmit(codec, ef, stream, v.dim(), chunk.bytes);
  if (wire->dim() != v.dim()) *wire = DenseVector(v.dim());
  codec.DecodeInto(chunk, wire);
  if (feedback) ef->Absorb(stream, *wire);
  return *wire;
}

}  // namespace mllibstar
