#ifndef MLLIBSTAR_COMM_ERROR_FEEDBACK_H_
#define MLLIBSTAR_COMM_ERROR_FEEDBACK_H_

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "core/vector.h"

namespace mllibstar {

/// Per-sender compression residuals (EF-SGD / error feedback): what a
/// lossy codec dropped from stream r's vector this round is added back
/// into the same stream's vector next round, so quantization noise
/// averages out across rounds instead of accumulating as bias. One
/// stream per worker-outbound path; broadcast-style paths (driver or
/// owner to everyone) carry no residual state.
class ErrorFeedback {
 public:
  /// A disabled accumulator (no residual state).
  ErrorFeedback() = default;

  /// One residual of dimension `dim` per stream, all starting at zero.
  ErrorFeedback(size_t num_streams, size_t dim);

  bool enabled() const { return !residuals_.empty(); }
  size_t num_streams() const { return residuals_.size(); }
  const DenseVector& residual(size_t stream) const;

  /// residual[stream] = v + residual[stream], in place: the vector
  /// this round encodes. Returns it (valid until Absorb). Requires
  /// enabled().
  const DenseVector& Compensate(size_t stream, const DenseVector& v);

  /// residual[stream] -= decoded. Right after Compensate this leaves
  /// compensated - decoded: the error the wire just introduced, to be
  /// re-sent next round. Requires enabled().
  void Absorb(size_t stream, const DenseVector& decoded);

  /// One stream's residual, writable (checkpoint restore).
  DenseVector* mutable_residual(size_t stream);

 private:
  std::vector<DenseVector> residuals_;
};

/// The accumulator a trainer should use for `codec`: enabled only when
/// the codec is lossy and the config asks for error feedback (a
/// lossless codec's residual is identically zero, so the state would
/// be dead weight).
ErrorFeedback MakeErrorFeedback(const GradientCodec& codec,
                                const CodecConfig& config,
                                size_t num_streams, size_t dim);

/// Ships `v` through `codec` as stream `stream` and returns the vector
/// the receivers actually see. Adds the encoded wire size to
/// *wire_bytes when non-null. Pass ef == nullptr for residual-free
/// paths (broadcasts).
///
/// Lossless codec: returns `v` itself — no encode, decode or copy.
/// Lossy codec: compensates with the stream's residual, encodes,
/// decodes into `*wire` (resized to v.dim() if needed), absorbs the
/// new residual, and returns `*wire`. `wire` may be `&v`: `v` is read
/// in full before the decode writes.
///
/// The result aliases `v` or `*wire`, so neither may be mutated while
/// it is in use.
const DenseVector& CodecTransmit(const GradientCodec& codec,
                                 ErrorFeedback* ef, size_t stream,
                                 const DenseVector& v, DenseVector* wire,
                                 uint64_t* wire_bytes = nullptr);

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMM_ERROR_FEEDBACK_H_
