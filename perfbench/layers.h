// Per-layer metrics: each layer is timed around its public calls at the
// workload's shapes, or derived from the workload's TrainResults.
#ifndef MLLIBSTAR_PERFBENCH_LAYERS_H_
#define MLLIBSTAR_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Appends the data, eval, kernels, engine, ps, codec, checkpoint,
/// train, grid and sim metrics for the workload. Wall-derived metrics
/// come from `untraced`, a repetition run with the library's recorders
/// off; layers a workload does not use report 0. Returns the host µs
/// one repetition spends in Eval and PartitionCsr (per-call cost ×
/// call count), which the library's profiler does not attribute.
double MeasureLayers(const Inputs& in, const RunOptions& options,
                     const Outcome& untraced, SpanLog* log,
                     std::vector<Metric>* out);

}  // namespace perfbench

#endif  // MLLIBSTAR_PERFBENCH_LAYERS_H_
