// The four benchmark workloads: generated inputs, the timed phase
// (every GridSearch and Train call), and the correctness checks each
// repetition must pass. Workloads reach the library only through its
// public functions and TrainResult.
#ifndef MLLIBSTAR_PERFBENCH_WORKLOADS_H_
#define MLLIBSTAR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/csr_block.h"
#include "core/vector.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "sim/cluster_config.h"
#include "spans.h"
#include "train/trainer.h"

namespace perfbench {

enum class WorkloadId { kFig5KddbL2, kStarKdd12, kMllibKdd12Int8, kScale1024 };

std::optional<WorkloadId> ParseWorkload(const std::string& name);

/// Everything a workload generates from the seed before timing starts.
struct Inputs {
  WorkloadId id = WorkloadId::kFig5KddbL2;
  /// Offset added to every default seed (dataset, trainer, cluster);
  /// 0 reproduces the bench/ harness configuration.
  uint64_t seed = 0;
  mllibstar::Dataset data;
  mllibstar::ClusterConfig cluster;
  /// Result of the first PartitionCsr at the cluster's worker count.
  std::vector<mllibstar::CsrBlock> partitions;
  double generate_s = 0.0;
  double partition_s = 0.0;
};

/// A repetition runs the workload on this many datasets, generated one
/// after another, so each run averages over several inputs.
size_t DatasetsPerRepetition(WorkloadId id);

/// Generates dataset `dataset` (0 <= dataset < DatasetsPerRepetition)
/// of workload seed `seed` with its cluster, and partitions once;
/// `generate_s + partition_s` is the set-up time. The seed offset is
/// seed * DatasetsPerRepetition(id) + dataset, so distinct seeds never
/// share a dataset.
Inputs Setup(WorkloadId id, uint64_t seed, size_t dataset);

/// One final (not grid-trial) Train call of a workload.
struct RunRecord {
  std::string label;  ///< system name, or a role such as "mllib:resume"
  mllibstar::SystemKind kind = mllibstar::SystemKind::kMllib;
  size_t workers = 0;
  double wall_s = 0.0;
  int comm_steps = 0;
  double sim_seconds = 0.0;
  uint64_t total_bytes = 0;
  uint64_t model_updates = 0;
  double best_objective = 0.0;
  size_t curve_points = 0;
  size_t trace_events = 0;
  uint64_t checksum = 0;
  mllibstar::ConvergenceCurve curve;
  mllibstar::DenseVector weights;
};

/// One GridSearch call of a workload.
struct GridRecord {
  double wall_s = 0.0;
  size_t candidates = 0;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Outcome of one repetition of a workload's timed phase.
struct Outcome {
  double wall_s = 0.0;  ///< every GridSearch and Train call
  std::vector<GridRecord> grids;
  std::vector<RunRecord> runs;
  double sim_s = 0.0;            ///< Σ simulated seconds of the final runs
  uint64_t wire_bytes = 0;       ///< Σ TrainResult::total_bytes of them
  int comm_steps = 0;            ///< Σ comm_steps of them
  double objective = 0.0;        ///< best objective of the headline run
  /// fig5_kddb_l2: MLlib*'s time to the cell target. Elsewhere: the
  /// headline run's time to half its objective decrease, interpolated.
  double sim_s_to_target = 0.0;
  uint64_t checksum = 0;         ///< FNV-1a over every final run's weights
  std::vector<Check> checks;
  /// Paper-shape orderings (fig5_kddb_l2). Reported, not counted as
  /// failures: they hold on some datasets and not on others.
  std::vector<Check> shape;
};

struct RunOptions {
  /// Directory for the checkpoint files the int8 workload writes.
  std::string tmp_dir;
  /// Objective ceiling every final run must stay under.
  double objective_ceiling = 0.0;
  /// Overrides the workload's host_threads when set.
  std::optional<size_t> host_threads;
};

/// Runs one repetition of the workload's timed phase.
Outcome RunWorkload(const Inputs& in, const RunOptions& options,
                    SpanLog* log);

/// Extra bit-identity checks for the traced/verify pass: star_kdd12 at
/// host_threads 1 vs 4, and the int8 resume against an uninterrupted
/// run. `reference` is an untraced repetition.
std::vector<Check> VerifyChecks(const Inputs& in, const RunOptions& options,
                                const Outcome& reference, SpanLog* log);

/// mllib_kdd12_int8 checkpoints every this many steps into
/// Int8CheckpointPath().
constexpr int kInt8CheckpointEvery = 10;
std::string Int8CheckpointPath(const Inputs& in, const RunOptions& options);

/// Deletes the files a workload left in options.tmp_dir.
void RemoveScratchFiles(const Inputs& in, const RunOptions& options);

/// FNV-1a over the exact bit patterns of the weights.
uint64_t WeightsChecksum(const mllibstar::DenseVector& w);

/// "mllib*" -> "mllib_star", for metric names.
std::string MetricStem(const std::string& system);

/// Per-workload trainer settings the layer measurements reuse.
mllibstar::TrainerConfig HeadlineConfig(const Inputs& in);

}  // namespace perfbench

#endif  // MLLIBSTAR_PERFBENCH_WORKLOADS_H_
