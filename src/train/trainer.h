#ifndef MLLIBSTAR_TRAIN_TRAINER_H_
#define MLLIBSTAR_TRAIN_TRAINER_H_

#include <memory>
#include <optional>
#include <string>

#include "comm/codec.h"
#include "common/status.h"
#include "comm/error_feedback.h"
#include "core/convergence.h"
#include "core/local_optimizer.h"
#include "core/loss.h"
#include "core/lr_schedule.h"
#include "core/model.h"
#include "core/regularizer.h"
#include "data/dataset.h"
#include "engine/spark_cluster.h"
#include "ps/parameter_server.h"
#include "sim/cluster_config.h"
#include "sim/fault_plan.h"
#include "sim/trace.h"
#include "train/checkpoint.h"
#include "workloads/objective.h"

namespace mllibstar {

/// The distributed training systems this library reproduces.
enum class SystemKind {
  kMllib,       ///< SendGradient + treeAggregate + driver update (§III-A)
  kMllibMa,     ///< MLlib + model averaging, still driver-centric (§IV-B1)
  kMllibStar,   ///< model averaging + Reduce-Scatter/AllGather (§IV-B2)
  kPetuum,      ///< PS, per-batch communication, model summation (§III-B1)
  kPetuumStar,  ///< Petuum with model averaging (paper's Petuum*)
  kAngel,       ///< PS, per-epoch communication, batch GD locally (§III-B2)
  kMllibLbfgs,  ///< spark.ml-style distributed L-BFGS (§VII next step)
};

/// Short identifier ("mllib", "mllib*", ...) used in bench output.
std::string SystemName(SystemKind kind);

/// Hyperparameters and run limits shared by every trainer. Fields that
/// a given system does not use are ignored by it (e.g. `ps` for the
/// Spark-based trainers).
struct TrainerConfig {
  // Objective.
  LossKind loss = LossKind::kHinge;
  RegularizerKind regularizer = RegularizerKind::kNone;
  double lambda = 0.0;
  /// Elastic-net mixing α for kElasticNet: 1 = pure L1, 0 = pure L2.
  double l1_ratio = 0.5;
  /// 0 trains the binary margin objective on `loss`; K ≥ 2 trains
  /// K-class softmax cross-entropy (labels are class ids 0..K−1, the
  /// model is the flattened K×d vector, and `loss` is ignored). Every
  /// trainer supports both through the same code path.
  size_t num_classes = 0;

  // Optimization.
  double base_lr = 0.1;
  LrScheduleKind lr_schedule = LrScheduleKind::kInverseSqrt;
  /// Mini-batch size as a fraction of each worker's partition
  /// (MLlib's sampling fraction; Petuum/Angel's batch size).
  double batch_fraction = 0.01;
  /// Local passes over the partition per communication step for the
  /// SendModel Spark trainers.
  size_t local_epochs = 1;
  /// Use the Bottou lazy/sparse trick for L2 in local SGD.
  bool lazy_regularization = true;
  /// Feature-value precision of the training kernels. kF64 (default)
  /// reproduces every existing run bit-for-bit; kF32 reads the CSR
  /// blocks' float32 value copy (model, margins, and all accumulators
  /// stay f64) for roughly half the value-stream memory traffic, with
  /// drift bounded by the budget in DESIGN §13. Evaluation is always
  /// f64, so recorded loss curves expose any f32 drift.
  ComputePrecision compute_precision = ComputePrecision::kF64;
  /// Update rule for the SendModel trainers' local passes (kSgd
  /// reproduces the paper; the adaptive rules are extensions).
  LocalOptimizerConfig local_optimizer;

  // Run limits.
  int max_comm_steps = 100;
  double max_sim_seconds = 1e18;
  /// Stop once the evaluated objective reaches this value.
  std::optional<double> target_objective;
  /// Stop once the relative improvement between consecutive
  /// evaluations, (prev − cur) / max(1, |prev|), falls below this
  /// (h2o4gpu-style early stopping; the warm-started λ path relies on
  /// it to make warm solves cheap). The L-BFGS trainer maps it onto
  /// the solver's objective tolerance.
  std::optional<double> stop_rel_improvement;
  int eval_every = 1;
  uint64_t seed = 123;

  /// Starting model. Empty trains from zeros; otherwise must match
  /// the model dimension (d, or K·d for softmax) and the run warm
  /// starts from these weights — how the regularization path reuses
  /// the previous λ's solution.
  DenseVector init_weights;

  // Host execution. Number of *host* threads used to run the
  // embarrassingly parallel per-worker computations (1 = sequential,
  // 0 = all hardware threads). Pure wall-clock knob: every simulated
  // result is bit-identical for any value — see "Host parallelism vs.
  // virtual time" in docs/ARCHITECTURE.md.
  size_t host_threads = 1;

  // Communication codec applied to every path that ships a model or
  // gradient (broadcast, treeAggregate, Reduce-Scatter/AllGather, PS
  // push/pull). kDenseF64 reproduces the pre-codec byte accounting
  // and math bit-for-bit.
  CodecConfig codec;

  // Spark engine knobs.
  BroadcastMode broadcast = BroadcastMode::kDriverSequential;
  /// Intermediate aggregators for treeAggregate; 0 = floor(sqrt(k)).
  size_t num_aggregators = 0;

  // Crash recovery: periodic trainer-state snapshots (model,
  // iteration, RNG cursors, error-feedback residuals) and resume.
  // Resumed runs finish with weights bit-identical to uninterrupted
  // ones. Not supported with adaptive local optimizers or L1-regularized
  // L-BFGS (OWL-QN).
  CheckpointConfig checkpoint;

  // Parameter-server knobs (Petuum/Petuum*/Angel).
  PsConfig ps;
  /// Model Angel's per-batch gradient-buffer allocation + GC overhead
  /// (paper §V-B2); adds work proportional to the model size per batch.
  bool angel_allocation_overhead = true;

  /// InvalidArgument naming the first out-of-range field: eval_every
  /// < 1, base_lr not finite or <= 0, batch_fraction outside (0, 1],
  /// or max_comm_steps < 0. Trainer::TrainChecked applies it.
  Status Validate() const;
};

/// Outcome of one training run.
struct TrainResult {
  std::string system;
  ConvergenceCurve curve;
  DenseVector final_weights;
  int comm_steps = 0;
  double sim_seconds = 0.0;
  uint64_t total_bytes = 0;
  uint64_t total_model_updates = 0;
  bool diverged = false;
  /// What the fault injector (and the recovery machinery) did.
  FaultStats faults;
  /// What the failure detector and the elastic machinery did (all
  /// zeros when the churn plan is empty).
  MembershipStats membership;
  TraceLog trace;
};

/// Interface every system implements: train on `data` over a simulated
/// `cluster`, recording an objective-vs-time curve.
class Trainer {
 public:
  explicit Trainer(TrainerConfig config);
  virtual ~Trainer() = default;

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  virtual std::string name() const = 0;

  /// Runs training to the configured limits. Deterministic given the
  /// config seeds.
  virtual TrainResult Train(const Dataset& data,
                            const ClusterConfig& cluster) = 0;

  /// Train() behind config().Validate(): a bad config returns its
  /// InvalidArgument before any work is done, instead of crashing or
  /// training on nonsense.
  Result<TrainResult> TrainChecked(const Dataset& data,
                                   const ClusterConfig& cluster);

 protected:
  const TrainerConfig& config() const { return config_; }
  const GradientCodec& codec() const { return *codec_; }
  const Loss& loss() const { return *loss_; }
  const Regularizer& regularizer() const { return *reg_; }
  const LrSchedule& schedule() const { return schedule_; }

  /// The workload being trained: binary margin (delegating to the
  /// classic kernels bit-identically) or K-class softmax. Trainers
  /// route every local computation through this.
  const GlmObjective& objective() const { return *objective_; }

  /// Flattened model dimension for `data` (num_features, or
  /// K·num_features for softmax).
  size_t ModelDim(const Dataset& data) const {
    return objective_->ModelDim(data.num_features());
  }

  /// The starting model: config().init_weights when set (checked
  /// against `dim`), zeros otherwise.
  DenseVector InitialWeights(size_t dim) const;

  /// Full objective f(w, X) on `data` (host-side; costs no sim time —
  /// the paper also measures the objective out-of-band).
  double Eval(const Dataset& data, const DenseVector& w) const;

  /// True when the run should stop after observing `objective` at
  /// virtual time `now` having completed `step` communication steps.
  /// Stateful when stop_rel_improvement is set (tracks the previous
  /// evaluation), so call it once per evaluation.
  bool ShouldStop(int step, SimTime now, double objective);

  /// Detects a diverged run (non-finite or exploding objective).
  static bool IsDiverged(double objective);

 private:
  TrainerConfig config_;
  std::unique_ptr<GradientCodec> codec_;
  std::unique_ptr<Loss> loss_;
  std::unique_ptr<Regularizer> reg_;
  std::unique_ptr<GlmObjective> objective_;
  LrSchedule schedule_;
  /// Previous evaluated objective for the rel-improvement stop.
  std::optional<double> prev_eval_;
};

/// Creates the trainer for `kind`.
std::unique_ptr<Trainer> MakeTrainer(SystemKind kind, TrainerConfig config);

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_TRAINER_H_
