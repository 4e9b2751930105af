#ifndef MLLIBSTAR_TRAIN_MLLIB_TRAINER_H_
#define MLLIBSTAR_TRAIN_MLLIB_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "train/trainer.h"

namespace mllibstar {

/// The one training loop of the three Spark SGD trainers. It owns
/// everything around a communication step: cluster and partition
/// set-up, the worker RNGs and error feedback, resume and the periodic
/// snapshot (one checkpoint layout, tagged per trainer), the
/// per-iteration stage, span and round profile, the barrier, the
/// eval/divergence/stop bookkeeping and the result. Each trainer
/// supplies only Step(), so Algorithms 1–3 read straight off it.
class SparkSgdTrainer : public Trainer {
 public:
  TrainResult Train(const Dataset& data,
                    const ClusterConfig& cluster) final;

 protected:
  /// What a step works on; the loop builds it once per run.
  struct Run {
    Run(const ClusterConfig& cluster, size_t host_threads)
        : spark(cluster, host_threads), k(spark.num_workers()) {}

    SparkCluster spark;
    size_t k = 0;  ///< executors
    size_t d = 0;  ///< model dimension
    std::vector<CsrBlock> partitions;
    std::vector<Rng> rngs;  ///< one per worker
    ErrorFeedback ef;       ///< one stream per worker
    DenseVector w;          ///< the global model
    /// One d-vector per worker: its batch gradient (SendGradient) or
    /// its local model (SendModel).
    std::vector<DenseVector> slots;
    DenseVector wire;  ///< the broadcast as decoded by a lossy codec
    /// Adaptive local update rules (empty for the paper's plain SGD).
    std::vector<std::unique_ptr<LocalOptimizer>> optimizers;
  };

  SparkSgdTrainer(TrainerConfig config, CheckpointTag tag)
      : Trainer(std::move(config)), tag_(tag) {}

  /// Communication step t: moves run->w to the next global model.
  /// Returns the model updates it made.
  virtual uint64_t Step(Run* run, int t) = 0;

  /// The SendModel worker body of MLlib+MA and MLlib*: every executor
  /// copies `start` into its slot and runs local_epochs passes over its
  /// partition (host-parallel; per-worker state only). Returns the
  /// model updates made.
  uint64_t LocalPasses(Run* run, int t, const DenseVector& start);

 private:
  CheckpointTag tag_;
};

/// Baseline Spark MLlib mini-batch gradient descent (paper §III-A):
/// SendGradient. Per communication step the driver broadcasts the
/// model, every executor computes the gradient of a sampled batch of
/// its partition, gradients flow back through treeAggregate, and the
/// driver applies exactly one model update.
class MllibTrainer final : public SparkSgdTrainer {
 public:
  explicit MllibTrainer(TrainerConfig config)
      : SparkSgdTrainer(std::move(config), CheckpointTag::kMllib) {}

  std::string name() const override { return "mllib"; }

 protected:
  uint64_t Step(Run* run, int t) override;
};

/// MLlib with the first fix only (paper Figure 3b): SendModel via
/// model averaging, but still aggregated through treeAggregate and
/// broadcast by the driver. Used to separate the contribution of the
/// two techniques in Figure 4.
class MllibMaTrainer final : public SparkSgdTrainer {
 public:
  explicit MllibMaTrainer(TrainerConfig config)
      : SparkSgdTrainer(std::move(config), CheckpointTag::kMllibMa) {}

  std::string name() const override { return "mllib+ma"; }

 protected:
  uint64_t Step(Run* run, int t) override;
};

/// MLlib* (paper Algorithm 3): SendModel with model averaging, global
/// model maintained by the executors themselves via the two-phase
/// shuffle (Reduce-Scatter then AllGather). No driver on the data
/// path.
class MllibStarTrainer final : public SparkSgdTrainer {
 public:
  explicit MllibStarTrainer(TrainerConfig config)
      : SparkSgdTrainer(std::move(config), CheckpointTag::kMllibStar) {}

  std::string name() const override { return "mllib*"; }

 protected:
  uint64_t Step(Run* run, int t) override;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_MLLIB_TRAINER_H_
