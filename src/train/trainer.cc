#include "train/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/telemetry.h"
#include "train/lbfgs_trainer.h"
#include "train/mllib_trainer.h"
#include "train/ps_trainer.h"

namespace mllibstar {

std::string SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMllib:
      return "mllib";
    case SystemKind::kMllibMa:
      return "mllib+ma";
    case SystemKind::kMllibStar:
      return "mllib*";
    case SystemKind::kPetuum:
      return "petuum";
    case SystemKind::kPetuumStar:
      return "petuum*";
    case SystemKind::kAngel:
      return "angel";
    case SystemKind::kMllibLbfgs:
      return "mllib-lbfgs";
  }
  return "unknown";
}

Status TrainerConfig::Validate() const {
  if (eval_every < 1) {
    return Status::InvalidArgument(
        "TrainerConfig.eval_every must be >= 1, got " +
        std::to_string(eval_every));
  }
  if (!std::isfinite(base_lr) || base_lr <= 0.0) {
    return Status::InvalidArgument(
        "TrainerConfig.base_lr must be finite and > 0, got " +
        FormatDouble(base_lr));
  }
  if (!(batch_fraction > 0.0 && batch_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "TrainerConfig.batch_fraction must be in (0, 1], got " +
        FormatDouble(batch_fraction));
  }
  if (max_comm_steps < 0) {
    return Status::InvalidArgument(
        "TrainerConfig.max_comm_steps must be >= 0, got " +
        std::to_string(max_comm_steps));
  }
  Status valid = codec.Validate();
  if (valid.ok()) valid = ps.Validate();
  return valid;
}

Trainer::Trainer(TrainerConfig config)
    : config_(std::move(config)),
      codec_(MakeCodec(config_.codec)),
      loss_(MakeLoss(config_.loss)),
      reg_(MakeRegularizer(config_.regularizer, config_.lambda,
                           config_.l1_ratio)),
      objective_(config_.num_classes >= 2
                     ? MakeSoftmaxObjective(config_.num_classes, reg_.get(),
                                            config_.lazy_regularization,
                                            config_.compute_precision)
                     : MakeBinaryObjective(loss_.get(), reg_.get(),
                                           config_.lazy_regularization,
                                           config_.compute_precision)),
      schedule_(config_.lr_schedule, config_.base_lr) {}

Result<TrainResult> Trainer::TrainChecked(const Dataset& data,
                                          const ClusterConfig& cluster) {
  Status valid = config_.Validate();
  if (valid.ok()) valid = cluster.Validate();
  if (valid.ok() && config_.init_weights.dim() != 0 &&
      config_.init_weights.dim() != ModelDim(data)) {
    valid = Status::InvalidArgument(
        "TrainerConfig.init_weights has dimension " +
        std::to_string(config_.init_weights.dim()) + ", the model needs " +
        std::to_string(ModelDim(data)));
  }
  if (!valid.ok()) return valid;
  return Train(data, cluster);
}

DenseVector Trainer::InitialWeights(size_t dim) const {
  if (config_.init_weights.dim() == 0) return DenseVector(dim);
  MLLIBSTAR_CHECK_EQ(config_.init_weights.dim(), dim);
  return config_.init_weights;
}

double Trainer::Eval(const std::vector<CsrBlock>& partitions,
                     const DenseVector& w, ThreadPool* pool) const {
  return objective_->MeanPartitionLoss(partitions, w, pool) + reg_->Value(w);
}

bool Trainer::ShouldStop(int step, SimTime now, double objective) {
  if (step >= config_.max_comm_steps) return true;
  if (now >= config_.max_sim_seconds) return true;
  if (config_.target_objective.has_value() &&
      objective <= *config_.target_objective) {
    return true;
  }
  if (IsDiverged(objective)) return true;
  if (config_.stop_rel_improvement.has_value()) {
    if (prev_eval_.has_value()) {
      const double rel = (*prev_eval_ - objective) /
                         std::max(1.0, std::fabs(*prev_eval_));
      if (rel < *config_.stop_rel_improvement) return true;
    }
    prev_eval_ = objective;
  }
  return false;
}

bool Trainer::IsDiverged(double objective) {
  return !std::isfinite(objective) || objective > 1e9;
}

void Trainer::RecordEval(int step, SimTime now, double objective,
                         TrainResult* result) const {
  result->curve.Add(step, now, objective);
  Telemetry& obs = Telemetry::Get();
  if (!obs.enabled()) return;
  obs.RecordEvent("eval", "trainer", now,
                  {{"system", name()},
                   {"step", std::to_string(step)},
                   {"objective", FormatDouble(objective, 9)}});
  obs.metrics().Counter("train.evals", {{"system", name()}}).Add();
  obs.ObserveSeries("objective", SeriesAgg::kMean, now, objective);
  obs.SampleWindows(now);
}

void Trainer::FinishResult(SimCluster* sim, uint64_t total_bytes,
                           TrainResult* result) {
  result->sim_seconds = sim->Now();
  result->total_bytes = total_bytes;
  result->faults = sim->faults().stats();
  result->membership = sim->membership().stats();
  result->trace = std::move(sim->trace());
}

size_t Trainer::BatchSize(size_t rows) const {
  if (rows == 0) return 0;
  const double raw = config_.batch_fraction * static_cast<double>(rows);
  return std::clamp<size_t>(static_cast<size_t>(raw), 1, rows);
}

size_t Trainer::TreeAggregators(size_t k) const {
  if (config_.num_aggregators > 0) return std::min(config_.num_aggregators, k);
  return DefaultTreeAggregators(k);
}

std::vector<Rng> Trainer::WorkerRngs(size_t k) const {
  Rng root(config_.seed);
  std::vector<Rng> rngs;
  rngs.reserve(k);
  for (size_t r = 0; r < k; ++r) rngs.push_back(root.Fork());
  return rngs;
}

std::unique_ptr<Trainer> MakeTrainer(SystemKind kind, TrainerConfig config) {
  switch (kind) {
    case SystemKind::kMllib:
      return std::make_unique<MllibTrainer>(std::move(config));
    case SystemKind::kMllibMa:
      return std::make_unique<MllibMaTrainer>(std::move(config));
    case SystemKind::kMllibStar:
      return std::make_unique<MllibStarTrainer>(std::move(config));
    case SystemKind::kPetuum:
      return std::make_unique<PsTrainer>(PsTrainer::Mode::kPetuum,
                                         std::move(config));
    case SystemKind::kPetuumStar:
      return std::make_unique<PsTrainer>(PsTrainer::Mode::kPetuumStar,
                                         std::move(config));
    case SystemKind::kAngel:
      return std::make_unique<PsTrainer>(PsTrainer::Mode::kAngel,
                                         std::move(config));
    case SystemKind::kMllibLbfgs:
      return std::make_unique<MllibLbfgsTrainer>(std::move(config));
  }
  return nullptr;
}

}  // namespace mllibstar
