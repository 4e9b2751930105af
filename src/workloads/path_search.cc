#include "workloads/path_search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "data/partition.h"
#include "data/split.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

/// Regularizer kind for one grid point: the mixing ratio decides
/// whether a solve is pure L1, pure L2, or genuinely mixed.
RegularizerKind KindForRatio(double l1_ratio) {
  if (l1_ratio >= 1.0) return RegularizerKind::kL1;
  if (l1_ratio <= 0.0) return RegularizerKind::kL2;
  return RegularizerKind::kElasticNet;
}

/// The workload the config trains, with no regularizer — used for
/// λ_max derivation and for held-out (unregularized) loss.
struct WorkloadView {
  std::unique_ptr<Loss> loss;
  std::unique_ptr<Regularizer> none;
  std::unique_ptr<GlmObjective> objective;

  explicit WorkloadView(const TrainerConfig& config)
      : loss(MakeLoss(config.loss)),
        none(MakeRegularizer(RegularizerKind::kNone, 0.0)) {
    objective = config.num_classes >= 2
                    ? MakeSoftmaxObjective(config.num_classes, none.get(),
                                           /*lazy_regularization=*/false)
                    : MakeBinaryObjective(loss.get(), none.get(),
                                          /*lazy_regularization=*/false);
  }
};

/// The per-solve TrainerConfig for grid point `lambda`. Solve-level
/// checkpoints are disabled — the path checkpoints at solve
/// boundaries instead (and OWL-QN refuses mid-solve snapshots).
TrainerConfig SolveConfig(const PathConfig& config, double lambda,
                          DenseVector warm) {
  TrainerConfig sc = config.trainer;
  sc.regularizer = KindForRatio(config.l1_ratio);
  sc.lambda = lambda;
  sc.l1_ratio = config.l1_ratio;
  sc.stop_rel_improvement = config.solve_rel_tolerance;
  sc.checkpoint = CheckpointConfig{};
  sc.init_weights = config.warm_start ? std::move(warm) : DenseVector();
  return sc;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double DeriveLambdaMax(const Dataset& data, const TrainerConfig& config,
                       double l1_ratio) {
  MLLIBSTAR_CHECK_GT(data.size(), 0u);
  WorkloadView view(config);
  const size_t dim = view.objective->ModelDim(data.num_features());
  const CsrBlock block = PartitionCsr(data, 1)[0];
  DenseVector gradient(dim);
  double loss_sum = 0.0;
  view.objective->LossGradient(block, DenseVector(dim), &gradient,
                               &loss_sum);
  double max_abs = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    max_abs = std::max(max_abs, std::fabs(gradient[j]));
  }
  max_abs /= static_cast<double>(data.size());
  // A vanishing L1 share would blow the grid up to infinity; clamp the
  // divisor the way glmnet clamps α.
  return max_abs / std::max(l1_ratio, 1e-3);
}

std::vector<double> LambdaGrid(double lambda_max, double min_ratio,
                               size_t n) {
  MLLIBSTAR_CHECK_GT(n, 0u);
  MLLIBSTAR_CHECK_GT(lambda_max, 0.0);
  MLLIBSTAR_CHECK_GT(min_ratio, 0.0);
  std::vector<double> grid;
  grid.reserve(n);
  if (n == 1) {
    grid.push_back(lambda_max);
    return grid;
  }
  for (size_t i = 0; i < n; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(n - 1);
    grid.push_back(lambda_max * std::pow(min_ratio, t));
  }
  return grid;
}

PathResult RunPath(const Dataset& data, const ClusterConfig& cluster,
                   const PathConfig& config) {
  MLLIBSTAR_CHECK_GT(config.n_lambdas, 0u);
  WorkloadView view(config.trainer);
  const size_t dim = view.objective->ModelDim(data.num_features());

  PathResult result;
  // Warm-start state: the full-data solution of the previous λ, plus
  // one model per CV fold (each fold's sequence warm-starts itself —
  // fold f at λ_k resumes from fold f at λ_{k−1}, never from the
  // full-data model, so held-out losses stay honest).
  DenseVector warm;
  std::vector<DenseVector> fold_warm(
      config.num_folds > 1 ? config.num_folds : 0);
  double best_metric = 0.0;
  int patience = 0;

  // The path checkpoint layout, written at solve boundaries. The grid
  // is restored rather than re-derived so a resumed path never depends
  // on recomputing λ_max.
  const CheckpointLayout layout = [&](Checkpoint* ck) {
    ck->Header(CheckpointTag::kPath, config.trainer.num_classes);
    ck->Field(&result.lambda_max);
    ck->Field(&result.lambdas);
    size_t solved = result.solves.size();
    ck->Field(&solved);
    ck->Field(&result.best_index);
    ck->Field(&best_metric);
    ck->Field(&patience);
    ck->Field(&warm);
    ck->List(&fold_warm);
    result.solves.resize(solved);
    for (PathSolve& s : result.solves) {
      ck->Field(&s.lambda);
      ck->Field(&s.cv_loss);
      ck->Field(&s.objective);
      ck->Field(&s.nnz);
      ck->Field(&s.comm_steps);
      ck->Field(&s.sim_seconds);
      ck->Field(&s.wall_seconds);
      ck->Field(&s.weights);
    }
  };
  if (RestoreCheckpoint(config.checkpoint, layout)) {
    MLLIBSTAR_CHECK_EQ(result.lambdas.size(), config.n_lambdas);
  }
  const size_t next_index = result.solves.size();
  if (result.lambdas.empty()) {
    result.lambda_max =
        config.lambda_max > 0.0
            ? config.lambda_max
            : DeriveLambdaMax(data, config.trainer, config.l1_ratio);
    result.lambdas = LambdaGrid(result.lambda_max,
                                config.lambda_min_ratio, config.n_lambdas);
  }

  // The rows the selection metric scores, packed once for the whole
  // path: each fold's held-out share (on first use), or the full data
  // without CV.
  std::vector<std::vector<CsrBlock>> scored(
      std::max<size_t>(config.num_folds, 1));
  if (config.num_folds <= 1) scored[0] = PartitionCsr(data, 1);

  for (size_t i = next_index; i < result.lambdas.size(); ++i) {
    const double lambda = result.lambdas[i];
    const double wall_start = WallSeconds();
    PathSolve solve;
    solve.lambda = lambda;

    // Cross-validation: each fold trains on its k−1/k share (warm from
    // its own previous-λ model) and is scored by unregularized loss on
    // the held-out share.
    if (config.num_folds > 1) {
      double held_out = 0.0;
      for (size_t f = 0; f < config.num_folds; ++f) {
        const TrainTestSplit split =
            config.stratified_folds
                ? StratifiedKFold(data, config.num_folds, f)
                : KFold(data, config.num_folds, f);
        if (scored[f].empty()) scored[f] = PartitionCsr(split.test, 1);
        auto trainer = MakeTrainer(
            config.system, SolveConfig(config, lambda, fold_warm[f]));
        TrainResult fold_result = trainer->Train(split.train, cluster);
        held_out += view.objective->MeanPartitionLoss(
            scored[f], fold_result.final_weights, nullptr);
        solve.sim_seconds += fold_result.sim_seconds;
        solve.comm_steps += fold_result.comm_steps;
        fold_warm[f] = std::move(fold_result.final_weights);
      }
      solve.cv_loss = held_out / static_cast<double>(config.num_folds);
    }

    // The full-data solve produces the weights the path keeps.
    auto trainer =
        MakeTrainer(config.system, SolveConfig(config, lambda, warm));
    TrainResult full = trainer->Train(data, cluster);
    MLLIBSTAR_CHECK_EQ(full.final_weights.dim(), dim);
    solve.objective =
        full.curve.points().empty() ? 0.0 : full.curve.points().back().objective;
    solve.nnz = full.final_weights.CountNonZeros();
    solve.comm_steps += full.comm_steps;
    solve.sim_seconds += full.sim_seconds;
    if (config.num_folds <= 1) {
      solve.cv_loss = view.objective->MeanPartitionLoss(
          scored[0], full.final_weights, nullptr);
    }
    warm = full.final_weights;
    solve.weights = std::move(full.final_weights);
    solve.wall_seconds = WallSeconds() - wall_start;

    // Best-so-far tracking + flat-tail early stop on the selection
    // metric.
    const double metric = solve.cv_loss;
    if (result.solves.empty()) {
      best_metric = metric;
      result.best_index = 0;
    } else {
      const double rel = (best_metric - metric) /
                         std::max(1.0, std::fabs(best_metric));
      if (metric < best_metric) {
        best_metric = metric;
        result.best_index = result.solves.size();
      }
      if (rel < config.path_rel_improvement) {
        ++patience;
      } else {
        patience = 0;
      }
    }
    result.solves.push_back(std::move(solve));

    if (ShouldCheckpoint(config.checkpoint,
                         static_cast<int>(result.solves.size()))) {
      SaveCheckpoint(config.checkpoint, layout);
    }

    if (patience >= config.path_patience) {
      result.early_stopped = true;
      break;
    }
    if (config.max_solves > 0 &&
        result.solves.size() - next_index >= config.max_solves) {
      break;
    }
  }
  return result;
}

}  // namespace mllibstar
