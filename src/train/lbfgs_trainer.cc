#include "train/lbfgs_trainer.h"

#include <cmath>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "core/gd.h"
#include "core/lbfgs.h"
#include "core/owlqn.h"
#include "data/partition.h"
#include "obs/round_profile.h"
#include "obs/telemetry.h"

namespace mllibstar {

TrainResult MllibLbfgsTrainer::Train(const Dataset& data,
                                     const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = ModelDim(data);
  const uint64_t model_bytes = codec().EncodedBytes(d);
  const size_t num_agg = TreeAggregators(k);

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  const double n = static_cast<double>(data.size());

  result.curve.set_label(name());

  // One distributed pass per oracle call. The gradient payload is the
  // model-sized dense vector plus the scalar loss.
  int passes = 0;
  std::vector<DenseVector> worker_gradients(k, DenseVector(d));
  ErrorFeedback ef = MakeErrorFeedback(codec(), config().codec, k, d);
  DenseVector w_wire;  // the broadcast as decoded by a lossy codec
  auto oracle = [&](const DenseVector& w, DenseVector* gradient) -> double {
    spark.BeginStage("lbfgs pass " + std::to_string(passes));
    ScopedSpan pass_span("lbfgs pass " + std::to_string(passes), "trainer");
    const SimTime pass_sim_start = spark.Now();
    RoundCollector round(name(), passes, pass_sim_start, Telemetry::Get());
    spark.Broadcast(model_bytes, config().broadcast, "model-bcast");
    const DenseVector& w_recv = CodecTransmit(codec(), nullptr, 0, w, &w_wire);

    // Fused margin -> loss + derivative -> axpy pass over each CSR
    // partition. Each callback owns its gradient slot and returns its
    // partial loss; the fold below runs in fixed worker order (the old
    // shared `loss_sum +=` capture would race under host parallelism).
    const std::vector<WorkerStats> pass_stats =
        spark.RunOnWorkers("loss+grad", [&](size_t r) -> WorkerStats {
          worker_gradients[r].SetZero();
          WorkerStats ws;
          const ComputeStats stats = objective().LossGradient(
              partitions[r], w_recv, &worker_gradients[r], &ws.loss_sum);
          ws.work_units = stats.nnz_processed;
          return ws;
        });
    double loss_sum = 0.0;
    for (const WorkerStats& ws : pass_stats) loss_sum += ws.loss_sum;

    spark.TreeAggregate(model_bytes, num_agg, d, "grad-agg");

    gradient->SetZero();
    for (size_t r = 0; r < k; ++r) {
      // A lossy wire decodes in place: the slot is rebuilt next pass.
      gradient->AddScaled(CodecTransmit(codec(), &ef, r, worker_gradients[r],
                                        &worker_gradients[r]),
                          1.0);
    }
    gradient->Scale(1.0 / n);
    // OWL-QN owns any ‖w‖₁ term (pure L1, or the L1 part of elastic
    // net): the oracle returns the smooth part only — mean loss plus
    // the regularizer's smooth (L2) component (spark.ml's LBFGS/OWLQN
    // selection).
    regularizer().AddSmoothGradient(w, gradient);
    spark.RunOnDriver("lbfgs-direction", 2 * d);
    ++passes;
    ++result.total_model_updates;

    const double smooth = loss_sum / n + regularizer().SmoothValue(w);
    const SimTime now = spark.Barrier();
    pass_span.SetSimRange(pass_sim_start, now);
    round.Finish(now);
    // The recorded curve always shows the full objective.
    const double l1s = regularizer().l1_lambda();
    RecordEval(passes, now, l1s > 0.0 ? smooth + l1s * w.Norm1() : smooth,
               &result);
    return smooth;
  };

  ScopedSpan run_span("train:" + name(), "trainer");
  LbfgsOptions options;
  // Each "communication step" budget unit buys one distributed pass.
  options.max_iterations = config().max_comm_steps;
  // The path driver's per-solve stopping rule maps onto the solver's
  // relative-improvement tolerance — this is what makes warm-started
  // solves finish in fewer passes.
  if (config().stop_rel_improvement.has_value()) {
    options.objective_tolerance = *config().stop_rel_improvement;
  }
  LbfgsResult solved;
  const double l1_strength = regularizer().l1_lambda();
  if (l1_strength > 0.0) {
    // OWL-QN carries orthant/pseudo-gradient state that is not
    // serialized; checkpointing covers the smooth L-BFGS path only.
    MLLIBSTAR_CHECK(!config().checkpoint.enabled());
    OwlqnSolver solver(options, l1_strength);
    solved = solver.Minimize(oracle, InitialWeights(d));
  } else {
    LbfgsSolver solver(options);
    // The L-BFGS checkpoint layout: the solver state between
    // iterations, the error-feedback residuals and the elastic state.
    LbfgsState state;
    state.x = InitialWeights(d);
    const auto layout = [&](Checkpoint* ck, LbfgsState* st) {
      ck->Header(CheckpointTag::kLbfgs, config().num_classes);
      ck->Field(&st->iteration);
      ck->Field(&st->evaluated);
      ck->Field(&st->objective);
      ck->Field(&st->x);
      ck->Field(&st->gradient);
      size_t m = st->s_history.size();
      ck->Field(&m);
      st->s_history.resize(m);
      st->y_history.resize(m);
      st->rho_history.resize(m);
      for (size_t i = 0; i < m; ++i) {
        ck->Field(&st->s_history[i]);
        ck->Field(&st->y_history[i]);
        ck->Field(&st->rho_history[i]);
      }
      ck->Field(&ef);
      ck->Through([&] { return spark.SaveElasticWords(); },
                  [&](const std::vector<uint64_t>& words) {
                    spark.RestoreElasticWords(words);
                  });
    };
    if (RestoreCheckpoint(config().checkpoint,
                          [&](Checkpoint* ck) { layout(ck, &state); })) {
      MLLIBSTAR_CHECK_EQ(state.x.dim(), d);
    }
    LbfgsSolver::IterationObserver observer;
    if (config().checkpoint.enabled() &&
        config().checkpoint.every_steps > 0) {
      observer = [&](const LbfgsState& st) {
        if (!ShouldCheckpoint(config().checkpoint, st.iteration)) return;
        // The layout is two-way, so it saves from a copy of the
        // solver's read-only state.
        LbfgsState snapshot = st;
        SaveCheckpoint(config().checkpoint,
                       [&](Checkpoint* ck) { layout(ck, &snapshot); });
      };
    }
    solved = solver.MinimizeFrom(oracle, std::move(state), observer);
  }

  run_span.SetSimRange(0.0, spark.Now());
  result.comm_steps = passes;
  result.final_weights = std::move(solved.minimizer);
  result.diverged = !std::isfinite(solved.objective);
  FinishResult(&spark.sim(), spark.total_bytes(), &result);
  return result;
}

}  // namespace mllibstar
