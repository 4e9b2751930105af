#include "train/mllib_trainer.h"

#include <algorithm>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "core/gd.h"
#include "data/partition.h"
#include "obs/round_profile.h"
#include "obs/telemetry.h"

namespace mllibstar {

TrainResult SparkSgdTrainer::Train(const Dataset& data,
                                   const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  Run run(cluster, config().host_threads);
  SparkCluster& spark = run.spark;
  run.d = ModelDim(data);
  run.partitions = PartitionCsr(data, run.k);
  run.rngs = WorkerRngs(run.k);
  run.ef = MakeErrorFeedback(codec(), config().codec, run.k, run.d);
  run.w = InitialWeights(run.d);
  run.slots.assign(run.k, DenseVector(run.d));

  // The Spark SGD checkpoint layout, at a step boundary: no per-worker
  // slot is live there, since every step rebuilds them.
  int done = 0;  // completed communication steps
  const CheckpointLayout layout = [&](Checkpoint* ck) {
    ck->Header(tag_, config().num_classes);
    ck->Field(&done);
    ck->Field(&run.w);
    ck->List(&run.rngs);
    ck->Field(&run.ef);
    // Elastic state: fired churn events stay fired, partition hosting
    // and pending rebuilds resume exactly where they were.
    ck->Through([&] { return spark.SaveElasticWords(); },
                [&](const std::vector<uint64_t>& words) {
                  spark.RestoreElasticWords(words);
                });
  };
  if (RestoreCheckpoint(config().checkpoint, layout)) {
    MLLIBSTAR_CHECK_EQ(run.w.dim(), run.d);
  }

  result.curve.set_label(name());
  result.curve.Add(done, 0.0,
                   Eval(run.partitions, run.w, spark.host_pool()));

  ScopedSpan run_span("train:" + name(), "trainer");
  while (done < config().max_comm_steps) {
    const int t = done;
    spark.BeginStage("iteration " + std::to_string(t));
    ScopedSpan iter_span("iteration " + std::to_string(t), "trainer");
    const SimTime iter_sim_start = spark.Now();
    RoundCollector round(name(), t, iter_sim_start, Telemetry::Get());

    result.total_model_updates += Step(&run, t);

    const SimTime now = spark.Barrier();
    iter_span.SetSimRange(iter_sim_start, now);
    round.Finish(now);
    done = t + 1;
    result.comm_steps = done;
    if (ShouldCheckpoint(config().checkpoint, done)) {
      SaveCheckpoint(config().checkpoint, layout);
    }
    if (done % config().eval_every == 0 || done == config().max_comm_steps) {
      const double objective =
          Eval(run.partitions, run.w, spark.host_pool());
      RecordEval(done, now, objective, &result);
      if (IsDiverged(objective)) {
        result.diverged = true;
        break;
      }
      if (ShouldStop(done, now, objective)) break;
    }
  }
  run_span.SetSimRange(0.0, spark.Now());

  result.final_weights = std::move(run.w);
  FinishResult(&spark.sim(), spark.total_bytes(), &result);
  return result;
}

uint64_t SparkSgdTrainer::LocalPasses(Run* run, int t,
                                      const DenseVector& start) {
  if (config().local_optimizer.kind != LocalOptimizerKind::kSgd &&
      run->optimizers.empty()) {
    // Adaptive-optimizer moments are not serialized; checkpointing
    // requires the paper's plain SGD local passes.
    MLLIBSTAR_CHECK(!config().checkpoint.enabled());
    for (size_t r = 0; r < run->k; ++r) {
      run->optimizers.push_back(
          MakeLocalOptimizer(config().local_optimizer, run->d));
    }
  }
  const double lr = schedule().LrAt(t);
  const std::vector<WorkerStats> step_stats =
      run->spark.RunOnWorkers("local-sgd", [&](size_t r) -> WorkerStats {
        DenseVector& local = run->slots[r];
        local = start;
        ComputeStats stats;
        for (size_t e = 0; e < std::max<size_t>(1, config().local_epochs);
             ++e) {
          stats += run->optimizers.empty()
                       ? objective().SgdEpoch(run->partitions[r], lr,
                                              &run->rngs[r], &local)
                       : objective().OptimizerEpoch(
                             run->partitions[r], lr,
                             run->optimizers[r].get(), &run->rngs[r],
                             &local);
        }
        WorkerStats ws;
        ws.work_units = stats.nnz_processed;
        ws.model_updates = stats.model_updates;
        return ws;
      });
  uint64_t updates = 0;
  for (const WorkerStats& ws : step_stats) updates += ws.model_updates;
  return updates;
}

uint64_t MllibTrainer::Step(Run* run, int t) {
  SparkCluster& spark = run->spark;
  const uint64_t model_bytes = codec().EncodedBytes(run->d);

  // (1) Driver broadcasts the current model (through the codec:
  // executors compute at the model they actually received).
  spark.Broadcast(model_bytes, config().broadcast, "model-bcast");
  const DenseVector& w_recv =
      CodecTransmit(codec(), nullptr, 0, run->w, &run->wire);

  // (2) Executors compute batch gradients at the received model.
  // Each callback touches only its own gradient slot and Rng, so the
  // engine may run them host-parallel; the batch-size fold happens
  // below in fixed worker order.
  const std::vector<WorkerStats> step_stats =
      spark.RunOnWorkers("gradient", [&](size_t r) -> WorkerStats {
        WorkerStats ws;
        const CsrBlock& part = run->partitions[r];
        const size_t bsize = BatchSize(part.rows());
        if (bsize == 0) return ws;
        const std::vector<size_t> batch =
            SampleBatch(part.rows(), bsize, &run->rngs[r]);
        run->slots[r].SetZero();
        const ComputeStats stats = objective().BatchGradient(
            part, batch, w_recv, &run->slots[r]);
        ws.work_units = stats.nnz_processed;
        ws.batch_size = batch.size();
        return ws;
      });
  uint64_t total_batch = 0;
  for (const WorkerStats& ws : step_stats) total_batch += ws.batch_size;

  // (3) Gradients flow to the driver through treeAggregate; each
  // worker's contribution crosses the codec (with error feedback).
  spark.TreeAggregate(model_bytes, TreeAggregators(run->k), run->d,
                      "grad-agg");

  // (4) The driver applies the single update of this step.
  DenseVector gradient_sum(run->d);
  for (size_t r = 0; r < run->k; ++r) {
    // A lossy wire decodes in place: the slot is rebuilt next step.
    gradient_sum.AddScaled(
        CodecTransmit(codec(), &run->ef, r, run->slots[r], &run->slots[r]),
        1.0);
  }
  const double lr = schedule().LrAt(t);
  regularizer().ApplyGradientStep(&run->w, lr);
  if (total_batch > 0) {
    run->w.AddScaled(gradient_sum, -lr / static_cast<double>(total_batch));
  }
  spark.RunOnDriver("model-update", 2 * run->d);
  return 1;
}

uint64_t MllibMaTrainer::Step(Run* run, int t) {
  SparkCluster& spark = run->spark;
  const uint64_t model_bytes = codec().EncodedBytes(run->d);

  // (1) Driver broadcasts the current global model through the codec.
  spark.Broadcast(model_bytes, config().broadcast, "model-bcast");
  const DenseVector& w_recv =
      CodecTransmit(codec(), nullptr, 0, run->w, &run->wire);

  // (2) Executors run local SGD passes starting from it (SendModel).
  const uint64_t updates = LocalPasses(run, t, w_recv);

  // (3) Local models flow back through the same treeAggregate path,
  // each crossing the codec with per-worker error feedback.
  spark.TreeAggregate(model_bytes, TreeAggregators(run->k), run->d,
                      "model-agg");
  for (size_t r = 0; r < run->k; ++r) {
    // Each local becomes what the wire delivered (decoded in place).
    CodecTransmit(codec(), &run->ef, r, run->slots[r], &run->slots[r]);
  }

  // (4) Driver averages them into the new global model.
  run->w = Average(run->slots);
  spark.RunOnDriver("model-average", run->d);
  return updates;
}

uint64_t MllibStarTrainer::Step(Run* run, int t) {
  SparkCluster& spark = run->spark;
  // Each shuffle moves one codec-encoded model partition (~d/k
  // coordinates) per peer pair.
  const uint64_t partition_bytes =
      codec().EncodedBytes((run->d + run->k - 1) / run->k);

  // (1) UpdateModel: local SGD passes over the whole partition, from
  // the model every executor holds after the last AllGather.
  const uint64_t updates = LocalPasses(run, t, run->w);

  // Every executor holds a full copy of the model; ownership of the k
  // model ranges is logical (paper §IV-B2). Averaging range p over all
  // workers and concatenating equals the full average, so the
  // host-side math uses Average() directly while the engine charges
  // the two shuffles.
  // (2) Reduce-Scatter: everyone ships the ranges it does not own to
  // their owners (each piece crossing the codec, with per-worker
  // error feedback), then averages the range it owns.
  spark.ShuffleAllToAll(partition_bytes, "reduce-scatter");
  for (size_t r = 0; r < run->k; ++r) {
    // Averaging k contributions of d/k coordinates ~ d work units.
    spark.sim().ComputeExact(&spark.sim().worker(r), run->d,
                             ActivityKind::kAggregate, "range-average");
    CodecTransmit(codec(), &run->ef, r, run->slots[r], &run->slots[r]);
  }
  run->w = Average(run->slots);

  // (3) AllGather: owners broadcast their averaged range; every
  // executor reassembles the full model from what the wire delivered.
  spark.ShuffleAllToAll(partition_bytes, "all-gather");
  CodecTransmit(codec(), nullptr, 0, run->w, &run->w);
  return updates;
}

}  // namespace mllibstar
