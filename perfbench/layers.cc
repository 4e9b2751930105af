#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>

#include "comm/codec.h"
#include "core/gd.h"
#include "core/loss.h"
#include "core/regularizer.h"
#include "data/partition.h"
#include "engine/spark_cluster.h"
#include "train/checkpoint.h"
#include "workloads/objective.h"

namespace perfbench {
namespace {

using namespace mllibstar;
using Clock = std::chrono::steady_clock;

// Host time spent timing each microbenchmarked call.
constexpr double kBudgetSec = 0.05;

// Median seconds per call of `fn`. Calls are grouped so each timed
// sample lasts at least ~50 µs, then samples are taken until the
// budget is spent (at least five).
double MedianSecondsPerCall(const std::function<void()>& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  const double once = std::chrono::duration<double>(Clock::now() - t0).count();
  const size_t group =
      std::max<size_t>(1, static_cast<size_t>(50e-6 / std::max(once, 1e-9)));
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             kBudgetSec) {
    t0 = Clock::now();
    for (size_t i = 0; i < group; ++i) fn();
    samples.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count() /
        static_cast<double>(group));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

bool IsPs(SystemKind kind) {
  return kind == SystemKind::kPetuum || kind == SystemKind::kPetuumStar ||
         kind == SystemKind::kAngel;
}

// Train wall µs per (worker × round) over the outcome's runs of the
// given PS family; 0 when the workload has none.
double UsPerWorkerRound(const std::vector<RunRecord>& runs, bool angel) {
  double us = 0.0;
  double worker_rounds = 0.0;
  for (const RunRecord& r : runs) {
    if (!IsPs(r.kind) || (r.kind == SystemKind::kAngel) != angel) continue;
    us += r.wall_s * 1e6;
    worker_rounds += static_cast<double>(r.workers) * r.comm_steps;
  }
  return worker_rounds > 0 ? us / worker_rounds : 0.0;
}

const DenseVector& HeadlineWeights(const Outcome& o) {
  return o.runs.back().weights;
}

}  // namespace

double MeasureLayers(const Inputs& in, const RunOptions& options,
                     const Outcome& untraced, SpanLog* log,
                     std::vector<Metric>* out) {
  auto put = [out](std::string name, double value, std::string unit) {
    out->push_back({std::move(name), value, std::move(unit)});
  };
  const TrainerConfig config = HeadlineConfig(in);
  const size_t k = in.cluster.num_workers;
  const size_t d = in.data.num_features();
  const double wall_us = untraced.wall_s * 1e6;
  const DenseVector& w = HeadlineWeights(untraced);

  size_t train_calls = untraced.runs.size();
  size_t eval_calls = 0;
  for (const GridRecord& g : untraced.grids) train_calls += g.candidates;
  for (const RunRecord& r : untraced.runs) eval_calls += r.curve_points;

  // data
  put("data.generate_s", in.generate_s, "s");
  double partition_s = 0.0;
  {
    Span span(log, "layer:data.partition");
    partition_s = MedianSecondsPerCall(
        [&] { (void)PartitionCsr(in.data, k); });
  }
  put("data.partition_ms", partition_s * 1e3, "ms");
  put("data.partition_calls", static_cast<double>(train_calls), "count");
  put("data.partition_share", train_calls * partition_s * 1e6 / wall_us,
      "frac");

  // eval: the calls Trainer::Eval makes, over the whole dataset.
  const std::unique_ptr<Loss> loss = MakeLoss(config.loss);
  const std::unique_ptr<Regularizer> reg =
      MakeRegularizer(config.regularizer, config.lambda);
  const std::unique_ptr<GlmObjective> objective =
      MakeBinaryObjective(loss.get(), reg.get(), config.lazy_regularization);
  double eval_s = 0.0;
  {
    Span span(log, "layer:eval");
    double sink = 0.0;
    eval_s = MedianSecondsPerCall([&] {
      sink += objective->MeanPointLoss(in.data.points(), w) + reg->Value(w);
    });
    if (!std::isfinite(sink)) eval_s = 0.0;
  }
  put("eval.call_ms", eval_s * 1e3, "ms");
  put("eval.calls", static_cast<double>(eval_calls), "count");
  put("eval.share", eval_calls * eval_s * 1e6 / wall_us, "frac");

  // kernels, on the first partition of the first PartitionCsr.
  const CsrBlock& block = in.partitions.front();
  {
    Span span(log, "layer:kernels.sgd");
    Rng rng(config.seed);
    DenseVector model(d);
    uint64_t nnz = 0;
    const double s = MedianSecondsPerCall([&] {
      nnz = LocalSgdEpoch(block, *loss, *reg, config.base_lr,
                          config.lazy_regularization, &rng, &model)
                .nnz_processed;
    });
    put("kernels.sgd_ns_per_nnz", nnz > 0 ? s * 1e9 / nnz : 0.0, "ns");
  }
  {
    Span span(log, "layer:kernels.grad");
    std::vector<size_t> rows(block.rows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    DenseVector grad(d);
    uint64_t nnz = 0;
    const double s = MedianSecondsPerCall([&] {
      nnz = AccumulateBatchGradient(block, rows, *loss, w, &grad)
                .nnz_processed;
    });
    put("kernels.grad_ns_per_nnz", nnz > 0 ? s * 1e9 / nnz : 0.0, "ns");
  }
  {
    Span span(log, "layer:kernels.axpy");
    DenseVector acc(d);
    const double s = MedianSecondsPerCall([&] { acc.AddScaled(w, 1e-3); });
    put("kernels.axpy_ns_per_coord", s * 1e9 / static_cast<double>(d), "ns");
  }

  // engine: one call of each SparkCluster primitive at the workload's k.
  {
    Span span(log, "layer:engine");
    const uint64_t model_bytes = 8 * d;
    const size_t aggregators = std::max<size_t>(
        1, static_cast<size_t>(std::sqrt(static_cast<double>(k))));
    SparkCluster spark(in.cluster, 1);
    const double stage = MedianSecondsPerCall([&] {
      spark.BeginStage("bench");
      spark.RunOnWorkers("noop", [](size_t) -> uint64_t { return 1; });
      spark.Barrier();
    });
    const double shuffle = MedianSecondsPerCall(
        [&] { spark.ShuffleAllToAll(model_bytes / k, "bench-shuffle"); });
    const double treeagg = MedianSecondsPerCall([&] {
      spark.TreeAggregate(model_bytes, aggregators, d, "bench-agg");
    });
    const double broadcast = MedianSecondsPerCall([&] {
      spark.Broadcast(model_bytes, BroadcastMode::kDriverSequential,
                      "bench-bcast");
    });
    put("engine.stage_us", stage * 1e6, "us");
    put("engine.shuffle_us", shuffle * 1e6, "us");
    put("engine.treeagg_us", treeagg * 1e6, "us");
    put("engine.broadcast_us", broadcast * 1e6, "us");
  }
  {
    double bytes = 0.0;
    double steps = 0.0;
    for (const RunRecord& r : untraced.runs) {
      if (IsPs(r.kind)) continue;
      bytes += static_cast<double>(r.total_bytes);
      steps += r.comm_steps;
    }
    put("engine.bytes_per_step", steps > 0 ? bytes / steps : 0.0, "B");
  }

  // ps
  const double petuum_us = UsPerWorkerRound(untraced.runs, /*angel=*/false);
  const double angel_us = UsPerWorkerRound(untraced.runs, /*angel=*/true);
  put("ps.petuum.us_per_worker_round", petuum_us, "us");
  put("ps.angel.us_per_worker_round", angel_us, "us");
  double petuum_growth = 0.0;
  double angel_growth = 0.0;
  if (in.id == WorkloadId::kScale1024) {
    // The same runs on a 128-worker Cluster 2.
    Inputs small = in;
    small.cluster = ClusterConfig::Cluster2(128);
    small.cluster.seed = in.cluster.seed;
    SpanLog quiet(false);
    Span span(log, "layer:ps.k128");
    const Outcome at128 = RunWorkload(small, options, &quiet);
    const double p128 = UsPerWorkerRound(at128.runs, false);
    const double a128 = UsPerWorkerRound(at128.runs, true);
    petuum_growth = p128 > 0 ? petuum_us / p128 : 0.0;
    angel_growth = a128 > 0 ? angel_us / a128 : 0.0;
  }
  put("ps.petuum.growth_1024_over_128", petuum_growth, "x");
  put("ps.angel.growth_1024_over_128", angel_growth, "x");
  {
    double updates = 0.0;
    for (const RunRecord& r : untraced.runs) {
      if (IsPs(r.kind)) updates += static_cast<double>(r.model_updates);
    }
    put("ps.model_updates", updates, "count");
  }

  // codec and checkpoint: only mllib_kdd12_int8 uses them.
  const bool int8 = in.id == WorkloadId::kMllibKdd12Int8;
  double encode_ns = 0.0, decode_ns = 0.0, ratio = 0.0;
  double write_ms = 0.0, read_ms = 0.0, ck_bytes = 0.0, ck_writes = 0.0;
  if (int8) {
    Span span(log, "layer:codec");
    const std::unique_ptr<GradientCodec> codec = MakeCodec(config.codec);
    EncodedChunk chunk = codec->Encode(w);
    encode_ns = MedianSecondsPerCall([&] { chunk = codec->Encode(w); }) *
                1e9 / static_cast<double>(d);
    decode_ns = MedianSecondsPerCall([&] { (void)codec->Decode(chunk); }) *
                1e9 / static_cast<double>(d);
    ratio = 8.0 * static_cast<double>(d) /
            static_cast<double>(codec->EncodedBytes(d));
  }
  if (int8) {
    // The checkpoint the resumed run wrote last, read back and
    // rewritten as-is.
    Span span(log, "layer:checkpoint");
    const std::string path = Int8CheckpointPath(in, options);
    const std::string copy = path + ".rewrite";
    Checkpoint ck;
    if (ck.ReadFile(path).ok()) {
      ck_bytes = static_cast<double>(std::filesystem::file_size(path));
      read_ms = MedianSecondsPerCall([&] {
                  Checkpoint again;
                  (void)again.ReadFile(path);
                }) * 1e3;
      write_ms = MedianSecondsPerCall([&] { (void)ck.WriteFile(copy); }) * 1e3;
      std::error_code ec;
      std::filesystem::remove(copy, ec);
    }
    ck_writes = untraced.runs.back().comm_steps / kInt8CheckpointEvery;
  }
  put("codec.encode_ns_per_coord", encode_ns, "ns");
  put("codec.decode_ns_per_coord", decode_ns, "ns");
  put("codec.ratio", ratio, "x");
  put("checkpoint.write_ms", write_ms, "ms");
  put("checkpoint.read_ms", read_ms, "ms");
  put("checkpoint.bytes", ck_bytes, "B");
  put("checkpoint.writes", ck_writes, "count");

  // train: wall of each system's final runs.
  std::map<std::string, double> per_system = {
      {"mllib", 0.0}, {"mllib_star", 0.0}, {"petuum", 0.0},
      {"petuum_star", 0.0}, {"angel", 0.0}};
  double final_s = 0.0;
  size_t events = 0;
  for (const RunRecord& r : untraced.runs) {
    per_system[MetricStem(SystemName(r.kind))] += r.wall_s;
    final_s += r.wall_s;
    events += r.trace_events;
  }
  for (const auto& [stem, seconds] : per_system) {
    put("train." + stem + "_s", seconds, "s");
  }

  // grid
  double search_s = 0.0;
  size_t candidates = 0;
  for (const GridRecord& g : untraced.grids) {
    search_s += g.wall_s;
    candidates += g.candidates;
  }
  put("grid.search_s", search_s, "s");
  put("grid.final_s", untraced.grids.empty() ? 0.0 : final_s, "s");
  put("grid.candidates", static_cast<double>(candidates), "count");

  // sim
  put("sim.events", static_cast<double>(events), "count");
  put("sim.host_us_per_event",
      events > 0 ? final_s * 1e6 / static_cast<double>(events) : 0.0, "us");

  return 1e6 * (eval_calls * eval_s + train_calls * partition_s);
}

}  // namespace perfbench
