#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "data/partition.h"
#include "train/grid_search.h"
#include "train/report.h"

namespace perfbench {
namespace {

using namespace mllibstar;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// mllib_kdd12_int8: the run is interrupted after kInt8Steps / 2 steps
// and resumed from the checkpoint written there.
constexpr int kInt8Steps = 100;

// Simulated seconds at which the piecewise-linear curve first gets
// halfway from its initial objective down to its best one; 0 when the
// run never improved on its initial objective.
double HalfProgressTime(const std::vector<ConvergencePoint>& points) {
  double best = points.front().objective;
  for (const ConvergencePoint& p : points) best = std::min(best, p.objective);
  if (!(best < points.front().objective)) return 0.0;
  const double target = 0.5 * (points.front().objective + best);
  for (size_t i = 1; i < points.size(); ++i) {
    const ConvergencePoint& a = points[i - 1];
    const ConvergencePoint& b = points[i];
    if (b.objective <= target) {
      const double frac = (a.objective - target) / (a.objective - b.objective);
      return a.time_sec + frac * (b.time_sec - a.time_sec);
    }
  }
  return 0.0;
}

// The workload seed offsets every default seed (dataset, trainer,
// cluster), so offset 0 is exactly what the bench/ harnesses run.
SyntheticSpec SpecFor(WorkloadId id, uint64_t seed) {
  SyntheticSpec spec;
  switch (id) {
    case WorkloadId::kFig5KddbL2:
      spec = KddbSpec();
      break;
    case WorkloadId::kStarKdd12:
      spec = Kdd12Spec(2e-3);
      break;
    case WorkloadId::kMllibKdd12Int8:
      spec = Kdd12Spec(1e-3);
      break;
    case WorkloadId::kScale1024:
      spec = UrlSpec(1e-3);
      break;
  }
  spec.seed += seed;
  return spec;
}

ClusterConfig ClusterFor(WorkloadId id, uint64_t seed) {
  ClusterConfig cluster = id == WorkloadId::kScale1024
                              ? ClusterConfig::Cluster2(1024)
                              : ClusterConfig::Cluster1(8);
  cluster.seed += seed;
  return cluster;
}

TrainerConfig BaseConfig(const Inputs& in, const RunOptions* options) {
  TrainerConfig base;
  base.loss = LossKind::kHinge;
  base.seed += in.seed;
  switch (in.id) {
    case WorkloadId::kFig5KddbL2:
      base.regularizer = RegularizerKind::kL2;
      base.lambda = 0.1;
      base.lr_schedule = LrScheduleKind::kInverseSqrt;
      base.ps.num_shards = 2;
      base.host_threads = 1;
      break;
    case WorkloadId::kStarKdd12:
      base.regularizer = RegularizerKind::kL2;
      base.lambda = 0.1;
      base.lr_schedule = LrScheduleKind::kInverseSqrt;
      base.base_lr = 0.3;
      base.max_comm_steps = 20;
      base.eval_every = 1;
      base.host_threads = 4;
      break;
    case WorkloadId::kMllibKdd12Int8:
      base.regularizer = RegularizerKind::kL2;
      base.lambda = 0.1;
      base.lr_schedule = LrScheduleKind::kInverseSqrt;
      base.base_lr = 4.0;
      base.batch_fraction = 0.01;
      base.max_comm_steps = kInt8Steps;
      base.eval_every = 10;
      base.codec.kind = CodecKind::kInt8Linear;
      base.codec.error_feedback = true;
      base.host_threads = 1;
      break;
    case WorkloadId::kScale1024:
      base.lr_schedule = LrScheduleKind::kConstant;
      base.base_lr = 0.3;
      base.batch_fraction = 0.01;
      base.max_comm_steps = 4;
      base.ps.num_shards = 4;
      base.ps.consistency = ConsistencyKind::kBsp;
      base.host_threads = 1;
      break;
  }
  if (options != nullptr && options->host_threads.has_value()) {
    base.host_threads = *options->host_threads;
  }
  return base;
}

void AddCheck(Outcome* out, std::string name, bool passed,
              std::string detail = "") {
  out->checks.push_back({std::move(name), passed, std::move(detail)});
}

// Times one Train call, records it, and checks its objective. The
// returned reference is valid until the next call that adds to `out`.
const RunRecord& Train(const std::string& label, SystemKind kind,
                 const TrainerConfig& config, const Inputs& in,
                 const RunOptions& options, SpanLog* log, Outcome* out) {
  RunRecord rec;
  {
    Span span(log, "train:" + label);
    const Clock::time_point t0 = Clock::now();
    TrainResult r = MakeTrainer(kind, config)->Train(in.data, in.cluster);
    rec.wall_s = SecondsSince(t0);
    rec.label = label;
    rec.kind = kind;
    rec.workers = in.cluster.num_workers;
    rec.comm_steps = r.comm_steps;
    rec.sim_seconds = r.sim_seconds;
    rec.total_bytes = r.total_bytes;
    rec.model_updates = r.total_model_updates;
    rec.best_objective = r.curve.BestObjective();
    rec.curve_points = r.curve.points().size();
    rec.trace_events = r.trace.events().size();
    rec.checksum = WeightsChecksum(r.final_weights);
    rec.curve = std::move(r.curve);
    rec.weights = std::move(r.final_weights);
    const bool finite = std::isfinite(rec.best_objective);
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "best objective %.6f (ceiling %.4f)%s", rec.best_objective,
                  options.objective_ceiling, r.diverged ? ", diverged" : "");
    AddCheck(out, "objective:" + label,
             finite && !r.diverged &&
                 rec.best_objective <= options.objective_ceiling,
             detail);
  }
  out->wall_s += rec.wall_s;
  out->runs.push_back(std::move(rec));
  return out->runs.back();
}

// Fig. 5's TunedRun: grid search, then the tuned configuration.
const RunRecord& TunedRun(SystemKind kind, const TrainerConfig& base,
                    const GridSearchSpec& grid, std::optional<double> stop_at,
                    const Inputs& in, const RunOptions& options, SpanLog* log,
                    Outcome* out) {
  const std::string name = SystemName(kind);
  GridRecord g;
  GridSearchOutcome tuned;
  {
    Span span(log, "grid:" + name);
    const Clock::time_point t0 = Clock::now();
    tuned = GridSearch(kind, base, grid, in.data, in.cluster);
    g.wall_s = SecondsSince(t0);
  }
  g.candidates = tuned.candidates_evaluated;
  out->wall_s += g.wall_s;
  out->grids.push_back(g);
  TrainerConfig best = tuned.best_config;
  best.target_objective = stop_at;
  return Train(name, kind, best, in, options, log, out);
}

// The Fig. 5 kddb L2=0.1 cell, as bench/fig5_ps_comparison runs it.
void RunFig5(const Inputs& in, const RunOptions& options, SpanLog* log,
             Outcome* out) {
  const TrainerConfig base = BaseConfig(in, &options);

  GridSearchSpec star_grid;
  star_grid.learning_rates = {0.1, 0.3, 1.0};
  star_grid.batch_fractions = {0.01};
  star_grid.trial_comm_steps = 10;
  TrainerConfig star_base = base;
  star_base.max_comm_steps = 40;
  const RunRecord star = TunedRun(SystemKind::kMllibStar, star_base,
                                  star_grid, std::nullopt, in, options, log,
                                  out);
  const double stop_at = star.best_objective + 0.005;

  GridSearchSpec petuum_grid;
  petuum_grid.learning_rates = {0.1, 0.3, 1.0};
  petuum_grid.batch_fractions = {0.05, 0.2};
  petuum_grid.stalenesses = {0, 2};
  petuum_grid.trial_comm_steps = 60;
  TrainerConfig petuum_base = base;
  petuum_base.max_comm_steps = 600;
  petuum_base.eval_every = 10;
  const RunRecord petuum = TunedRun(SystemKind::kPetuumStar, petuum_base,
                                    petuum_grid, stop_at, in, options, log,
                                    out);

  GridSearchSpec angel_grid;
  angel_grid.learning_rates = {0.1, 0.3, 1.0};
  angel_grid.batch_fractions = {0.01, 0.05};
  angel_grid.trial_comm_steps = 5;
  TrainerConfig angel_base = base;
  angel_base.max_comm_steps = 40;
  const RunRecord angel = TunedRun(SystemKind::kAngel, angel_base, angel_grid,
                                   stop_at, in, options, log, out);

  GridSearchSpec mllib_grid;
  mllib_grid.learning_rates = {1.0, 4.0, 16.0};
  mllib_grid.batch_fractions = {0.01, 0.1};
  mllib_grid.trial_comm_steps = 150;
  TrainerConfig mllib_base = base;
  mllib_base.max_comm_steps = 600;
  mllib_base.eval_every = 10;
  const RunRecord mllib = TunedRun(SystemKind::kMllib, mllib_base,
                                   mllib_grid, stop_at, in, options, log, out);

  const double target = TargetObjective(
      {mllib.curve, angel.curve, petuum.curve, star.curve}, 0.01);
  out->objective = star.best_objective;

  // Paper shape (Fig. 5, L2 != 0): everyone reaches the target,
  // MLlib* first, and Angel before Petuum*.
  const std::optional<double> t_star = star.curve.TimeToReach(target);
  const std::optional<double> t_petuum = petuum.curve.TimeToReach(target);
  const std::optional<double> t_angel = angel.curve.TimeToReach(target);
  const std::optional<double> t_mllib = mllib.curve.TimeToReach(target);
  out->sim_s_to_target = t_star.value_or(0.0);
  const bool all_reach = t_star && t_petuum && t_angel && t_mllib;
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "target %.4f; time->tgt mllib* %.1f, angel %.1f, "
                "petuum* %.1f, mllib %.1f",
                target, t_star.value_or(-1), t_angel.value_or(-1),
                t_petuum.value_or(-1), t_mllib.value_or(-1));
  AddCheck(out, "paper_shape:all_reach_target", all_reach, detail);
  out->shape.push_back({"paper_shape:mllib*_fastest",
                        all_reach && *t_star < *t_angel &&
                            *t_star < *t_petuum && *t_star < *t_mllib,
                        detail});
  out->shape.push_back({"paper_shape:angel_beats_petuum*",
                        all_reach && *t_angel < *t_petuum, detail});
}

void RunStarKdd12(const Inputs& in, const RunOptions& options, SpanLog* log,
                  Outcome* out) {
  const RunRecord& star = Train("mllib*", SystemKind::kMllibStar,
                                BaseConfig(in, &options), in, options, log,
                                out);
  out->objective = star.best_objective;
  out->sim_s_to_target = HalfProgressTime(star.curve.points());
}

void RunMllibInt8(const Inputs& in, const RunOptions& options, SpanLog* log,
                  Outcome* out) {
  TrainerConfig config = BaseConfig(in, &options);
  config.checkpoint.path = Int8CheckpointPath(in, options);
  config.checkpoint.every_steps = kInt8CheckpointEvery;
  config.checkpoint.resume = true;
  RemoveScratchFiles(in, options);  // the first run must start fresh

  // The first run stops halfway (a crash after its last checkpoint);
  // the second resumes from that checkpoint and finishes the run.
  TrainerConfig first = config;
  first.max_comm_steps = kInt8Steps / 2;
  const RunRecord head =
      Train("mllib:first", SystemKind::kMllib, first, in, options, log, out);
  const RunRecord& tail =
      Train("mllib:resume", SystemKind::kMllib, config, in, options, log, out);
  out->objective = tail.best_objective;
  // A resumed run's clock restarts at 0 and its first point repeats the
  // checkpointed model, so the whole run's curve is the first run's
  // followed by the rest of the resumed one, shifted.
  std::vector<ConvergencePoint> whole = head.curve.points();
  for (size_t i = 1; i < tail.curve.points().size(); ++i) {
    ConvergencePoint p = tail.curve.points()[i];
    p.time_sec += head.sim_seconds;
    whole.push_back(p);
  }
  out->sim_s_to_target = HalfProgressTime(whole);
}

void RunScale1024(const Inputs& in, const RunOptions& options, SpanLog* log,
                  Outcome* out) {
  const TrainerConfig base = BaseConfig(in, &options);
  // Petuum sums the k workers' deltas; scaling the step by 1/k keeps
  // the summed update an average, so the run learns at k = 1024.
  TrainerConfig petuum = base;
  petuum.base_lr /= static_cast<double>(in.cluster.num_workers);
  Train("petuum", SystemKind::kPetuum, petuum, in, options, log, out);
  Train("angel", SystemKind::kAngel, base, in, options, log, out);
  TrainerConfig star = base;
  star.max_comm_steps = 10;
  const RunRecord& headline =
      Train("mllib*", SystemKind::kMllibStar, star, in, options, log, out);
  out->objective = headline.best_objective;
  out->sim_s_to_target = HalfProgressTime(headline.curve.points());
}

}  // namespace

std::string Int8CheckpointPath(const Inputs& in, const RunOptions& options) {
  return options.tmp_dir + "/int8_seed" + std::to_string(in.seed) + ".ckpt";
}

void RemoveScratchFiles(const Inputs& in, const RunOptions& options) {
  if (in.id != WorkloadId::kMllibKdd12Int8) return;
  std::error_code ec;
  std::filesystem::remove(Int8CheckpointPath(in, options), ec);
}

std::optional<WorkloadId> ParseWorkload(const std::string& name) {
  if (name == "fig5_kddb_l2") return WorkloadId::kFig5KddbL2;
  if (name == "star_kdd12") return WorkloadId::kStarKdd12;
  if (name == "mllib_kdd12_int8") return WorkloadId::kMllibKdd12Int8;
  if (name == "scale_1024") return WorkloadId::kScale1024;
  return std::nullopt;
}

size_t DatasetsPerRepetition(WorkloadId id) {
  return id == WorkloadId::kScale1024 ? 1 : 4;
}

Inputs Setup(WorkloadId id, uint64_t seed, size_t dataset) {
  Inputs in;
  in.id = id;
  in.seed = seed * DatasetsPerRepetition(id) + dataset;
  in.cluster = ClusterFor(id, in.seed);
  Clock::time_point t0 = Clock::now();
  in.data = GenerateSynthetic(SpecFor(id, in.seed));
  in.generate_s = SecondsSince(t0);
  t0 = Clock::now();
  in.partitions = PartitionCsr(in.data, in.cluster.num_workers);
  in.partition_s = SecondsSince(t0);
  return in;
}

Outcome RunWorkload(const Inputs& in, const RunOptions& options,
                    SpanLog* log) {
  Outcome out;
  Span span(log, "workload");
  switch (in.id) {
    case WorkloadId::kFig5KddbL2:
      RunFig5(in, options, log, &out);
      break;
    case WorkloadId::kStarKdd12:
      RunStarKdd12(in, options, log, &out);
      break;
    case WorkloadId::kMllibKdd12Int8:
      RunMllibInt8(in, options, log, &out);
      break;
    case WorkloadId::kScale1024:
      RunScale1024(in, options, log, &out);
      break;
  }
  uint64_t h = 1469598103934665603ull;
  for (const RunRecord& r : out.runs) {
    out.sim_s += r.sim_seconds;
    out.wire_bytes += r.total_bytes;
    out.comm_steps += r.comm_steps;
    h = (h ^ r.checksum) * 1099511628211ull;
  }
  out.checksum = h;
  return out;
}

std::vector<Check> VerifyChecks(const Inputs& in, const RunOptions& options,
                                const Outcome& reference, SpanLog* log) {
  std::vector<Check> checks;
  Outcome scratch;
  if (in.id == WorkloadId::kStarKdd12) {
    RunOptions single = options;
    single.host_threads = 1;
    const RunRecord& r =
        Train("mllib*:host_threads=1", SystemKind::kMllibStar,
              BaseConfig(in, &single), in, single, log, &scratch);
    checks.push_back({"bit_identity:host_threads_1_vs_4",
                      r.checksum == reference.runs.front().checksum, ""});
  }
  if (in.id == WorkloadId::kMllibKdd12Int8) {
    const RunRecord& r = Train("mllib:uninterrupted", SystemKind::kMllib,
                               BaseConfig(in, &options), in, options, log,
                               &scratch);
    checks.push_back({"bit_identity:resume_vs_uninterrupted",
                      r.checksum == reference.runs.back().checksum, ""});
  }
  for (Check& c : scratch.checks) checks.push_back(std::move(c));
  return checks;
}

uint64_t WeightsChecksum(const DenseVector& w) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < w.dim(); ++i) {
    uint64_t bits = 0;
    const double v = w[i];
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string MetricStem(const std::string& system) {
  std::string stem;
  for (char c : system) {
    if (c == '*') {
      stem += "_star";
    } else {
      stem += c;
    }
  }
  return stem;
}

TrainerConfig HeadlineConfig(const Inputs& in) {
  return BaseConfig(in, nullptr);
}

}  // namespace perfbench
