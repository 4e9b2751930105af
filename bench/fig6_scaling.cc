// Figure 6: the Tencent-scale experiment. Convergence of MLlib,
// MLlib* and Angel on the WX-shaped workload over the heterogeneous
// 10 Gbps Cluster 2 with 32/64/96/128 machines, plus the speedup plot
// (6d) normalized to 32 machines. The sweep continues to 256/512/1024
// machines, the paper's ~1000-node (953-node) regime.
//
// Paper shapes to reproduce:
//  * MLlib* converges fastest at every cluster size (6a-6c);
//  * scalability is poor for everyone: going 32 -> 128 machines gives
//    ~1.7x for MLlib*, ~1.5x for Angel, and MLlib gets *slower*
//    (communication starts to dominate; stragglers gate barriers).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

struct SystemRun {
  SystemKind kind;
  TrainResult result;
};

std::vector<SystemRun> RunAt(const Dataset& data, size_t machines) {
  // Batch sizes are tuned once (by grid search at 32 machines) as
  // absolute counts; as machines grow, the same batch is a larger
  // fraction of each shrinking partition.
  const double batch_scale = static_cast<double>(machines) / 32.0;
  const ClusterConfig cluster = ClusterConfig::Cluster2(machines);

  TrainerConfig base;
  base.loss = LossKind::kHinge;
  base.lr_schedule = LrScheduleKind::kConstant;
  base.ps.num_shards = 4;

  std::vector<SystemRun> runs;

  TrainerConfig star_config = base;
  star_config.base_lr = 0.3;
  star_config.max_comm_steps = 10;
  runs.push_back({SystemKind::kMllibStar,
                  MakeTrainer(SystemKind::kMllibStar, star_config)
                      ->Train(data, cluster)});

  TrainerConfig angel_config = base;
  angel_config.base_lr = 0.3;
  angel_config.batch_fraction = 0.01 * batch_scale;
  angel_config.max_comm_steps = 10;
  runs.push_back({SystemKind::kAngel,
                  MakeTrainer(SystemKind::kAngel, angel_config)
                      ->Train(data, cluster)});

  TrainerConfig mllib_config = base;
  mllib_config.base_lr = 1.0;
  mllib_config.lr_schedule = LrScheduleKind::kInverseSqrt;
  mllib_config.batch_fraction = 0.01 * batch_scale;
  mllib_config.max_comm_steps = 200;
  mllib_config.eval_every = 10;
  runs.push_back({SystemKind::kMllib,
                  MakeTrainer(SystemKind::kMllib, mllib_config)
                      ->Train(data, cluster)});
  return runs;
}

}  // namespace

int main() {
  std::printf(
      "Figure 6 — WX-shaped workload on heterogeneous Cluster 2\n");
  const Dataset data = GenerateSynthetic(WxSpec());
  std::printf("workload: %zu instances x %zu features\n", data.size(),
              data.num_features());

  const size_t machine_counts[] = {32, 64, 96, 128, 256, 512, 1024};
  // time-per-epoch (MLlib: per-step) per system per size, for 6(d).
  std::vector<std::vector<double>> per_step(3);

  for (size_t machines : machine_counts) {
    std::printf("\n--- #machines = %zu ---\n", machines);
    const std::vector<SystemRun> runs = RunAt(data, machines);
    std::vector<ConvergenceCurve> curves;
    std::printf("  %-8s %10s %10s %14s\n", "system", "best-obj",
                "sim-time", "per-step(s)");
    for (size_t i = 0; i < runs.size(); ++i) {
      const TrainResult& r = runs[i].result;
      const double step_time = r.sim_seconds / std::max(1, r.comm_steps);
      per_step[i].push_back(step_time);
      curves.push_back(r.curve);
      std::printf("  %-8s %10.4f %10.1f %14.2f\n", r.system.c_str(),
                  r.curve.BestObjective(), r.sim_seconds, step_time);
    }
    bench::SaveCurves("fig6_machines_" + std::to_string(machines), curves);
  }

  std::printf("\nFigure 6(d) — speedup vs 32 machines "
              "(time per communication step)\n");
  std::printf("  %-8s", "system");
  for (size_t machines : machine_counts) {
    std::printf(" %7zu", machines);
  }
  std::printf("\n");
  const char* names[] = {"mllib*", "angel", "mllib"};
  for (size_t i = 0; i < 3; ++i) {
    std::printf("  %-8s", names[i]);
    for (size_t j = 0; j < per_step[i].size(); ++j) {
      std::printf(" %6.2fx", per_step[i][0] / per_step[i][j]);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape: far below the linear ideal (4x at 128, 32x at "
      "1024 machines); "
      "MLlib can even slow down as broadcast/aggregate costs grow "
      "with k and stragglers gate every barrier.\n");
  return 0;
}
