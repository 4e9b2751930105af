// Edge-case and configuration-surface tests for the trainers, beyond
// the core behaviors covered in trainer_test.cc.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "data/synthetic.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

Dataset SmallData(uint64_t seed = 88) {
  SyntheticSpec spec;
  spec.name = "edge";
  spec.num_instances = 500;
  spec.num_features = 120;
  spec.avg_nnz = 8;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

ClusterConfig SmallCluster(size_t workers = 4) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;
  return config;
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.3;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.max_comm_steps = 8;
  return config;
}

TEST(TrainerEdgeTest, L1RegularizationSparsifiesTheModel) {
  const Dataset data = SmallData();
  TrainerConfig plain = BaseConfig();
  TrainerConfig l1 = BaseConfig();
  l1.regularizer = RegularizerKind::kL1;
  l1.lambda = 0.02;
  const TrainResult without =
      MakeTrainer(SystemKind::kMllibStar, plain)->Train(data, SmallCluster());
  const TrainResult with =
      MakeTrainer(SystemKind::kMllibStar, l1)->Train(data, SmallCluster());
  EXPECT_FALSE(with.diverged);
  EXPECT_LT(with.final_weights.CountNonZeros(1e-9),
            without.final_weights.CountNonZeros(1e-9));
}

TEST(TrainerEdgeTest, SquaredLossRegressionRuns) {
  Dataset data(3, "sq");
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    DataPoint p;
    const FeatureIndex j = static_cast<FeatureIndex>(i % 3);
    p.features.Push(j, 1.0);
    p.label = (j == 0 ? 1.0 : j == 1 ? -2.0 : 0.5) + 0.01 * rng.NextGaussian();
    data.Add(p);
  }
  TrainerConfig config = BaseConfig();
  config.loss = LossKind::kSquared;
  config.base_lr = 0.2;
  config.max_comm_steps = 15;
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, SmallCluster());
  EXPECT_FALSE(result.diverged);
  EXPECT_NEAR(result.final_weights[0], 1.0, 0.1);
  EXPECT_NEAR(result.final_weights[1], -2.0, 0.1);
  EXPECT_NEAR(result.final_weights[2], 0.5, 0.1);
}

TEST(TrainerEdgeTest, TorrentBroadcastSpeedsUpMllibAtScale) {
  const Dataset data = SmallData();
  TrainerConfig seq = BaseConfig();
  seq.max_comm_steps = 4;
  TrainerConfig torrent = seq;
  torrent.broadcast = BroadcastMode::kTorrent;
  const TrainResult a =
      MakeTrainer(SystemKind::kMllib, seq)->Train(data, SmallCluster(16));
  const TrainResult b = MakeTrainer(SystemKind::kMllib, torrent)
                            ->Train(data, SmallCluster(16));
  EXPECT_LT(b.sim_seconds, a.sim_seconds);
  // Identical math either way.
  EXPECT_DOUBLE_EQ(a.curve.FinalObjective(), b.curve.FinalObjective());
}

TEST(TrainerEdgeTest, LocalEpochsMultiplyUpdates) {
  const Dataset data = SmallData();
  TrainerConfig one = BaseConfig();
  one.max_comm_steps = 3;
  TrainerConfig three = one;
  three.local_epochs = 3;
  const TrainResult a =
      MakeTrainer(SystemKind::kMllibStar, one)->Train(data, SmallCluster());
  const TrainResult b =
      MakeTrainer(SystemKind::kMllibStar, three)->Train(data, SmallCluster());
  EXPECT_EQ(b.total_model_updates, 3 * a.total_model_updates);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);
}

TEST(TrainerEdgeTest, MaxSimSecondsStopsTheRun) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 1000;
  config.max_sim_seconds = 1.0;
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, SmallCluster());
  EXPECT_LT(result.comm_steps, 1000);
}

TEST(TrainerEdgeTest, EvalEveryThinsTheCurve) {
  const Dataset data = SmallData();
  TrainerConfig every = BaseConfig();
  every.max_comm_steps = 12;
  TrainerConfig sparse_eval = every;
  sparse_eval.eval_every = 4;
  const TrainResult a =
      MakeTrainer(SystemKind::kMllibStar, every)->Train(data, SmallCluster());
  const TrainResult b = MakeTrainer(SystemKind::kMllibStar, sparse_eval)
                            ->Train(data, SmallCluster());
  EXPECT_EQ(a.curve.points().size(), 13u);  // initial + 12
  EXPECT_EQ(b.curve.points().size(), 4u);   // initial + steps 4, 8, 12
}

TEST(TrainerEdgeTest, NumAggregatorsOverrideChangesTiming) {
  const Dataset data = SmallData();
  TrainerConfig one = BaseConfig();
  one.max_comm_steps = 3;
  one.num_aggregators = 1;
  TrainerConfig four = one;
  four.num_aggregators = 4;
  const TrainResult a =
      MakeTrainer(SystemKind::kMllib, one)->Train(data, SmallCluster(16));
  const TrainResult b =
      MakeTrainer(SystemKind::kMllib, four)->Train(data, SmallCluster(16));
  EXPECT_NE(a.sim_seconds, b.sim_seconds);
  EXPECT_DOUBLE_EQ(a.curve.FinalObjective(), b.curve.FinalObjective());
}

TEST(TrainerEdgeTest, AspRunsAndConverges) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 20;
  config.batch_fraction = 0.2;
  config.ps.consistency = ConsistencyKind::kAsp;
  const TrainResult result = MakeTrainer(SystemKind::kPetuumStar, config)
                                 ->Train(data, SmallCluster());
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.curve.BestObjective(),
            result.curve.points().front().objective);
}

TEST(TrainerEdgeTest, AspIsNoSlowerThanBspUnderJitter) {
  const Dataset data = SmallData();
  ClusterConfig jittery = ClusterConfig::Cluster2(4);
  TrainerConfig bsp = BaseConfig();
  bsp.max_comm_steps = 15;
  bsp.batch_fraction = 0.3;
  TrainerConfig asp = bsp;
  asp.ps.consistency = ConsistencyKind::kAsp;
  const TrainResult b =
      MakeTrainer(SystemKind::kPetuumStar, bsp)->Train(data, jittery);
  const TrainResult a =
      MakeTrainer(SystemKind::kPetuumStar, asp)->Train(data, jittery);
  EXPECT_LE(a.sim_seconds, b.sim_seconds + 1e-9);
}

TEST(TrainerEdgeTest, MorePsShardsNeverSlower) {
  const Dataset data = SmallData();
  TrainerConfig two = BaseConfig();
  two.max_comm_steps = 6;
  two.ps.num_shards = 1;
  TrainerConfig four = two;
  four.ps.num_shards = 4;
  const TrainResult a =
      MakeTrainer(SystemKind::kAngel, two)->Train(data, SmallCluster());
  const TrainResult b =
      MakeTrainer(SystemKind::kAngel, four)->Train(data, SmallCluster());
  EXPECT_LE(b.sim_seconds, a.sim_seconds * 1.05);
}

TEST(TrainerEdgeTest, SingleWorkerDegeneratesGracefully) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  for (SystemKind kind : {SystemKind::kMllib, SystemKind::kMllibStar,
                          SystemKind::kPetuumStar}) {
    const TrainResult result =
        MakeTrainer(kind, config)->Train(data, SmallCluster(1));
    EXPECT_FALSE(result.diverged) << SystemName(kind);
    EXPECT_LT(result.curve.BestObjective(),
              result.curve.points().front().objective)
        << SystemName(kind);
  }
}

TEST(TrainerEdgeTest, MoreWorkersThanPoints) {
  Dataset tiny(10, "tiny");
  for (int i = 0; i < 3; ++i) {
    DataPoint p;
    p.label = i % 2 == 0 ? 1.0 : -1.0;
    p.features.Push(static_cast<FeatureIndex>(i), 1.0);
    tiny.Add(p);
  }
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 2;
  for (SystemKind kind : {SystemKind::kMllib, SystemKind::kMllibStar,
                          SystemKind::kAngel}) {
    const TrainResult result =
        MakeTrainer(kind, config)->Train(tiny, SmallCluster(8));
    EXPECT_FALSE(result.diverged) << SystemName(kind);
  }
}

TEST(TrainerEdgeTest, SeedChangesTrajectoryButNotOutcomeQuality) {
  const Dataset data = SmallData();
  TrainerConfig a = BaseConfig();
  TrainerConfig b = BaseConfig();
  b.seed = 999;
  const TrainResult ra =
      MakeTrainer(SystemKind::kMllibStar, a)->Train(data, SmallCluster());
  const TrainResult rb =
      MakeTrainer(SystemKind::kMllibStar, b)->Train(data, SmallCluster());
  EXPECT_NE(ra.curve.FinalObjective(), rb.curve.FinalObjective());
  EXPECT_NEAR(ra.curve.FinalObjective(), rb.curve.FinalObjective(), 0.05);
}

TEST(TrainerEdgeTest, SparsePullCutsPsTrafficWithoutChangingResult) {
  const Dataset data = SmallData();
  TrainerConfig dense = BaseConfig();
  dense.max_comm_steps = 5;
  TrainerConfig sparse = dense;
  sparse.ps.sparse_pull = true;
  const TrainResult a =
      MakeTrainer(SystemKind::kAngel, dense)->Train(data, SmallCluster());
  const TrainResult b =
      MakeTrainer(SystemKind::kAngel, sparse)->Train(data, SmallCluster());
  // Same math, fewer bytes, no slower.
  EXPECT_DOUBLE_EQ(a.curve.FinalObjective(), b.curve.FinalObjective());
  EXPECT_LE(b.total_bytes, a.total_bytes);
  EXPECT_LE(b.sim_seconds, a.sim_seconds + 1e-9);
}

TEST(TrainerEdgeTest, FaultyClusterSameResultSlower) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 4;
  ClusterConfig faulty = SmallCluster();
  faulty.task_failure_prob = 0.2;
  const TrainResult clean =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, SmallCluster());
  const TrainResult failed =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, faulty);
  EXPECT_DOUBLE_EQ(clean.curve.FinalObjective(),
                   failed.curve.FinalObjective());
  EXPECT_GT(failed.sim_seconds, clean.sim_seconds);
}

// ------------------------------------------------------ config checks

struct BadConfigRow {
  const char* name;
  SystemKind system;
  void (*corrupt)(TrainerConfig*);
  const char* field;  ///< must appear in the error message
};

class TrainCheckedTest : public ::testing::TestWithParam<BadConfigRow> {};

TEST_P(TrainCheckedTest, RejectsBeforeTraining) {
  const BadConfigRow& row = GetParam();
  TrainerConfig config = BaseConfig();
  row.corrupt(&config);
  const Status valid = config.Validate();
  EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(valid.message().find(row.field), std::string::npos)
      << valid.ToString();

  const Result<TrainResult> result =
      MakeTrainer(row.system, config)->TrainChecked(SmallData(),
                                                     SmallCluster());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(), valid.message());
}

constexpr BadConfigRow kBadConfigRows[] = {
    {"eval_every_zero_mllib_star", SystemKind::kMllibStar,
     [](TrainerConfig* c) { c->eval_every = 0; }, "eval_every"},
    {"eval_every_zero_petuum", SystemKind::kPetuum,
     [](TrainerConfig* c) { c->eval_every = 0; }, "eval_every"},
    {"eval_every_negative", SystemKind::kMllib,
     [](TrainerConfig* c) { c->eval_every = -3; }, "eval_every"},
    {"base_lr_negative", SystemKind::kMllibStar,
     [](TrainerConfig* c) { c->base_lr = -1.0; }, "base_lr"},
    {"base_lr_zero", SystemKind::kAngel,
     [](TrainerConfig* c) { c->base_lr = 0.0; }, "base_lr"},
    {"base_lr_nan", SystemKind::kPetuumStar,
     [](TrainerConfig* c) { c->base_lr = std::nan(""); }, "base_lr"},
    {"base_lr_infinite", SystemKind::kMllibLbfgs,
     [](TrainerConfig* c) {
       c->base_lr = std::numeric_limits<double>::infinity();
     },
     "base_lr"},
    {"batch_fraction_zero", SystemKind::kMllib,
     [](TrainerConfig* c) { c->batch_fraction = 0.0; }, "batch_fraction"},
    {"batch_fraction_above_one", SystemKind::kPetuum,
     [](TrainerConfig* c) { c->batch_fraction = 1.5; }, "batch_fraction"},
    {"batch_fraction_nan", SystemKind::kMllibMa,
     [](TrainerConfig* c) { c->batch_fraction = std::nan(""); },
     "batch_fraction"},
    {"max_comm_steps_negative", SystemKind::kMllibStar,
     [](TrainerConfig* c) { c->max_comm_steps = -1; }, "max_comm_steps"},
};

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, TrainCheckedTest, ::testing::ValuesIn(kBadConfigRows),
    [](const ::testing::TestParamInfo<BadConfigRow>& info) {
      return std::string(info.param.name);
    });

TEST(TrainerEdgeTest, CheckedValidConfigTrainsExactlyLikeTrain) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.batch_fraction = 1.0;  // the closed end of (0, 1]
  config.max_comm_steps = 0;    // and zero steps are valid
  ASSERT_TRUE(config.Validate().ok());
  config.max_comm_steps = 4;
  const Result<TrainResult> checked =
      MakeTrainer(SystemKind::kPetuum, config)->TrainChecked(data,
                                                              SmallCluster());
  ASSERT_TRUE(checked.ok());
  const TrainResult plain =
      MakeTrainer(SystemKind::kPetuum, config)->Train(data, SmallCluster());
  EXPECT_EQ(checked.value().sim_seconds, plain.sim_seconds);
  ASSERT_EQ(checked.value().final_weights.dim(), plain.final_weights.dim());
  for (size_t i = 0; i < plain.final_weights.dim(); ++i) {
    EXPECT_EQ(checked.value().final_weights[i], plain.final_weights[i]);
  }
}

}  // namespace
}  // namespace mllibstar
