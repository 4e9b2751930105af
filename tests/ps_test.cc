#include "ps/parameter_server.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "data/synthetic.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

ClusterConfig PsClusterConfig(size_t workers, size_t shards) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;
  config.num_servers = shards;
  return config;
}

PsConfig DefaultPs(size_t shards) {
  PsConfig ps;
  ps.num_shards = shards;
  return ps;
}

TEST(PsContextTest, ModelStartsAtZero) {
  SimCluster sim(PsClusterConfig(2, 2));
  PsContext ps(&sim, 10, DefaultPs(2));
  EXPECT_EQ(ps.dim(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(ps.model()[i], 0.0);
}

TEST(PsContextTest, PullAdvancesWorkerAndShards) {
  SimCluster sim(PsClusterConfig(2, 2));
  PsContext ps(&sim, 1000, DefaultPs(2));
  const SimTime done = ps.TimePull(&sim.worker(0));
  EXPECT_GT(done, 0.0);
  EXPECT_DOUBLE_EQ(sim.worker(0).clock, done);
  EXPECT_GT(sim.server(0).clock, 0.0);
  EXPECT_GT(sim.server(1).clock, 0.0);
  EXPECT_DOUBLE_EQ(sim.worker(1).clock, 0.0);
}

TEST(PsContextTest, ConcurrentPullsQueueAtShards) {
  SimCluster sim(PsClusterConfig(2, 1));
  PsConfig ps_config = DefaultPs(1);
  PsContext ps(&sim, 100000, ps_config);
  const SimTime first = ps.TimePull(&sim.worker(0));
  const SimTime second = ps.TimePull(&sim.worker(1));
  // The single shard's link serializes the two transfers.
  EXPECT_GT(second, first);
}

TEST(PsContextTest, MoreShardsServeFaster) {
  // Two workers pulling a large model: with 4 shards the per-shard
  // slices are smaller and queueing shrinks.
  SimCluster sim1(PsClusterConfig(4, 1));
  PsContext one(&sim1, 400000, DefaultPs(1));
  SimTime one_done = 0.0;
  for (size_t r = 0; r < 4; ++r) {
    one_done = std::max(one_done, one.TimePull(&sim1.worker(r)));
  }

  SimCluster sim4(PsClusterConfig(4, 4));
  PsContext four(&sim4, 400000, DefaultPs(4));
  SimTime four_done = 0.0;
  for (size_t r = 0; r < 4; ++r) {
    four_done = std::max(four_done, four.TimePull(&sim4.worker(r)));
  }
  EXPECT_LT(four_done, one_done);
}

TEST(PsContextTest, PushCountsBytes) {
  SimCluster sim(PsClusterConfig(1, 2));
  PsContext ps(&sim, 1000, DefaultPs(2));
  EXPECT_EQ(ps.total_bytes(), 0u);
  ps.TimePull(&sim.worker(0));
  ps.TimePush(&sim.worker(0));
  EXPECT_EQ(ps.total_bytes(), 2u * 8u * 1000u);
}

TEST(PsContextTest, ApplyDeltaSums) {
  SimCluster sim(PsClusterConfig(1, 1));
  PsConfig config = DefaultPs(1);
  config.delta_scale = 0.5;
  PsContext ps(&sim, 3, config);
  DenseVector delta(std::vector<double>{2.0, 0.0, -4.0});
  ps.ApplyDelta(delta);
  ps.ApplyDelta(delta);
  EXPECT_DOUBLE_EQ(ps.model()[0], 2.0);
  EXPECT_DOUBLE_EQ(ps.model()[2], -4.0);
}

TEST(PsContextTest, AverageModels) {
  SimCluster sim(PsClusterConfig(1, 1));
  PsContext ps(&sim, 2, DefaultPs(1));
  ps.AccumulateForAverage(DenseVector(std::vector<double>{2.0, 4.0}));
  ps.AccumulateForAverage(DenseVector(std::vector<double>{4.0, 0.0}));
  ps.FinalizeAverage();
  EXPECT_DOUBLE_EQ(ps.model()[0], 3.0);
  EXPECT_DOUBLE_EQ(ps.model()[1], 2.0);
  // Second finalize with nothing staged is a no-op.
  ps.FinalizeAverage();
  EXPECT_DOUBLE_EQ(ps.model()[0], 3.0);
}

// ----------------------------------------------------- consistency model

// A tracker whose workers finished their rounds at `finish[w][t]`,
// replayed through the same FinishRound calls the event loop makes.
ConsistencyTracker Replay(ConsistencyKind kind, int staleness,
                          const std::vector<std::vector<SimTime>>& finish) {
  ConsistencyTracker tracker(kind, staleness, finish.size());
  for (size_t w = 0; w < finish.size(); ++w) {
    for (SimTime at : finish[w]) tracker.FinishRound(w, at);
  }
  return tracker;
}

TEST(ConsistencyTest, AspNeverWaitsOnOthers) {
  std::vector<std::vector<SimTime>> finish = {{1.0, 2.0}, {10.0, 20.0}};
  EXPECT_DOUBLE_EQ(
      Replay(ConsistencyKind::kAsp, 0, finish).StartTime(0, 2), 2.0);
}

TEST(ConsistencyTest, BspWaitsForSlowestPreviousRound) {
  std::vector<std::vector<SimTime>> finish = {{1.0}, {5.0}};
  // Worker 0 starting round 1 must wait for worker 1's round 0.
  EXPECT_DOUBLE_EQ(
      Replay(ConsistencyKind::kBsp, 0, finish).StartTime(0, 1), 5.0);
}

TEST(ConsistencyTest, FirstRoundStartsImmediately) {
  std::vector<std::vector<SimTime>> finish = {{}, {}};
  EXPECT_DOUBLE_EQ(
      Replay(ConsistencyKind::kBsp, 0, finish).StartTime(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(
      Replay(ConsistencyKind::kSsp, 2, finish).StartTime(1, 0), 0.0);
}

TEST(ConsistencyTest, SspAllowsBoundedLead) {
  // Worker 0 finished rounds at t=1,2,3; worker 1 only round 0 at t=10.
  std::vector<std::vector<SimTime>> finish = {{1.0, 2.0, 3.0}, {10.0}};
  const ConsistencyTracker ssp = Replay(ConsistencyKind::kSsp, 2, finish);
  // With staleness 2, worker 0 starting round 3 waits for everyone's
  // round 0 only: max(own 3.0, other 10.0) = 10.
  EXPECT_DOUBLE_EQ(ssp.StartTime(0, 3), 10.0);
  // Starting round 2 needs everyone's round -1: no constraint.
  EXPECT_DOUBLE_EQ(ssp.StartTime(0, 2), 2.0);
}

TEST(ConsistencyTest, SspZeroStalenessEqualsBsp) {
  std::vector<std::vector<SimTime>> finish = {{1.0, 4.0}, {3.0, 6.0}};
  const ConsistencyTracker ssp = Replay(ConsistencyKind::kSsp, 0, finish);
  const ConsistencyTracker bsp = Replay(ConsistencyKind::kBsp, 0, finish);
  for (int round = 0; round < 3; ++round) {
    EXPECT_DOUBLE_EQ(ssp.StartTime(0, round), bsp.StartTime(0, round));
  }
}

TEST(ConsistencyTest, GateWaitsForSlowestActiveWorker) {
  ConsistencyTracker bsp(ConsistencyKind::kBsp, 0, 3);
  EXPECT_FALSE(bsp.Blocked(0));
  bsp.FinishRound(0, 1.0);
  bsp.FinishRound(1, 2.0);
  EXPECT_TRUE(bsp.Blocked(1));  // worker 2 still owes round 0
  EXPECT_EQ(bsp.frontier(), 0);
  bsp.SetActive(2, false);      // ... until it leaves the fleet
  EXPECT_FALSE(bsp.Blocked(1));
  EXPECT_EQ(bsp.frontier(), 1);
  EXPECT_EQ(bsp.leader(), 1);

  ConsistencyTracker ssp(ConsistencyKind::kSsp, 1, 2);
  ssp.FinishRound(0, 1.0);
  EXPECT_FALSE(ssp.Blocked(1));  // one round of lead is allowed
  ssp.FinishRound(0, 2.0);
  EXPECT_TRUE(ssp.Blocked(2));
  EXPECT_FALSE(
      ConsistencyTracker(ConsistencyKind::kAsp, 0, 2).Blocked(100));
}

TEST(ConsistencyTest, ExpectedPushesFollowMembership) {
  ConsistencyTracker tracker(ConsistencyKind::kSsp, 1, 3);
  EXPECT_EQ(tracker.ExpectedPushes(0), 3u);
  tracker.FinishRound(0, 1.0);  // worker 0 pushes rounds 0 and 1,
  tracker.FinishRound(0, 2.0);
  tracker.SetActive(0, false);  // then leaves
  EXPECT_EQ(tracker.ExpectedPushes(1), 3u);  // its push still counts
  EXPECT_EQ(tracker.ExpectedPushes(2), 2u);  // nothing further owed
  tracker.SetActive(0, true);   // rejoins at the frontier round 2
  EXPECT_EQ(tracker.MaxActiveRoundExcept(0), 0);
  tracker.Admit(0, 2);
  EXPECT_EQ(tracker.ExpectedPushes(1), 3u);
  EXPECT_EQ(tracker.ExpectedPushes(2), 3u);
  EXPECT_EQ(tracker.join_round(0), 2);
}

// A rejoiner whose pre-departure push belongs to a round that is still
// open: that round must wait for the remaining pushers. Counting the
// rejoiner out completed it early, and the next push into the already
// released averaging stage aborted the run.
TEST(ConsistencyTest, RejoinDuringOpenRoundTrainsToTheEnd) {
  const Dataset data = GenerateSynthetic(UrlSpec(5e-4));
  ClusterConfig cluster = ClusterConfig::Cluster2(24);
  cluster.churn.heartbeat_interval_sec = 0.03;
  cluster.churn.suspicion_timeout_sec = 0.06;
  cluster.churn.leaves = {{1, 0.1}, {2, 0.3}};
  cluster.churn.rejoins = {{1, 0.5}};
  cluster.churn.server_leaves = {{0, 0.2}};
  cluster.faults.worker_crashes = {{1, 0.2}};
  cluster.faults.server_crashes = {{0, 0.3}};
  cluster.faults.executor_restart_seconds = 0.1;
  cluster.faults.server_restart_seconds = 0.1;
  cluster.faults.message_drops = {{0.2, 0.1, 0.4}};

  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.3;
  config.max_comm_steps = 10;
  config.eval_every = 2;
  config.seed = 227;
  config.ps.num_shards = 4;
  config.ps.consistency = ConsistencyKind::kSsp;
  config.ps.staleness = 1;

  const TrainResult result =
      MakeTrainer(SystemKind::kPetuumStar, config)->Train(data, cluster);
  EXPECT_EQ(result.comm_steps, 10);
  EXPECT_EQ(result.membership.rejoins, 1u);
  EXPECT_FALSE(result.diverged);
}

// --------------------------------------------------------- golden pins
//
// The PS event loop's output pinned against constants: FNV-1a over the
// final weights' bit patterns and over the TraceLog CSV bytes. The
// hostpar/fault/membership suites compare two runs of the same code,
// which cannot catch a change that shifts both runs alike; these rows
// catch any drift in pop order, parked-retry order, barrier times or
// round completion. A constant only changes with a documented change
// of the simulated semantics.

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvBytes(const std::string& bytes) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t WeightsFnv(const DenseVector& w) {
  std::string bytes(w.dim() * sizeof(double), '\0');
  for (size_t i = 0; i < w.dim(); ++i) {
    const double v = w[i];
    std::memcpy(&bytes[i * sizeof(double)], &v, sizeof(double));
  }
  return FnvBytes(bytes);
}

uint64_t TraceCsvFnv(const TraceLog& trace, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "ps_golden_" + tag + ".csv";
  EXPECT_TRUE(trace.WriteCsv(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return FnvBytes(bytes);
}

enum class GoldenScenario { kPlain, kChurn, kCrash };

struct GoldenRow {
  const char* name;
  SystemKind system;
  ConsistencyKind consistency;
  int staleness;
  GoldenScenario scenario;
  uint64_t weights_fnv;
  uint64_t trace_fnv;
};

class PsGoldenTest : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(PsGoldenTest, WeightsAndTraceMatchPinnedChecksums) {
  const GoldenRow& row = GetParam();
  static const Dataset data = GenerateSynthetic(UrlSpec(1e-3));

  ClusterConfig cluster = ClusterConfig::Cluster2(64);
  switch (row.scenario) {
    case GoldenScenario::kPlain:
      break;
    case GoldenScenario::kChurn:
      // Leaves and a rejoin inside the run, plus one shard departure.
      cluster.churn.heartbeat_interval_sec = 0.05;
      cluster.churn.suspicion_timeout_sec = 0.1;
      cluster.churn.leaves = {{3, 0.5}, {17, 1.1}};
      cluster.churn.rejoins = {{3, 1.8}};
      cluster.churn.server_leaves = {{1, 0.9}};
      break;
    case GoldenScenario::kCrash:
      cluster.faults.worker_crashes = {{5, 0.4}, {40, 1.0}};
      cluster.faults.server_crashes = {{0, 0.7}};
      cluster.faults.executor_restart_seconds = 0.2;
      cluster.faults.server_restart_seconds = 0.2;
      break;
  }

  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 1.0;
  config.max_comm_steps = 8;
  config.seed = 23;
  config.ps.num_shards = 8;
  config.ps.consistency = row.consistency;
  config.ps.staleness = row.staleness;

  const TrainResult result =
      MakeTrainer(row.system, config)->Train(data, cluster);
  const uint64_t weights_fnv = WeightsFnv(result.final_weights);
  const uint64_t trace_fnv = TraceCsvFnv(result.trace, row.name);
  EXPECT_EQ(weights_fnv, row.weights_fnv) << std::hex << "0x" << weights_fnv;
  EXPECT_EQ(trace_fnv, row.trace_fnv) << std::hex << "0x" << trace_fnv;
}

constexpr GoldenRow kGoldenRows[] = {
    {"petuum_bsp", SystemKind::kPetuum, ConsistencyKind::kBsp, 0,
     GoldenScenario::kPlain,
     0x0344bb6e85e239c7ULL, 0x0c86db627204a71fULL},
    {"petuum_ssp2", SystemKind::kPetuum, ConsistencyKind::kSsp, 2,
     GoldenScenario::kPlain,
     0x52c42aa72907ebceULL, 0xbd04b84d1ac52bd0ULL},
    {"petuum_asp", SystemKind::kPetuum, ConsistencyKind::kAsp, 0,
     GoldenScenario::kPlain,
     0xa2f79d5e4c7d5103ULL, 0x217c0c7479b31245ULL},
    {"petuumstar_bsp", SystemKind::kPetuumStar, ConsistencyKind::kBsp, 0,
     GoldenScenario::kPlain,
     0xcc6b781fb7022aefULL, 0x31a366396a0d45f9ULL},
    {"petuumstar_ssp2", SystemKind::kPetuumStar, ConsistencyKind::kSsp, 2,
     GoldenScenario::kPlain,
     0xec0ab78c502b76dfULL, 0xbaef57c25d1e49f4ULL},
    {"petuumstar_asp", SystemKind::kPetuumStar, ConsistencyKind::kAsp, 0,
     GoldenScenario::kPlain,
     0x9d57cb67554dda5cULL, 0x0119874d4d148e1dULL},
    {"angel_bsp", SystemKind::kAngel, ConsistencyKind::kBsp, 0,
     GoldenScenario::kPlain,
     0x2ef7cb99d9dc4878ULL, 0xbab7a771bea2998fULL},
    {"angel_ssp2", SystemKind::kAngel, ConsistencyKind::kSsp, 2,
     GoldenScenario::kPlain,
     0xcbe3e6f49a0c3be4ULL, 0x9ca4babe05d587edULL},
    {"angel_asp", SystemKind::kAngel, ConsistencyKind::kAsp, 0,
     GoldenScenario::kPlain,
     0x84a8b390ace68577ULL, 0xbeec236ecb338d8aULL},
    {"petuumstar_bsp_churn", SystemKind::kPetuumStar, ConsistencyKind::kBsp,
     0, GoldenScenario::kChurn,
     0x8c0cb500b1acc472ULL, 0x3e96870a4211bc93ULL},
    {"petuum_ssp2_crash", SystemKind::kPetuum, ConsistencyKind::kSsp, 2,
     GoldenScenario::kCrash,
     0xb4f1aa573cd5ff0dULL, 0x30029c24a9e34ccaULL},
};

INSTANTIATE_TEST_SUITE_P(
    Pinned, PsGoldenTest, ::testing::ValuesIn(kGoldenRows),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mllibstar
