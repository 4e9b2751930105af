// Checkpoint file layouts, pinned byte for byte. Each row trains a
// short run that writes one snapshot and checks the FNV-1a digest of
// the whole file (header, checksum and payload words). A layout
// refactor that reorders, drops or re-encodes a single word fails here
// even when resume still round-trips within one build.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ios>
#include <iterator>
#include <ostream>
#include <string>

#include "data/synthetic.h"
#include "train/trainer.h"
#include "workloads/path_search.h"

namespace mllibstar {
namespace {

uint64_t FileFnv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Dataset PinData() {
  SyntheticSpec spec;
  spec.name = "ckpin";
  spec.num_instances = 400;
  spec.num_features = 80;
  spec.avg_nnz = 10;
  spec.seed = 91;
  return GenerateSynthetic(spec);
}

TrainerConfig PinConfig() {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.3;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 4;
  config.seed = 17;
  return config;
}

enum class PinScenario { kPlain, kChurn, kInt8 };

struct CheckpointRow {
  const char* name;
  SystemKind system;
  PinScenario scenario;
  uint64_t file_fnv;
};

void PrintTo(const CheckpointRow& row, std::ostream* os) { *os << row.name; }

class CheckpointGoldenTest : public ::testing::TestWithParam<CheckpointRow> {
};

TEST_P(CheckpointGoldenTest, FileBytesMatchPinnedChecksum) {
  const CheckpointRow& row = GetParam();
  static const Dataset data = PinData();
  ClusterConfig cluster = ClusterConfig::Cluster1(4);
  cluster.straggler_sigma = 0.08;
  TrainerConfig config = PinConfig();
  switch (row.scenario) {
    case PinScenario::kPlain:
      break;
    case PinScenario::kChurn:
      // One leave and one join before the step-4 snapshot, a second
      // leave still under suspicion when it is taken.
      cluster = ClusterConfig::Cluster1(6);
      cluster.straggler_sigma = 0.08;
      cluster.churn.heartbeat_interval_sec = 0.01;
      cluster.churn.suspicion_timeout_sec = 0.02;
      cluster.churn.initial_active = 4;
      cluster.churn.leaves = {{0, 0.02}, {1, 0.05}, {2, 0.35}};
      cluster.churn.joins = {{4, 0.08}, {5, 0.10}};
      cluster.churn.rejoins = {{0, 0.14}};
      break;
    case PinScenario::kInt8:
      // Error-feedback residuals land in the snapshot.
      config.codec.kind = CodecKind::kInt8Linear;
      config.codec.quant_chunk = 16;
      config.codec.error_feedback = true;
      break;
  }
  const std::string path =
      testing::TempDir() + "/ckpin_" + std::string(row.name) + ".bin";
  std::remove(path.c_str());
  config.checkpoint.path = path;
  config.checkpoint.every_steps = 4;

  (void)MakeTrainer(row.system, config)->Train(data, cluster);
  ASSERT_TRUE(Checkpoint::Exists(path));
  const uint64_t fnv = FileFnv(path);
  EXPECT_EQ(fnv, row.file_fnv) << std::hex << "0x" << fnv;
  std::remove(path.c_str());
}

const CheckpointRow kCheckpointRows[] = {
    {"mllib", SystemKind::kMllib, PinScenario::kPlain, 0xe629f95b6c4377c6ULL},
    {"mllib_ma", SystemKind::kMllibMa, PinScenario::kPlain,
     0x2c37b1709a8eefebULL},
    {"mllib_star", SystemKind::kMllibStar, PinScenario::kPlain,
     0x3a680312b00534dcULL},
    {"petuum", SystemKind::kPetuum, PinScenario::kPlain, 0xa3800fe511fe76d4ULL},
    {"petuum_star", SystemKind::kPetuumStar, PinScenario::kPlain,
     0x5708a7ccaee336dcULL},
    {"angel", SystemKind::kAngel, PinScenario::kPlain, 0x5d02b1f18a23e891ULL},
    {"mllib_lbfgs", SystemKind::kMllibLbfgs, PinScenario::kPlain,
     0xedee444072a16752ULL},
    {"mllib_star_churn", SystemKind::kMllibStar, PinScenario::kChurn,
     0xb55d29f2db92fa2aULL},
    {"petuum_churn", SystemKind::kPetuum, PinScenario::kChurn,
     0x4a2945afc8efc2a9ULL},
    {"mllib_int8_ef", SystemKind::kMllib, PinScenario::kInt8,
     0xc8b46835a51f6ec4ULL},
    {"petuum_int8_ef", SystemKind::kPetuum, PinScenario::kInt8,
     0x43e074bccaba5436ULL},
    {"mllib_lbfgs_int8_ef", SystemKind::kMllibLbfgs, PinScenario::kInt8,
     0xd65ead5588459daeULL},
};

INSTANTIATE_TEST_SUITE_P(
    Pinned, CheckpointGoldenTest, ::testing::ValuesIn(kCheckpointRows),
    [](const ::testing::TestParamInfo<CheckpointRow>& info) {
      return std::string(info.param.name);
    });

TEST(CheckpointGoldenTest, PathDriverFileBytesMatchPinnedChecksum) {
  const Dataset data = PinData();
  PathConfig config;
  config.system = SystemKind::kMllibStar;
  config.trainer = PinConfig();
  config.n_lambdas = 3;
  config.num_folds = 2;  // per-fold warm models land in the snapshot
  config.path_patience = 100;
  config.max_solves = 1;
  const std::string path = testing::TempDir() + "/ckpin_path.bin";
  std::remove(path.c_str());
  config.checkpoint.path = path;
  config.checkpoint.every_steps = 1;

  const PathResult result =
      RunPath(data, ClusterConfig::Cluster1(4), config);
  ASSERT_EQ(result.solves.size(), 1u);
  ASSERT_TRUE(Checkpoint::Exists(path));

  // The solve's wall_seconds is host time, the one payload word that is
  // not reproducible: it sits right before the trailing weights vector
  // (length word + d values). Zero it, and the header checksum word
  // that covers it, before hashing.
  const size_t d = data.num_features();
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff wall_at =
      static_cast<std::streamoff>(f.tellg()) -
      static_cast<std::streamoff>((d + 2) * sizeof(uint64_t));
  const uint64_t zero = 0;
  for (const std::streamoff at :
       {static_cast<std::streamoff>(2 * sizeof(uint64_t)), wall_at}) {
    f.seekp(at);
    f.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  }
  f.close();

  const uint64_t fnv = FileFnv(path);
  EXPECT_EQ(fnv, 0x1265efd0be7f054fULL) << std::hex << "0x" << fnv;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mllibstar
