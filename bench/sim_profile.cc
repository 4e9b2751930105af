// Simulator self-profiling harness: how fast does the discrete-event
// engine itself run, and what does recording cost? Sweeps
// representative configs (mllib, mllib*, petuum) x host_threads {1, 8}
// and, for each combo, trains once with telemetry off (the checksum
// baseline) and once with full recording on (windowed series, round
// profiles, EngineProfiler).
//
// Gates (any violation exits 2):
//  - recording invisibility: the weights checksum with telemetry on
//    must equal the telemetry-off baseline, per combo;
//  - host-thread determinism: the checksum must match across
//    host_threads values for the same system;
//  - throughput: simulator events per wall second >= --min-events-per-sec;
//  - overhead: host microseconds per simulated second <=
//    --max-host-us-per-sim-sec;
//  - PS scaling: Petuum and Angel under BSP on Cluster 2 at each of
//    --ps-workers (default 128, 512, 2048); host microseconds per PS
//    event at the largest worker count must stay within 2x of the
//    smallest. A ratio within one run, so it holds on slow machines.
//
// Writes results/BENCH_sim_profile.json with the per-combo trajectory
// (events/sec, host-us-per-sim-second, subsystem attribution) so the
// numbers are tracked across commits.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "data/synthetic.h"
#include "obs/engine_profiler.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

/// FNV-1a over the exact bit patterns of the weights: any single-ulp
/// difference between runs changes the digest.
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

struct ProfileRow {
  std::string system;
  size_t host_threads = 0;
  double sim_seconds = 0.0;
  double wall_off_sec = 0.0;  ///< telemetry disabled
  double wall_on_sec = 0.0;   ///< full recording
  uint64_t events = 0;        ///< EngineProfiler event count (recording run)
  double events_per_sec = 0.0;
  double host_us_per_sim_sec = 0.0;
  uint64_t checksum = 0;      ///< telemetry-off baseline
  bool checksum_ok = true;    ///< recording on == recording off
  std::vector<SubsystemStats> subsystems;
};

double WallSeconds(std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Allowed growth of host-µs per PS event from the smallest to the
/// largest --ps-workers value (a linear event loop stays near 1x).
constexpr double kMaxPsGrowth = 2.0;
constexpr int kPsRepetitions = 3;

struct PsScalingRow {
  std::string system;
  size_t workers = 0;
  uint64_t events = 0;      ///< PS event-loop pops (pulls and pushes)
  double wall_sec = 0.0;    ///< median over recording-off repetitions
  double us_per_event = 0.0;
};

/// Host cost of one PS event: the median wall time of kPsRepetitions
/// recording-off runs over the event count of one profiled run.
PsScalingRow MeasurePsScaling(SystemKind kind, size_t workers,
                              const Dataset& data, int steps) {
  TrainerConfig config;
  config.loss = LossKind::kHinge;
  config.lr_schedule = LrScheduleKind::kConstant;
  // Petuum sums the k deltas; a 1/k step keeps the sum an average.
  config.base_lr =
      kind == SystemKind::kPetuum ? 0.3 / static_cast<double>(workers) : 0.3;
  config.max_comm_steps = steps;
  config.ps.num_shards = 4;
  config.ps.consistency = ConsistencyKind::kBsp;
  const ClusterConfig cluster = ClusterConfig::Cluster2(workers);

  PsScalingRow row;
  row.system = SystemName(kind);
  row.workers = workers;
  std::vector<double> walls;
  for (int rep = 0; rep < kPsRepetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)MakeTrainer(kind, config)->Train(data, cluster);
    walls.push_back(WallSeconds(t0, std::chrono::steady_clock::now()));
  }
  std::sort(walls.begin(), walls.end());
  row.wall_sec = walls[walls.size() / 2];

  EngineProfiler& profiler = EngineProfiler::Get();
  profiler.Reset();
  profiler.set_enabled(true);
  (void)MakeTrainer(kind, config)->Train(data, cluster);
  profiler.set_enabled(false);
  for (const SubsystemStats& sub : profiler.Snapshot()) {
    if (sub.name == SubsystemName(Subsystem::kPs)) row.events = sub.events;
  }
  row.us_per_event =
      row.events > 0 ? row.wall_sec * 1e6 / static_cast<double>(row.events)
                     : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Simulator self-profile: events/sec and host-us-per-sim-second for "
      "mllib, mllib* and petuum across host_threads, with recording "
      "on/off bit-identity gates, plus host-us per PS event across "
      "cluster sizes; writes results/BENCH_sim_profile.json.");
  flags.AddString("dataset", "url", "synthetic dataset spec name");
  flags.AddDouble("scale", 1e-3, "synthetic dataset scale factor");
  flags.AddInt64("steps", 8, "communication steps per run");
  flags.AddDouble("min-events-per-sec", 1000.0,
                  "throughput gate: simulator events per wall second");
  flags.AddDouble("max-host-us-per-sim-sec", 1e8,
                  "overhead gate: host microseconds per simulated second");
  flags.AddString("ps-workers", "128,512,2048",
                  "worker counts of the PS-scaling rows (Cluster 2, BSP)");
  flags.AddString("out", "BENCH_sim_profile.json",
                  "JSON report filename (written under results/)");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }

  const std::string dataset_name = flags.GetString("dataset");
  const Dataset data =
      GenerateSynthetic(SpecByName(dataset_name, flags.GetDouble("scale")));
  const int steps = static_cast<int>(flags.GetInt64("steps"));
  const double min_events_per_sec = flags.GetDouble("min-events-per-sec");
  const double max_host_us = flags.GetDouble("max-host-us-per-sim-sec");

  const SystemKind systems[] = {SystemKind::kMllib, SystemKind::kMllibStar,
                                SystemKind::kPetuum};
  const size_t thread_levels[] = {1, 8};

  std::printf("sim_profile: %s (%zu x %zu), %d steps\n", dataset_name.c_str(),
              data.size(), data.num_features(), steps);
  std::printf("%8s %8s %10s %10s %10s %12s %14s %6s\n", "system", "threads",
              "sim_sec", "wall_off", "wall_on", "events/sec", "host_us/sim_s",
              "ident");

  std::vector<ProfileRow> rows;
  bool identity_ok = true;
  bool thread_ok = true;
  bool throughput_ok = true;
  bool overhead_ok = true;
  for (SystemKind kind : systems) {
    uint64_t thread_reference = 0;
    bool have_reference = false;
    for (size_t threads : thread_levels) {
      TrainerConfig config;
      config.loss = LossKind::kLogistic;
      config.lr_schedule = LrScheduleKind::kInverseSqrt;
      config.base_lr = kind == SystemKind::kPetuum ? 0.04 : 0.3;
      config.max_comm_steps = steps;
      config.seed = 17;
      config.host_threads = threads;
      ClusterConfig cluster = ClusterConfig::Cluster1(8);
      cluster.straggler_sigma = 0.08;

      ProfileRow row;
      row.system = SystemName(kind);
      row.host_threads = threads;

      // Baseline: recording fully off.
      Telemetry::Get().Clear();
      Telemetry::Get().set_enabled(false);
      const auto off0 = std::chrono::steady_clock::now();
      const TrainResult off = MakeTrainer(kind, config)->Train(data, cluster);
      row.wall_off_sec = WallSeconds(off0, std::chrono::steady_clock::now());
      row.checksum = WeightsChecksum(off.final_weights);

      // Recording run: series, round profiles, profiler all live.
      Telemetry::Get().Clear();
      Telemetry::Get().set_enabled(true);
      const auto on0 = std::chrono::steady_clock::now();
      const TrainResult on = MakeTrainer(kind, config)->Train(data, cluster);
      row.wall_on_sec = WallSeconds(on0, std::chrono::steady_clock::now());
      row.sim_seconds = on.sim_seconds;
      row.events = EngineProfiler::Get().TotalEvents();
      row.subsystems = EngineProfiler::Get().Snapshot();
      Telemetry::Get().set_enabled(false);

      row.checksum_ok = WeightsChecksum(on.final_weights) == row.checksum;
      identity_ok = identity_ok && row.checksum_ok;
      if (!have_reference) {
        thread_reference = row.checksum;
        have_reference = true;
      } else {
        thread_ok = thread_ok && row.checksum == thread_reference;
      }

      row.events_per_sec =
          row.wall_on_sec > 0.0
              ? static_cast<double>(row.events) / row.wall_on_sec
              : 0.0;
      row.host_us_per_sim_sec =
          row.sim_seconds > 0.0 ? row.wall_on_sec * 1e6 / row.sim_seconds
                                : 0.0;
      throughput_ok = throughput_ok && row.events_per_sec >= min_events_per_sec;
      overhead_ok = overhead_ok && row.host_us_per_sim_sec <= max_host_us;

      std::printf("%8s %8zu %10.3f %10.3f %10.3f %12.0f %14.0f %6s\n",
                  row.system.c_str(), row.host_threads, row.sim_seconds,
                  row.wall_off_sec, row.wall_on_sec, row.events_per_sec,
                  row.host_us_per_sim_sec,
                  row.checksum_ok ? "yes" : "NO");
      rows.push_back(std::move(row));
    }
  }

  // PS scaling: Petuum and Angel at each --ps-workers count.
  std::vector<size_t> ps_workers =
      bench::ParseSizeList(flags.GetString("ps-workers"));
  std::sort(ps_workers.begin(), ps_workers.end());
  std::vector<PsScalingRow> ps_rows;
  JsonValue ps_growth = JsonValue::Object();
  bool ps_scaling_ok = true;
  std::printf("\nPS scaling (%s, Cluster 2, BSP, %d steps)\n",
              dataset_name.c_str(), steps);
  std::printf("%8s %8s %10s %10s %12s\n", "system", "workers", "events",
              "wall_sec", "us/event");
  for (SystemKind kind : {SystemKind::kPetuum, SystemKind::kAngel}) {
    const size_t first = ps_rows.size();
    for (size_t workers : ps_workers) {
      ps_rows.push_back(MeasurePsScaling(kind, workers, data, steps));
      const PsScalingRow& row = ps_rows.back();
      std::printf("%8s %8zu %10llu %10.4f %12.2f\n", row.system.c_str(),
                  row.workers, static_cast<unsigned long long>(row.events),
                  row.wall_sec, row.us_per_event);
    }
    if (ps_rows.size() - first < 2) continue;
    const double smallest = ps_rows[first].us_per_event;
    const double growth =
        smallest > 0.0 ? ps_rows.back().us_per_event / smallest : 0.0;
    const bool ok = growth > 0.0 && growth <= kMaxPsGrowth;
    ps_scaling_ok = ps_scaling_ok && ok;
    ps_growth.Set(SystemName(kind), JsonValue::Number(growth));
    std::printf("%8s us/event growth %zu -> %zu workers: %.2fx (%s)\n",
                SystemName(kind).c_str(), ps_rows[first].workers,
                ps_rows.back().workers, growth, ok ? "pass" : "FAIL");
  }

  std::printf("recording invisible (on == off): %s\n",
              identity_ok ? "yes" : "NO — recording perturbed the numerics");
  std::printf("host-thread determinism: %s\n",
              thread_ok ? "yes" : "NO — checksum moved with host_threads");
  std::printf("throughput gate (>= %.0f events/sec): %s\n", min_events_per_sec,
              throughput_ok ? "pass" : "FAIL");
  std::printf("overhead gate (<= %.0f host_us/sim_sec): %s\n", max_host_us,
              overhead_ok ? "pass" : "FAIL");
  std::printf("PS scaling gate (us/event growth <= %.1fx): %s\n",
              kMaxPsGrowth, ps_scaling_ok ? "pass" : "FAIL");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::Str("sim_profile"));
  doc.Set("dataset", JsonValue::Str(dataset_name));
  doc.Set("comm_steps", JsonValue::Number(static_cast<int64_t>(steps)));
  doc.Set("min_events_per_sec", JsonValue::Number(min_events_per_sec));
  doc.Set("max_host_us_per_sim_sec", JsonValue::Number(max_host_us));
  doc.Set("recording_invisible", JsonValue::Bool(identity_ok));
  doc.Set("host_thread_deterministic", JsonValue::Bool(thread_ok));
  doc.Set("throughput_ok", JsonValue::Bool(throughput_ok));
  doc.Set("overhead_ok", JsonValue::Bool(overhead_ok));
  JsonValue runs = JsonValue::Array();
  for (const ProfileRow& row : rows) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%#llx",
                  static_cast<unsigned long long>(row.checksum));
    JsonValue entry = JsonValue::Object();
    entry.Set("system", JsonValue::Str(row.system));
    entry.Set("host_threads",
              JsonValue::Number(static_cast<uint64_t>(row.host_threads)));
    entry.Set("sim_seconds", JsonValue::Number(row.sim_seconds));
    entry.Set("wall_off_sec", JsonValue::Number(row.wall_off_sec));
    entry.Set("wall_on_sec", JsonValue::Number(row.wall_on_sec));
    entry.Set("events", JsonValue::Number(row.events));
    entry.Set("events_per_sec", JsonValue::Number(row.events_per_sec));
    entry.Set("host_us_per_sim_sec",
              JsonValue::Number(row.host_us_per_sim_sec));
    entry.Set("weights_checksum", JsonValue::Str(checksum));
    entry.Set("checksum_ok", JsonValue::Bool(row.checksum_ok));
    JsonValue subsystems = JsonValue::Object();
    for (const SubsystemStats& s : row.subsystems) {
      JsonValue sub = JsonValue::Object();
      sub.Set("host_us", JsonValue::Number(s.host_us));
      sub.Set("events", JsonValue::Number(s.events));
      subsystems.Set(s.name, std::move(sub));
    }
    entry.Set("subsystems", std::move(subsystems));
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));
  JsonValue ps_scaling = JsonValue::Object();
  ps_scaling.Set("cluster", JsonValue::Str("Cluster2"));
  ps_scaling.Set("consistency", JsonValue::Str("bsp"));
  ps_scaling.Set("repetitions",
                 JsonValue::Number(static_cast<int64_t>(kPsRepetitions)));
  ps_scaling.Set("max_growth", JsonValue::Number(kMaxPsGrowth));
  ps_scaling.Set("growth", std::move(ps_growth));
  ps_scaling.Set("ok", JsonValue::Bool(ps_scaling_ok));
  JsonValue ps_entries = JsonValue::Array();
  for (const PsScalingRow& row : ps_rows) {
    JsonValue entry = JsonValue::Object();
    entry.Set("system", JsonValue::Str(row.system));
    entry.Set("workers", JsonValue::Number(static_cast<uint64_t>(row.workers)));
    entry.Set("events", JsonValue::Number(row.events));
    entry.Set("wall_sec", JsonValue::Number(row.wall_sec));
    entry.Set("us_per_event", JsonValue::Number(row.us_per_event));
    ps_entries.Append(std::move(entry));
  }
  ps_scaling.Set("rows", std::move(ps_entries));
  doc.Set("ps_scaling", std::move(ps_scaling));
  const std::string written =
      bench::WriteBenchJson(flags.GetString("out"), doc);
  if (written.empty()) return 1;
  return identity_ok && thread_ok && throughput_ok && overhead_ok &&
                 ps_scaling_ok
             ? 0
             : 2;
}
