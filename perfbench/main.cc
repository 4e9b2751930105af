// Repository benchmark: the program perfbench/run.py builds and runs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --objective-ceiling <x> --out-dir <dir>
//
// --trace 0 repeats the workload until --seconds have passed. One
// repetition sets up and runs the timed phase (every GridSearch and
// Train call) on each of the workload's DatasetsPerRepetition()
// datasets in turn. It reports the end-to-end metrics: medians over
// repetitions (wall) or set-ups (setup_s) for host timings, and the
// means over the datasets of the deterministic simulated outcome.
// --trace 1 uses the first dataset only. It runs the timed phase once
// untraced and once with the library's Telemetry and EngineProfiler
// recorders on plus benchmark spans around every layer call, runs the
// bit-identity checks, times each layer at the workload's shapes, and
// reports the per-layer metrics; the spans are written to --out-dir
// when the run ends.
//
// Every line before the last is human-readable ("name value unit");
// the last line is one JSON object with `correct`, `attempted`,
// `failed` and `metrics`. The exit code is 0 whenever that line was
// printed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/simd/dispatch.h"
#include "layers.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double objective_ceiling = 0.0;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "objective-ceiling",
        "out-dir"}) {
    if (kv.count(required) == 0) return false;
  }
  char* end = nullptr;
  args->workload = kv["workload"];
  args->seed = std::strtoull(kv["seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->seconds = std::strtod(kv["seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds > 0)) return false;
  if (kv["trace"] != "0" && kv["trace"] != "1") return false;
  args->trace = kv["trace"] == "1";
  args->objective_ceiling = std::strtod(kv["objective-ceiling"].c_str(), &end);
  if (*end != '\0') return false;
  args->out_dir = kv["out-dir"];
  return true;
}

// Tallies checks into the result line's attempted/failed counts and
// prints every failure.
struct Tally {
  int attempted = 0;
  int failed = 0;

  void Add(const Check& c) {
    ++attempted;
    if (!c.passed) {
      ++failed;
      std::printf("CHECK FAILED %s %s\n", c.name.c_str(), c.detail.c_str());
    }
  }
  void Add(const std::vector<Check>& checks) {
    for (const Check& c : checks) Add(c);
  }
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  using mllibstar::JsonValue;
  std::printf("checks: %d attempted, %d failed, failed_frac %.4f\n",
              tally.attempted, tally.failed,
              tally.attempted > 0
                  ? static_cast<double>(tally.failed) / tally.attempted
                  : 0.0);
  JsonValue values = JsonValue::Object();
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::Str(m.unit));
    values.Set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(tally.failed == 0));
  result.Set("attempted", JsonValue::Number(static_cast<int64_t>(tally.attempted)));
  result.Set("failed", JsonValue::Number(static_cast<int64_t>(tally.failed)));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
}

// The simulated outcome must not depend on which repetition (or which
// recorder setting) produced it.
Check SameOutcome(const std::string& name, const Outcome& a,
                  const Outcome& b) {
  const bool same = a.checksum == b.checksum && a.sim_s == b.sim_s &&
                    a.wire_bytes == b.wire_bytes &&
                    a.objective == b.objective &&
                    a.sim_s_to_target == b.sim_s_to_target;
  char detail[96];
  std::snprintf(detail, sizeof(detail), "checksum %016" PRIx64 " vs %016" PRIx64,
                a.checksum, b.checksum);
  return {name, same, detail};
}

// One line per final run of the first repetition, so a seed-0 run can
// be compared with what the bench/ harnesses print.
void PrintRuns(size_t dataset, const Outcome& o) {
  for (const RunRecord& r : o.runs) {
    std::printf("  dataset %zu %-22s best-obj %.4f sim %.1f s steps %d "
                "wall %.3f s\n",
                dataset, r.label.c_str(), r.best_objective, r.sim_seconds,
                r.comm_steps, r.wall_s);
  }
  for (const Check& c : o.shape) {
    std::printf("  dataset %zu %s %s (%s)\n", dataset, c.name.c_str(),
                c.passed ? "holds" : "DOES NOT HOLD", c.detail.c_str());
  }
}

int RunEndToEnd(const Args& args, WorkloadId id, const RunOptions& options) {
  const size_t datasets = DatasetsPerRepetition(id);
  SpanLog off(false);
  Tally tally;
  std::vector<double> setup_s, wall, steps_per_s;
  std::vector<Outcome> first;  // repetition 0, one per dataset
  std::map<std::string, int> shape_held;
  const Clock::time_point start = Clock::now();
  for (size_t rep = 0;; ++rep) {
    const Clock::time_point rep_start = Clock::now();
    double rep_wall = 0.0;
    int rep_steps = 0;
    for (size_t j = 0; j < datasets; ++j) {
      const Inputs in = Setup(id, args.seed, j);
      setup_s.push_back(in.generate_s + in.partition_s);
      Outcome o = RunWorkload(in, options, &off);
      RemoveScratchFiles(in, options);
      tally.Add(o.checks);
      rep_wall += o.wall_s;
      rep_steps += o.comm_steps;
      if (rep == 0) {
        PrintRuns(j, o);
        for (const Check& c : o.shape) shape_held[c.name] += c.passed;
        first.push_back(std::move(o));
      } else {
        tally.Add(SameOutcome("repeatable:rep" + std::to_string(rep) +
                                  ":dataset" + std::to_string(j),
                              first[j], o));
      }
    }
    wall.push_back(rep_wall);
    steps_per_s.push_back(rep_steps / rep_wall);
    std::printf("repetition %zu: wall %.4f s, %d comm steps\n", rep, rep_wall,
                rep_steps);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double rep_s =
        std::chrono::duration<double>(Clock::now() - rep_start).count();
    if (elapsed + rep_s > args.seconds) break;
  }
  for (const auto& [name, held] : shape_held) {
    std::printf("%s held on %d of %zu datasets (reported, not counted)\n",
                name.c_str(), held, datasets);
  }

  double sim_s = 0.0, wire_bytes = 0.0, objective = 0.0, to_target = 0.0;
  for (const Outcome& o : first) {
    sim_s += o.sim_s / datasets;
    wire_bytes += static_cast<double>(o.wire_bytes) / datasets;
    objective += o.objective / datasets;
    to_target += o.sim_s_to_target / datasets;
  }
  std::printf("workload %s seed %" PRIu64 ": %zu repetitions x %zu datasets, "
              "%zu set-ups, simd %s; wall_s is per repetition, simulated "
              "metrics are means over the datasets\n",
              args.workload.c_str(), args.seed, wall.size(), datasets,
              setup_s.size(),
              mllibstar::simd::SimdLevelName(mllibstar::simd::ActiveSimdLevel()));
  const std::vector<Metric> metrics = {
      {"wall_s", Median(wall), "s"},
      {"setup_s", Median(setup_s), "s"},
      {"steps_per_s", Median(steps_per_s), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_s", sim_s, "sim_s"},
      {"wire_bytes", wire_bytes, "B"},
      {"objective", objective, "loss"},
      {"sim_s_to_target", to_target, "sim_s"},
  };
  PrintResult(tally, metrics);
  return 0;
}

int RunTraced(const Args& args, WorkloadId id, const RunOptions& options) {
  const Inputs in = Setup(id, args.seed, 0);
  SpanLog log(true);
  Tally tally;

  Outcome untraced;
  {
    SpanLog off(false);
    untraced = RunWorkload(in, options, &off);
  }
  tally.Add(untraced.checks);

  mllibstar::Telemetry& telemetry = mllibstar::Telemetry::Get();
  mllibstar::EngineProfiler& profiler = mllibstar::EngineProfiler::Get();
  telemetry.Clear();
  profiler.Reset();
  telemetry.set_enabled(true);
  profiler.set_enabled(true);
  Outcome traced;
  {
    Span span(&log, "traced_repetition");
    traced = RunWorkload(in, options, &log);
  }
  telemetry.set_enabled(false);
  profiler.set_enabled(false);
  const std::vector<mllibstar::SubsystemStats> subsystems =
      profiler.Snapshot();
  tally.Add(traced.checks);
  tally.Add(SameOutcome("bit_identity:traced_vs_untraced", untraced, traced));
  {
    Span span(&log, "verify");
    tally.Add(VerifyChecks(in, options, untraced, &log));
  }

  std::vector<Metric> metrics;
  double eval_and_partition_us = 0.0;
  {
    Span span(&log, "layers");
    eval_and_partition_us =
        MeasureLayers(in, options, untraced, &log, &metrics);
  }
  RemoveScratchFiles(in, options);
  const double traced_us = traced.wall_s * 1e6;
  metrics.push_back({"obs.trace_overhead_frac",
                     (traced.wall_s - untraced.wall_s) / untraced.wall_s,
                     "frac"});
  double profiled_us = 0.0;
  for (const mllibstar::SubsystemStats& s : subsystems) {
    profiled_us += static_cast<double>(s.host_us);
    metrics.push_back({"obs.profiler." + s.name + "_share",
                       static_cast<double>(s.host_us) / traced_us, "frac"});
  }
  metrics.push_back(
      {"obs.attributed_frac",
       (profiled_us + eval_and_partition_us) / traced_us,
       "frac"});

  const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed);
  const mllibstar::Status spans_written = log.WriteJson(stem + ".spans.json");
  const mllibstar::Status telemetry_written =
      telemetry.WriteJsonl(stem + ".telemetry.jsonl");
  telemetry.Clear();
  tally.Add(Check{"spans_written", spans_written.ok() && telemetry_written.ok(),
                  spans_written.ToString() + " " +
                      telemetry_written.ToString()});

  std::printf("workload %s seed %" PRIu64 ": traced run, %zu spans, simd %s\n",
              args.workload.c_str(), args.seed, log.spans().size(),
              mllibstar::simd::SimdLevelName(mllibstar::simd::ActiveSimdLevel()));
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --objective-ceiling <x> --out-dir <dir>\n");
    return 2;
  }
  const std::optional<WorkloadId> id = ParseWorkload(args.workload);
  if (!id) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 2;
  }
  RunOptions options;
  options.tmp_dir = args.out_dir;
  options.objective_ceiling = args.objective_ceiling;
  return args.trace ? RunTraced(args, *id, options)
                    : RunEndToEnd(args, *id, options);
}
