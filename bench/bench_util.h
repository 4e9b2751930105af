#ifndef MLLIBSTAR_BENCH_BENCH_UTIL_H_
#define MLLIBSTAR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/convergence.h"
#include "obs/chrome_trace.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "train/report.h"

namespace mllibstar {
namespace bench {

/// Directory all figure harnesses write their CSV series into.
inline std::string ResultsDir() {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  return "results";
}

/// Writes the curves for one subfigure and logs where they went.
inline void SaveCurves(const std::string& stem,
                       const std::vector<ConvergenceCurve>& curves) {
  const std::string path = ResultsDir() + "/" + stem + ".csv";
  const Status st = WriteCurvesCsv(path, curves);
  if (st.ok()) {
    std::printf("  [series written to %s]\n", path.c_str());
  } else {
    std::printf("  [could not write %s: %s]\n", path.c_str(),
                st.ToString().c_str());
  }
}

/// Writes a machine-readable bench report (the BENCH_*.json family)
/// into results/ and logs where it went. Returns the full path, or ""
/// on failure.
inline std::string WriteBenchJson(const std::string& filename,
                                  const JsonValue& doc) {
  const std::string path = ResultsDir() + "/" + filename;
  std::ofstream out(path);
  if (!out) {
    std::printf("  [could not write %s]\n", path.c_str());
    return "";
  }
  out << doc.Dump(2) << "\n";
  out.close();
  std::printf("  [bench report written to %s]\n", path.c_str());
  return path;
}

/// Filesystem-safe file stem: SystemName() uses '*' and '+'.
inline std::string SanitizeStem(std::string stem) {
  for (char& c : stem) {
    if (c == '*') c = 's';
    if (c == '+') c = 'p';
  }
  return stem;
}

/// Writes the telemetry artifacts for one finished run: a
/// Perfetto-loadable Chrome trace (results/<stem>.trace.json) when
/// `chrome_trace` is set and a unified RunReport
/// (results/<stem>.report.json) when `run_report` is set. Callers
/// that want host-side spans in the trace and metric series in the
/// report must enable Telemetry::Get() before training and Clear()
/// it between runs.
inline void ExportRunArtifacts(const TrainResult& result,
                               const std::string& stem, bool chrome_trace,
                               bool run_report) {
  const std::string safe = SanitizeStem(stem);
  Telemetry& obs = Telemetry::Get();
  if (chrome_trace) {
    const std::string path = ResultsDir() + "/" + safe + ".trace.json";
    const Status st = WriteChromeTrace(path, result.trace,
                                       obs.enabled() ? &obs : nullptr);
    if (st.ok()) {
      std::printf("  [chrome trace written to %s]\n", path.c_str());
    } else {
      std::printf("  [could not write %s: %s]\n", path.c_str(),
                  st.ToString().c_str());
    }
  }
  if (run_report) {
    const std::string path = ResultsDir() + "/" + safe + ".report.json";
    const Status st = WriteRunReport(result, path);
    if (st.ok()) {
      std::printf("  [run report written to %s]\n", path.c_str());
    } else {
      std::printf("  [could not write %s: %s]\n", path.c_str(),
                  st.ToString().c_str());
    }
  }
}

/// Telemetry-only variant of ExportRunArtifacts for harnesses whose
/// results carry no TrainResult (online_bench's OnlineResult,
/// path_bench's PathResult): the chrome trace holds the telemetry
/// spans only (no virtual-time activity rows) and the run report holds
/// the metrics/series/rounds/profiler sections plus the headline
/// numbers passed in.
inline void ExportTelemetryArtifacts(const std::string& system,
                                     double sim_seconds, uint64_t total_bytes,
                                     const std::string& stem,
                                     bool chrome_trace, bool run_report) {
  const std::string safe = SanitizeStem(stem);
  Telemetry& obs = Telemetry::Get();
  if (chrome_trace) {
    const std::string path = ResultsDir() + "/" + safe + ".trace.json";
    const TraceLog empty;
    const Status st =
        WriteChromeTrace(path, empty, obs.enabled() ? &obs : nullptr);
    if (st.ok()) {
      std::printf("  [chrome trace written to %s]\n", path.c_str());
    } else {
      std::printf("  [could not write %s: %s]\n", path.c_str(),
                  st.ToString().c_str());
    }
  }
  if (run_report) {
    const std::string path = ResultsDir() + "/" + safe + ".report.json";
    RunInfo info;
    info.system = system;
    info.sim_seconds = sim_seconds;
    info.total_bytes = total_bytes;
    const Status st =
        WriteRunReportJson(path, info, obs.enabled() ? &obs : nullptr);
    if (st.ok()) {
      std::printf("  [run report written to %s]\n", path.c_str());
    } else {
      std::printf("  [could not write %s: %s]\n", path.c_str(),
                  st.ToString().c_str());
    }
  }
}

/// Parses a comma-separated list of counts ("1,2,4").
inline std::vector<size_t> ParseSizeList(const std::string& text) {
  std::vector<size_t> values;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) values.push_back(std::stoul(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

/// Prints "label: 12.3x" or "label: n/a (baseline stuck)" speedup rows.
inline void PrintSpeedup(const char* label, std::optional<double> speedup) {
  if (speedup.has_value()) {
    std::printf("  %-34s %8.1fx\n", label, *speedup);
  } else {
    std::printf("  %-34s %8s\n", label, "n/a");
  }
}

}  // namespace bench
}  // namespace mllibstar

#endif  // MLLIBSTAR_BENCH_BENCH_UTIL_H_
