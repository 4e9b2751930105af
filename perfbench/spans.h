// Benchmark-side span recorder. The benchmark wraps every call into a
// layer (GridSearch, Train, PartitionCsr, a kernel, ...) in a Span; in
// a traced run each span lands in memory with its name, start, end and
// parent, and the whole log is written out once the run ends. Untraced
// runs construct the same Span objects, which then record nothing.
#ifndef MLLIBSTAR_PERFBENCH_SPANS_H_
#define MLLIBSTAR_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  ///< id of the enclosing span, -1 at top level
  double start_us = 0.0;  ///< host µs since the log was created
  double end_us = 0.0;
};

/// Single-threaded span log: the benchmark calls layers from one
/// thread, so the open-span stack needs no locking.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Open(const std::string& name);
  void Close(int64_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes the log as a JSON array of span objects.
  mllibstar::Status WriteJson(const std::string& path) const;

 private:
  double NowUs() const;  ///< host µs since the log was created

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;  ///< stack of open span ids
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanLog* log, const std::string& name)
      : log_(log), id_(log->Open(name)) {}
  ~Span() { log_->Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // MLLIBSTAR_PERFBENCH_SPANS_H_
