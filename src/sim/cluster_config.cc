#include "sim/cluster_config.h"

#include <cmath>
#include <string>

#include "common/strings.h"

namespace mllibstar {

Status ClusterConfig::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument(
        "ClusterConfig.num_workers must be >= 1, got " +
        std::to_string(num_workers));
  }
  if (!std::isfinite(bandwidth_bytes_per_sec) ||
      bandwidth_bytes_per_sec <= 0.0) {
    return Status::InvalidArgument(
        "ClusterConfig.bandwidth_bytes_per_sec must be finite and > 0, "
        "got " +
        FormatDouble(bandwidth_bytes_per_sec));
  }
  if (!std::isfinite(compute_speed) || compute_speed <= 0.0) {
    return Status::InvalidArgument(
        "ClusterConfig.compute_speed must be finite and > 0, got " +
        FormatDouble(compute_speed));
  }
  if (!std::isfinite(latency_sec) || latency_sec < 0.0) {
    return Status::InvalidArgument(
        "ClusterConfig.latency_sec must be finite and >= 0, got " +
        FormatDouble(latency_sec));
  }
  if (!(task_failure_prob >= 0.0 && task_failure_prob < 1.0)) {
    return Status::InvalidArgument(
        "ClusterConfig.task_failure_prob must be in [0, 1), got " +
        FormatDouble(task_failure_prob));
  }
  return Status::Ok();
}

// Calibration: the synthetic datasets shrink the paper's data by 1000x
// in both rows and features. Scaling link bandwidth and compute speed
// by the same factor keeps every transfer-time and compute-time ratio
// identical to the full-scale setup, so simulated seconds are directly
// comparable to the paper's reported seconds.

ClusterConfig ClusterConfig::Cluster1(size_t workers) {
  ClusterConfig config;
  config.num_workers = workers;
  config.num_servers = 0;
  config.latency_sec = 1e-3;
  // 1 Gbps = 125e6 B/s, scaled by 1e-3.
  config.bandwidth_bytes_per_sec = 125e3;
  // ~2e7 sparse coordinates/sec/node full-scale, scaled by 1e-3.
  config.compute_speed = 2e4;
  config.straggler_sigma = 0.05;
  config.seed = 7;
  return config;
}

ClusterConfig ClusterConfig::Cluster2(size_t workers) {
  ClusterConfig config;
  config.num_workers = workers;
  config.num_servers = 0;
  config.latency_sec = 5e-4;
  // 10 Gbps scaled by 1e-3.
  config.bandwidth_bytes_per_sec = 1250e3;
  config.compute_speed = 2e4;
  // "computational power of individual machines exhibits a high
  // variance" (paper Section V-C) — heavy per-task jitter.
  config.straggler_sigma = 0.35;
  config.seed = 11;
  return config;
}

}  // namespace mllibstar
