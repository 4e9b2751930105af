#ifndef MLLIBSTAR_ENGINE_RDD_H_
#define MLLIBSTAR_ENGINE_RDD_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/spark_cluster.h"

namespace mllibstar {

/// A resilient-distributed-dataset-style typed collection over the
/// simulated SparkCluster: one partition per executor, lazy
/// transformations (Map/Filter/MapPartitions), eager actions (Count,
/// Reduce, Collect, TreeAggregate) that run a BSP stage and charge
/// simulated time for the per-item work and the bytes moved.
///
/// This is the substrate the paper's implementation "piggybacks" on;
/// examples/rdd_mgd.cpp shows MLlib's SendGradient loop written
/// directly against it. Elements live host-side; the cluster accounts
/// for when the work would have happened.
template <typename T>
class Rdd {
 public:
  /// Materializes partition `p`, returning the items and the work
  /// units the computation would have cost on an executor.
  using PartitionFn = std::function<std::pair<std::vector<T>, uint64_t>()>;

  /// Distributes `items` round-robin over the cluster's executors.
  /// `bytes_per_item` models the initial load (charged as one
  /// broadcast-free parallel read; pass 0 for already-resident data).
  static Rdd<T> Parallelize(SparkCluster* cluster, std::vector<T> items) {
    MLLIBSTAR_CHECK(cluster != nullptr);
    const size_t k = cluster->num_workers();
    auto partitions = std::make_shared<std::vector<std::vector<T>>>(k);
    for (size_t i = 0; i < items.size(); ++i) {
      (*partitions)[i % k].push_back(std::move(items[i]));
    }
    Rdd<T> rdd(cluster);
    for (size_t p = 0; p < k; ++p) {
      rdd.compute_.push_back([partitions, p] {
        return std::make_pair((*partitions)[p], uint64_t{0});
      });
    }
    return rdd;
  }

  size_t num_partitions() const { return compute_.size(); }
  SparkCluster* cluster() const { return cluster_; }

  /// Lazy element-wise transform; `work_per_item` is charged when an
  /// action materializes the partition.
  template <typename U>
  Rdd<U> Map(std::function<U(const T&)> fn,
             uint64_t work_per_item = 1) const {
    Rdd<U> out(cluster_);
    for (const PartitionFn& parent : compute_) {
      out.compute_.push_back([parent, fn, work_per_item] {
        auto [items, work] = parent();
        std::vector<U> mapped;
        mapped.reserve(items.size());
        for (const T& item : items) mapped.push_back(fn(item));
        return std::make_pair(std::move(mapped),
                              work + work_per_item * items.size());
      });
    }
    return out;
  }

  /// Lazy filter.
  Rdd<T> Filter(std::function<bool(const T&)> pred,
                uint64_t work_per_item = 1) const {
    Rdd<T> out(cluster_);
    for (const PartitionFn& parent : compute_) {
      out.compute_.push_back([parent, pred, work_per_item] {
        auto [items, work] = parent();
        std::vector<T> kept;
        for (T& item : items) {
          if (pred(item)) kept.push_back(std::move(item));
        }
        return std::make_pair(std::move(kept),
                              work + work_per_item * items.size());
      });
    }
    return out;
  }

  /// Lazy whole-partition transform; `fn` returns the new items plus
  /// the work units it cost (for data-dependent costs like gradient
  /// computation, where work ∝ nnz).
  template <typename U>
  Rdd<U> MapPartitions(
      std::function<std::pair<std::vector<U>, uint64_t>(
          const std::vector<T>&)>
          fn) const {
    Rdd<U> out(cluster_);
    for (const PartitionFn& parent : compute_) {
      out.compute_.push_back([parent, fn] {
        auto [items, work] = parent();
        auto [mapped, extra] = fn(items);
        return std::make_pair(std::move(mapped), work + extra);
      });
    }
    return out;
  }

  /// Action: materializes every partition once and memoizes it, so
  /// later actions charge no recompute (Spark's cache()).
  Rdd<T>& Cache() {
    auto cached = std::make_shared<std::vector<std::vector<T>>>(
        compute_.size());
    RunStage("cache", [&](size_t p, std::vector<T> items) {
      (*cached)[p] = std::move(items);
    });
    for (size_t p = 0; p < compute_.size(); ++p) {
      compute_[p] = [cached, p] {
        return std::make_pair((*cached)[p], uint64_t{0});
      };
    }
    return *this;
  }

  /// Action: number of elements. Executors count locally; counts flow
  /// to the driver through treeAggregate (8 bytes each).
  size_t Count() const {
    size_t total = 0;
    RunStage("count",
             [&](size_t, std::vector<T> items) { total += items.size(); });
    cluster_->TreeAggregate(/*bytes=*/8, DefaultAggregators(), /*merge=*/1,
                            "count-agg");
    cluster_->Barrier();
    return total;
  }

  /// Action: folds all elements with a commutative, associative `op`
  /// into `identity`. Per-partition partials (of `partial_bytes` on
  /// the wire) combine at the driver through treeAggregate, matching
  /// how MLlib aggregates gradients.
  T TreeAggregate(T identity, std::function<T(T, const T&)> op,
                  uint64_t partial_bytes,
                  uint64_t merge_work_units = 1) const {
    std::vector<T> partials;
    RunStage("aggregate", [&](size_t, std::vector<T> items) {
      T partial = identity;
      for (const T& item : items) partial = op(std::move(partial), item);
      partials.push_back(std::move(partial));
    });
    cluster_->TreeAggregate(partial_bytes, DefaultAggregators(),
                            merge_work_units, "tree-agg");
    T result = identity;
    for (const T& partial : partials) result = op(std::move(result), partial);
    cluster_->Barrier();
    return result;
  }

  /// Action: every element shipped to the driver (`bytes_per_item` on
  /// the wire each), in partition order.
  std::vector<T> Collect(uint64_t bytes_per_item) const {
    std::vector<std::vector<T>> per_partition(compute_.size());
    uint64_t total_items = 0;
    RunStage("collect", [&](size_t p, std::vector<T> items) {
      total_items += items.size();
      per_partition[p] = std::move(items);
    });
    cluster_->TreeAggregate(bytes_per_item * std::max<uint64_t>(
                                                 1, total_items /
                                                        compute_.size()),
                            DefaultAggregators(), 0, "collect");
    std::vector<T> all;
    all.reserve(total_items);
    for (std::vector<T>& part : per_partition) {
      for (T& item : part) all.push_back(std::move(item));
    }
    cluster_->Barrier();
    return all;
  }

 private:
  template <typename U>
  friend class Rdd;

  explicit Rdd(SparkCluster* cluster) : cluster_(cluster) {}

  size_t DefaultAggregators() const {
    return DefaultTreeAggregators(cluster_->num_workers());
  }

  /// Runs one BSP stage: each executor materializes its partition
  /// (charging its work units) and hands the items to `consume`.
  void RunStage(const std::string& label,
                const std::function<void(size_t, std::vector<T>)>& consume)
      const {
    cluster_->BeginStage(label);
    cluster_->RunOnWorkers(label, [&](size_t p) -> uint64_t {
      auto [items, work] = compute_[p]();
      consume(p, std::move(items));
      return work;
    });
  }

  SparkCluster* cluster_;
  std::vector<PartitionFn> compute_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_ENGINE_RDD_H_
