#ifndef MLLIBSTAR_PS_PARAMETER_SERVER_H_
#define MLLIBSTAR_PS_PARAMETER_SERVER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "common/status.h"
#include "core/vector.h"
#include "sim/sim_cluster.h"

namespace mllibstar {

/// Consistency schemes a parameter server can enforce between workers
/// (paper Section III-B).
enum class ConsistencyKind {
  kBsp,  ///< barrier every round
  kSsp,  ///< a worker may lead the slowest by at most `staleness` rounds
  kAsp,  ///< no coordination
};

/// How the server combines worker contributions (paper Section IV-B1
/// remark: Petuum uses summation, MLlib*/Petuum* use averaging).
enum class PsAggregation {
  kSumDeltas,      ///< w += Σ_r (w_r − w_pulled_r), applied as pushes land
  kAverageModels,  ///< w ← (1/k) Σ_r w_r at the end of each round
};

/// Configuration of the parameter-server tier.
struct PsConfig {
  size_t num_shards = 2;
  ConsistencyKind consistency = ConsistencyKind::kBsp;
  int staleness = 0;  ///< only used by kSsp
  PsAggregation aggregation = PsAggregation::kSumDeltas;
  /// Multiplier applied to pushed deltas in kSumDeltas mode (real
  /// systems normalize by worker count or batch size; 1.0 = raw sum).
  double delta_scale = 1.0;
  /// Workers pull only the coordinates their partition touches
  /// (Angel's feature-filtered pull) instead of the dense model.
  bool sparse_pull = false;

  /// Robustness knobs: a pull/push that is dropped (fault plan) or
  /// that targets a down shard times out and retries with jittered
  /// exponential backoff — delay = min(backoff_max_sec,
  /// backoff_base_sec * 2^attempt) * (0.5 + 0.5 * U[0,1)) — up to
  /// max_request_retries times before proceeding regardless (the shard
  /// queue then absorbs the wait).
  double request_timeout_sec = 0.25;
  double backoff_base_sec = 0.05;
  double backoff_max_sec = 2.0;
  size_t max_request_retries = 6;

  /// How often a shard snapshots its model range to stable storage.
  /// 0 = after every applied update (lossless: a crash rolls back to
  /// the state just before the in-flight request, which is then
  /// retried — bit-identical to a crash-free run). Positive values
  /// trade checkpoint overhead for lost updates on crash.
  double server_checkpoint_every_sec = 0.0;

  /// SSP/ASP graceful degradation: pushes staler than the staleness
  /// bound are discarded (and counted) instead of applied.
  bool discard_stale_pushes = false;

  /// InvalidArgument naming the first out-of-range field: num_shards
  /// == 0, staleness < 0, a timeout, backoff or checkpoint interval
  /// that is negative or not finite, or a non-finite delta_scale.
  /// TrainerConfig::Validate runs it for every system.
  Status Validate() const;
};

/// The global model sharded across server nodes, plus the timing model
/// for pull/push traffic (paper Figure 2c).
///
/// As everywhere in this codebase, the numeric state lives host-side
/// in one place; the shards exist to model queueing: each shard's
/// link serializes the requests it serves, which is exactly why a
/// parameter server beats a single driver — the same bytes spread
/// over `num_shards` links.
class PsContext {
 public:
  /// `sim` must outlive this context and have been built with
  /// config.num_shards server nodes. `codec` (non-owning, may outlive
  /// this context) sizes all pull/push traffic; nullptr means the
  /// uncompressed DenseF64 wire.
  PsContext(SimCluster* sim, size_t dim, const PsConfig& config,
            const GradientCodec* codec = nullptr);

  const PsConfig& config() const { return config_; }
  size_t dim() const { return model_.dim(); }
  const GradientCodec& wire_codec() const { return *codec_; }

  const DenseVector& model() const { return model_; }
  DenseVector* mutable_model() { return &model_; }

  /// Charges the time for `worker` to pull the full model (one
  /// request per shard, shard links serve in parallel, the worker's
  /// inbound link is the floor). Returns the completion time and
  /// advances the worker and shard clocks. The `bytes` overload pulls
  /// a filtered slice (sparse_pull).
  SimTime TimePull(SimNode* worker);
  SimTime TimePull(SimNode* worker, uint64_t bytes);

  /// Charges the time for `worker` to push an update of `bytes`
  /// (sparse updates are cheaper — real PS clients ship index/value
  /// pairs), including the shards' apply work. Returns the completion
  /// time. The overload without `bytes` pushes a dense full model.
  SimTime TimePush(SimNode* worker, uint64_t bytes);
  SimTime TimePush(SimNode* worker);

  /// Wire size of a sparse update with `nnz` nonzeros out of `dim`
  /// coordinates through this context's codec (4-byte index + encoded
  /// value per entry, never more than the dense encoding) — the same
  /// rule the MLlib* shuffle accounting uses.
  uint64_t SparseBytes(size_t nnz) const {
    return codec_->SparseEncodedBytes(nnz, dim());
  }

  /// The uncompressed special case (12 bytes per entry), kept for
  /// codec-free callers.
  static uint64_t SparseUpdateBytes(size_t nnz, size_t dim);

  /// kSumDeltas: applies `delta` (scaled by config.delta_scale) to the
  /// global model immediately, in push order.
  void ApplyDelta(const DenseVector& delta);

  /// kAverageModels: stages one worker's local model for this round.
  void AccumulateForAverage(const DenseVector& local_model);

  /// kAverageModels: replaces the global model with the average of the
  /// staged models and clears the stage. No-op if nothing was staged.
  void FinalizeAverage();

  /// Total bytes moved through the server tier so far.
  uint64_t total_bytes() const { return total_bytes_; }

  /// Time the last push completed (gates server-side checkpoints).
  SimTime last_push_end() const { return last_push_end_; }

  /// Re-snapshots the crash-restore state from the current model (call
  /// after externally overwriting the model, e.g. on trainer resume,
  /// so a later shard crash rolls back to the restored state and not
  /// to a stale one).
  void CheckpointServerNow() { ckpt_model_ = model_; }

  /// Permanent departure of shard `ev.node` (a membership
  /// kServerLeave event): its model range migrates to the next alive
  /// shard, which then serves redirected pulls/pushes for both ranges
  /// (its link serializes the doubled slices — graceful degradation,
  /// not a stall). Ignored if it would leave zero alive shards.
  /// Numerics never change: the model is host-side and global.
  void OnServerLeft(const MembershipEvent& ev);

  /// The shard actually serving shard `s`'s range (s itself, or the
  /// departed shard's migration successor).
  size_t ServingShard(size_t s) const;

  /// Quiet resume hook: marks shard `s` as departed without charging
  /// the migration again (the checkpointed membership view says it
  /// happened before the snapshot was taken).
  void MarkServerLeft(size_t s) { shard_left_[s] = true; }

 private:
  SimTime TimeTransfer(SimNode* worker, uint64_t total_bytes, bool is_pull,
                       const std::string& detail);

  /// Crashes shard `s` at virtual time `at`: its model range rolls
  /// back to the last server checkpoint, it is down for
  /// server_restart_seconds, then pays the restore transfer.
  void HandleShardCrash(size_t s, SimTime at);

  /// Snapshots the model for crash restore when the checkpoint
  /// cadence says so (always when server_checkpoint_every_sec == 0).
  void MaybeServerCheckpoint();

  SimCluster* sim_;
  PsConfig config_;
  const GradientCodec* codec_;
  DenseVector model_;
  DenseVector average_accumulator_;
  size_t staged_models_ = 0;
  uint64_t total_bytes_ = 0;
  /// Per-shard time until which the shard is unavailable (crash +
  /// restore in progress).
  std::vector<SimTime> shard_down_until_;
  /// Shards evicted by the failure detector; their ranges are served
  /// by the next alive shard.
  std::vector<bool> shard_left_;
  /// Last server-side snapshot of the model (crash rollback target).
  DenseVector ckpt_model_;
  SimTime last_ckpt_time_ = 0.0;
  SimTime last_push_end_ = 0.0;
};

/// Per-worker round progress of a PS event loop, kept incrementally so
/// that every question a per-event handler asks is O(1) (amortized):
/// may a round start yet (the BSP/SSP gate), when (the barrier time),
/// how far the fleet has got (leader), and how many pushes a round
/// owes before it completes. Only fleet-membership transitions pay
/// O(rounds).
///
/// A worker is *active* while it belongs to the fleet (pending and
/// departed workers neither hold the gate nor push). It participates
/// from its join round on; a departed worker still owes the rounds it
/// already pushed and nothing after.
class ConsistencyTracker {
 public:
  /// join_round of a worker that has never been admitted.
  static constexpr int kNeverJoined = std::numeric_limits<int>::max();

  /// `num_workers` active workers, all joined at round 0, nothing
  /// finished yet.
  ConsistencyTracker(ConsistencyKind kind, int staleness, size_t num_workers);

  /// Replaces the whole state (fresh start or checkpoint resume).
  /// `finish_times[w][t]` is worker w's completion time of round t
  /// (0 for rounds it skipped); rounds not yet run are absent.
  void Reset(const std::vector<bool>& active,
             const std::vector<int>& join_round,
             const std::vector<int>& rounds_done,
             std::vector<std::vector<SimTime>> finish_times);

  int rounds_done(size_t w) const { return rounds_done_[w]; }
  int join_round(size_t w) const { return join_round_[w]; }
  const std::vector<std::vector<SimTime>>& finish_times() const {
    return finish_times_;
  }

  /// Worker w's push of its current round landed at `at`: records the
  /// finish time and moves w on to the next round.
  void FinishRound(size_t w, SimTime at);
  /// Admits w at `round` (a join or rejoin): it has done `round` rounds
  /// and participates from there on. `round` >= rounds_done(w).
  void Admit(size_t w, int round);
  /// Mirrors w's fleet status (the membership tracker's IsActive).
  void SetActive(size_t w, bool active);

  /// True while round `round` may not start: under BSP/SSP some active
  /// worker has not finished round `round - 1 - staleness` yet.
  bool Blocked(int round) const;
  /// The gate frontier: smallest rounds_done over active workers
  /// (meaningless while none is active). Only moves forward between
  /// membership transitions; parked workers can only unblock when it
  /// does.
  int frontier() const { return min_round_; }
  /// Largest rounds_done any worker ever reached.
  int leader() const { return leader_; }
  /// Largest rounds_done over active workers other than `except`, or
  /// -1 when there is none. O(rounds); for membership transitions.
  int MaxActiveRoundExcept(size_t except) const;

  /// Virtual time at which worker w may start `round`: its own
  /// previous round's finish, and under BSP/SSP the latest finish of
  /// round `round - 1 - staleness` by any worker.
  SimTime StartTime(size_t w, int round) const;

  /// Pushes round t needs before it is complete: every worker that
  /// joined by round t and has not departed with the push still owed.
  /// A rejoiner's pushes from its previous incarnation stay counted.
  size_t ExpectedPushes(int t) const;

 private:
  /// Gate multiset: count of active workers per rounds_done value.
  void AddActiveRound(int round);
  void RemoveActiveRound(int round);
  /// Adds `sign` to ExpectedPushes over w's participation interval
  /// [join_round, active ? inf : rounds_done).
  void AddParticipation(size_t w, int sign);
  /// Adds `sign` to ExpectedPushes over rounds [lo, hi) (hi may be
  /// kNeverJoined for "every later round").
  void AddExpected(int lo, int hi, int sign);
  /// Materializes expected_ for every round up to leader_.
  void ExtendExpected();
  void SetLeader(int round);

  ConsistencyKind kind_;
  int staleness_;
  std::vector<bool> active_;
  std::vector<int> join_round_;
  std::vector<int> rounds_done_;
  std::vector<std::vector<SimTime>> finish_times_;
  /// Latest finish time per round over all workers (the barrier).
  std::vector<SimTime> round_finish_max_;
  std::vector<size_t> active_per_round_;
  size_t num_active_ = 0;
  int min_round_ = 0;
  int leader_ = 0;
  /// ExpectedPushes(t) = sum of expected_delta_[0..t]; expected_ holds
  /// that prefix sum for every t <= leader_.
  std::vector<int64_t> expected_delta_;
  std::vector<int64_t> expected_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_PS_PARAMETER_SERVER_H_
