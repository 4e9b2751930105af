#include "train/ps_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <tuple>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/gd.h"
#include "data/partition.h"
#include "engine/spark_cluster.h"
#include "obs/engine_profiler.h"
#include "obs/round_profile.h"
#include "obs/telemetry.h"

namespace mllibstar {

PsTrainer::PsTrainer(Mode mode, TrainerConfig config)
    : Trainer(std::move(config)), mode_(mode) {}

std::string PsTrainer::name() const {
  switch (mode_) {
    case Mode::kPetuum:
      return "petuum";
    case Mode::kPetuumStar:
      return "petuum*";
    case Mode::kAngel:
      return "angel";
  }
  return "ps";
}

// The PS systems run as a discrete-event simulation: each worker is a
// state machine (pull -> compute -> push -> next round) and the
// earliest pending event executes first, so a fast worker's
// round-(t+1) pull is served before a straggler's round-t push — the
// causal behavior that makes SSP/ASP actually pay off. Consistency
// gates when a worker may *start* a round; the model a pull returns is
// the live server state at pull time (summation mode) or the newest
// finalized round average (averaging mode).
TrainResult PsTrainer::Train(const Dataset& data,
                             const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  const size_t d = ModelDim(data);

  // The aggregation scheme is what distinguishes the systems; the
  // shard count and consistency come from the config.
  PsConfig ps = config().ps;
  switch (mode_) {
    case Mode::kPetuum:
      ps.aggregation = PsAggregation::kSumDeltas;
      break;
    case Mode::kPetuumStar:
      ps.aggregation = PsAggregation::kAverageModels;
      break;
    case Mode::kAngel:
      // Angel normalizes each worker's epoch update by the worker
      // count when applying (otherwise k simultaneous epoch deltas
      // overshoot), so the sum behaves like an average of deltas.
      ps.aggregation = PsAggregation::kSumDeltas;
      ps.delta_scale =
          config().ps.delta_scale / static_cast<double>(cluster.num_workers);
      break;
  }

  ClusterConfig cc = cluster;
  cc.num_servers = ps.num_shards;
  SimCluster sim(cc);
  PsContext server(&sim, d, ps, &codec());

  const size_t k = sim.num_workers();
  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  std::vector<Rng> rngs = WorkerRngs(k);
  // Host pool for the workers' local computations (see "Host
  // parallelism" below) and for evaluation.
  const size_t host_threads = ResolveHostThreads(config().host_threads);
  std::unique_ptr<ThreadPool> pool;
  if (host_threads > 1 && k > 1) {
    pool = std::make_unique<ThreadPool>(std::min(host_threads, k));
  }

  // Warm start (the λ path): seed the server model before any worker
  // pulls, and refresh the crash-restore snapshot so a shard failure
  // rolls back to the warm point rather than zeros.
  if (config().init_weights.dim() != 0) {
    *server.mutable_model() = InitialWeights(d);
    server.CheckpointServerNow();
  }

  // Per-worker and per-round progress.
  // Feature-filtered pulls: each worker only needs the coordinates its
  // partition actually references (Angel's optimization). Computed
  // once from the static partitioning. A softmax model carries
  // CoordsPerFeature() (= K) model coordinates per touched feature.
  std::vector<uint64_t> pull_bytes(k, codec().EncodedBytes(d));
  if (ps.sparse_pull) {
    std::vector<bool> touched(data.num_features());
    for (size_t r = 0; r < k; ++r) {
      std::fill(touched.begin(), touched.end(), false);
      size_t features = 0;
      for (FeatureIndex j : partitions[r].indices) {
        if (!touched[j]) {
          touched[j] = true;
          ++features;
        }
      }
      pull_bytes[r] =
          server.SparseBytes(features * objective().CoordsPerFeature());
    }
  }

  ErrorFeedback ef = MakeErrorFeedback(codec(), config().codec, k, d);
  // Per-worker progress as checkpointed; the ConsistencyTracker below
  // takes it over once setup/resume is done.
  std::vector<std::vector<SimTime>> finish_times(k);
  std::vector<int> rounds_done(k, 0);
  std::vector<DenseVector> pending_delta(k);  // between pull and push
  // Delta buffers of landed pushes, reused by later pulls: a BSP round
  // holds k of them at once, and handing them back to the allocator
  // every round would page the memory in again each time.
  std::vector<DenseVector> spare_deltas;
  // Per-round progress, indexed by round.
  struct RoundState {
    size_t pushes = 0;      ///< pushes seen
    size_t contribs = 0;    ///< deltas actually applied
    SimTime end = 0.0;      ///< latest push
    bool complete = false;  ///< completion fired once
    DenseVector stage;      ///< averaging: delta sum
    // Staleness occupancy (pure observation — never read by the math):
    // how far behind the leader each applied push was.
    double stale_sum = 0.0;
    double stale_max = 0.0;
    uint64_t stale_n = 0;
  };
  std::vector<RoundState> rounds;

  // Elastic membership. join_round[r] is the first round worker r
  // participates in (kNeverJoined while it sits in the joiner pool);
  // a round completes once every worker that joined by then and has
  // not departed mid-round has pushed. incarnation[r] invalidates the
  // queued events of an evicted worker: a push that pops after its
  // eviction tick is dropped, never applied.
  MembershipTracker& membership = sim.membership();
  std::vector<int> join_round(k, 0);
  for (size_t r = 0; r < k; ++r) {
    if (!membership.IsActive(r)) {
      join_round[r] = ConsistencyTracker::kNeverJoined;
    }
  }
  std::vector<uint64_t> incarnation(k, 0);
  std::vector<SimTime> admit_time(k, 0.0);
  std::vector<bool> pending_catchup(k, false);

  int max_rounds = config().max_comm_steps;

  // The PS checkpoint layout. PS checkpoints are only written at
  // quiescent BSP round boundaries (every worker has pushed round t,
  // nothing queued or in flight), so the state is exactly "all workers
  // about to schedule round t+1": model, per-worker RNG cursors, the
  // shared jitter/failure/fault streams, every virtual clock, and the
  // finish times the consistency barrier reads. SSP/ASP runs have no
  // quiescent point and never write checkpoints. join_round,
  // rounds_done and finish_times carry the ConsistencyTracker's
  // per-worker state across the file.
  int checkpoint_round = 0;
  const CheckpointLayout layout = [&](Checkpoint* ck) {
    ck->Header(CheckpointTag::kPs, config().num_classes);
    ck->Field(&checkpoint_round);
    ck->Field(server.mutable_model());
    ck->List(&rngs);
    ck->Field(sim.mutable_jitter_rng());
    ck->Field(sim.mutable_failure_rng());
    ck->Field(sim.faults().mutable_rng());
    ck->Through([&] { return sim.SaveClocks(); },
                [&](const std::vector<double>& clocks) {
                  sim.RestoreClocks(clocks);
                });
    ck->List(&finish_times);
    ck->Field(&ef);
    // Membership block: the failure detector resumes mid-churn with
    // already-fired events fired, the Poisson cursor un-rewound, and
    // every worker's participation window intact — a resumed churn
    // run replays the remaining transitions bit-identically.
    ck->Through([&] { return membership.SaveWords(); },
                [&](const std::vector<uint64_t>& words) {
                  membership.RestoreWords(words);
                });
    ck->Each(&join_round);
    ck->Each(&rounds_done);
    ck->List(&admit_time);
    ck->Each(&pending_catchup);
  };
  if (RestoreCheckpoint(config().checkpoint, layout)) {
    MLLIBSTAR_CHECK_EQ(server.model().dim(), d);
    // A later shard crash must roll back to the restored state, not to
    // the fresh context's zeros.
    server.CheckpointServerNow();
    // Shard departures already applied before the snapshot keep their
    // redirection without re-charging the migration.
    for (size_t s = 0; s < ps.num_shards; ++s) {
      if (membership.IsServerLeft(s)) server.MarkServerLeft(s);
    }
  }
  const int resumed_round = checkpoint_round;
  // Completed rounds stay completed; their staging slots were already
  // released and will not be touched again.
  rounds.resize(resumed_round);
  for (RoundState& done : rounds) {
    done.pushes = done.contribs = k;
    done.complete = true;
  }
  int last_completed_round = resumed_round;

  // Gate, barrier, leader and expected-push counts, all incremental.
  // Its active flags mirror the membership tracker's: they are synced
  // right after every AdvanceTo, the only call that changes them.
  ConsistencyTracker progress(ps.consistency, ps.staleness, k);
  {
    std::vector<bool> active(k);
    for (size_t r = 0; r < k; ++r) active[r] = membership.IsActive(r);
    progress.Reset(active, join_round, rounds_done, std::move(finish_times));
  }

  result.curve.set_label(name());
  result.curve.Add(resumed_round, 0.0,
                   Eval(partitions, server.model(), pool.get()));

  ScopedSpan run_span("train:" + name(), "trainer");
  // The whole PS event loop is kPs host time; the nested kKernels /
  // kCodec / kCheckpoint scopes carve their shares out (exclusive
  // attribution).
  EngineProfiler::Scope ps_prof(Subsystem::kPs);
  // Per-round profile state: the virtual frontier where the previous
  // completed round ended, and the comm-counter reading at that point.
  SimTime profile_frontier = 0.0;
  CommByteSnapshot profile_snap =
      CommByteSnapshot::Capture(Telemetry::Get().metrics());

  // Runs the system-specific local computation, updating `*local` in
  // place and returning the work done (paper §III-B differences).
  auto local_compute = [&](size_t r, int round,
                           DenseVector* local) -> ComputeStats {
    const CsrBlock& part = partitions[r];
    const size_t bsize = BatchSize(part.rows());
    const double lr = schedule().LrAt(round);
    ComputeStats stats;
    if (bsize == 0) return stats;
    switch (mode_) {
      case Mode::kPetuum:
      case Mode::kPetuumStar: {
        if (regularizer().kind() == RegularizerKind::kNone) {
          // Parallel SGD inside the batch: many updates per step. The
          // subset epoch shuffles the sampled row ids directly —
          // identical math to copying the rows out, without the copy.
          const std::vector<size_t> batch =
              SampleBatch(part.rows(), bsize, &rngs[r]);
          stats = objective().SgdEpoch(part, batch, lr, &rngs[r], local);
        } else {
          // Nonzero regularization: one batch-GD update per step
          // (dense regularizer updates are too expensive per point).
          stats = objective().MiniBatchGd(part, lr, bsize,
                                          /*num_batches=*/1, &rngs[r], local);
        }
        break;
      }
      case Mode::kAngel: {
        // One epoch of batch GD locally, communicating once.
        const size_t num_batches = (part.rows() + bsize - 1) / bsize;
        stats = objective().MiniBatchGd(part, lr, bsize, num_batches,
                                        &rngs[r], local);
        if (config().angel_allocation_overhead) {
          // Allocating and collecting a dense gradient buffer per
          // batch (paper §V-B2's memory/GC overhead).
          stats.nnz_processed += num_batches * (d / 4);
        }
        break;
      }
    }
    return stats;
  };

  // Event queue: (time, phase, worker, incarnation), earliest first.
  // Workers whose next round is blocked on the consistency barrier
  // wait in `parked` and are reconsidered, in parking order, whenever
  // the gate frontier advances, the round budget shrinks or the
  // membership changes — nothing else can unblock them. The
  // incarnation tag makes the queued events of an evicted worker
  // recognizably stale.
  enum Phase { kPull = 0, kPush = 1 };
  using Event = std::tuple<SimTime, int, size_t, uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<size_t> parked;

  // Schedules worker r's next pull if the consistency barrier for its
  // round is already determined; parks it otherwise. Departed and
  // still-pending workers neither schedule nor hold the gate.
  auto try_schedule_pull = [&](size_t r) {
    if (!membership.IsActive(r)) return;
    const int round = progress.rounds_done(r);
    if (round >= max_rounds) return;
    if (progress.Blocked(round)) {
      parked.push_back(r);
      return;
    }
    const SimTime barrier = progress.StartTime(r, round);
    SimNode& node = sim.worker(r);
    if (node.clock < barrier) {
      sim.trace().Record(node.name, node.clock, barrier, ActivityKind::kWait,
                         "consistency-wait");
      node.clock = barrier;
    }
    queue.emplace(node.clock, kPull, r, incarnation[r]);
  };

  for (size_t r = 0; r < k; ++r) try_schedule_pull(r);

  // Host parallelism. A popped pull's local computation is independent
  // of everything that can pop before the matching push (it trains on
  // the snapshot the wire delivered, with its own Rng), so it may run
  // on a pool thread while the event loop keeps popping. Determinism
  // holds because (a) the straggler jitter is pre-drawn at pop time,
  // in pop order; (b) an event pops while computes are in flight only
  // if it would also have popped before their pushes in the
  // sequential schedule: a worker's push can land no earlier than its
  // pull completed, so `bound = min in-flight pull-completion` lower-
  // bounds every pending push time (pulls win ties against pushes);
  // (c) drain() applies charges, counter folds and push enqueues in
  // pop order. Pop sequence, RNG streams, clocks and traces are
  // therefore identical for any host_threads value.
  struct InflightCompute {
    size_t worker = 0;
    int round = 0;
    uint64_t inc = 0;       ///< worker incarnation at pull time
    double jitter = 1.0;    ///< pre-drawn from the shared stream
    DenseVector snapshot;   ///< model the wire delivered
    DenseVector local;      ///< the compute task leaves the delta here
    ComputeStats stats;     ///< filled by the compute task
  };
  // Trains `task->local` from the snapshot, then turns it into the
  // delta and releases the snapshot, so a batch of in-flight computes
  // holds one d-vector each rather than two.
  auto run_compute = [&local_compute](InflightCompute* task) {
    EngineProfiler::Scope kernel_prof(Subsystem::kKernels);
    EngineProfiler::Get().AddEvents(Subsystem::kKernels, 1);
    task->stats = local_compute(task->worker, task->round, &task->local);
    task->local.AddScaled(task->snapshot, -1.0);  // local := delta
    task->snapshot = DenseVector();
  };
  std::vector<std::unique_ptr<InflightCompute>> inflight;
  // Lower bound on every in-flight compute's push time: the earliest
  // pull completion among them (reset by drain()).
  SimTime inflight_bound = std::numeric_limits<SimTime>::infinity();

  auto drain = [&] {
    if (inflight.empty()) return;
    if (pool != nullptr) pool->WaitAll();
    for (std::unique_ptr<InflightCompute>& fl : inflight) {
      SimNode& node = sim.worker(fl->worker);
      result.total_model_updates += fl->stats.model_updates;
      const double dur = static_cast<double>(fl->stats.nnz_processed) /
                         node.compute_speed * fl->jitter;
      SimTime crash_at = 0.0;
      if (sim.faults().WorkerCrashes(fl->worker, node.clock,
                                     node.clock + dur, &crash_at)) {
        // PS workers keep their partition local, so recovery is a
        // restart plus a re-run on the same node (no lineage transfer
        // to a survivor), charged at a fresh failure-stream jitter.
        // The numeric delta below is unaffected: faults cost virtual
        // time only.
        if (crash_at > node.clock) {
          sim.trace().Record(node.name, node.clock, crash_at,
                             ActivityKind::kCompute, "local-train/lost");
        }
        const SimTime up_at =
            crash_at + sim.faults().plan().executor_restart_seconds;
        sim.trace().Record(node.name, crash_at, up_at, ActivityKind::kFault,
                           "executor-down");
        node.clock = up_at;
        ++sim.faults().stats().lineage_recomputes;
        const double redo = static_cast<double>(fl->stats.nnz_processed) /
                            node.compute_speed * sim.NextRetryJitter();
        sim.trace().Record(node.name, node.clock, node.clock + redo,
                           ActivityKind::kRecompute, "local-train/rerun");
        node.clock += redo;
      } else {
        sim.ChargeCompute(&node, fl->stats.nnz_processed, fl->jitter,
                          "local-train");
      }
      pending_delta[fl->worker] = std::move(fl->local);
      queue.emplace(node.clock, kPush, fl->worker, fl->inc);
    }
    inflight.clear();
    inflight_bound = std::numeric_limits<SimTime>::infinity();
  };

  auto retry_parked = [&] {
    std::vector<size_t> to_retry;
    std::swap(parked, to_retry);
    for (size_t v : to_retry) try_schedule_pull(v);
  };

  bool stop_all = false;

  // Fires the round-t completion (averaging finalize, telemetry,
  // checkpoint, eval) once its expected pushes are in. Invoked after
  // every push and after every departure — a leave can complete the
  // round that was only waiting on the departed pusher.
  auto complete_round = [&](int t) {
    if (t < 0 || static_cast<size_t>(t) >= rounds.size()) return;
    RoundState& rs = rounds[t];
    if (rs.complete) return;
    // Every worker that joined by round t and has not departed with
    // the push still owed; k when the membership never changes.
    const size_t expected = progress.ExpectedPushes(t);
    if (rs.pushes < expected || rs.pushes == 0) return;
    rs.complete = true;
    if (membership.enabled() && expected < k) {
      ++membership.stats().degraded_rounds;
    }
    // The round is complete everywhere.
    if (ps.aggregation == PsAggregation::kAverageModels) {
      // New global model = old model + average of the deltas that
      // were actually applied (all contributors unless staleness
      // discarded some; with a full fleet and none discarded this is
      // exactly the old 1/k).
      if (rs.contribs > 0) {
        rs.stage.Scale(1.0 / static_cast<double>(rs.contribs));
        server.mutable_model()->AddScaled(rs.stage, 1.0);
        // The average was applied outside PsContext, so refresh its
        // crash-restore snapshot (lossless mode only; a positive
        // cadence keeps its lossy window).
        if (ps.server_checkpoint_every_sec <= 0.0) {
          server.CheckpointServerNow();
        }
      }
      rs.stage = DenseVector();  // release
    }
    const int completed = t + 1;
    last_completed_round = std::max(last_completed_round, completed);
    {
      Telemetry& obs = Telemetry::Get();
      if (obs.enabled()) {
        obs.metrics()
            .Counter("train.rounds_completed", {{"system", name()}})
            .Add();
        obs.RecordEvent("round-complete", "trainer", rs.end,
                        {{"system", name()},
                         {"round", std::to_string(completed)}});
        // Per-round profile. A PS round has no task batches — the
        // "task duration" proxy is each worker's push instant relative
        // to the round's earliest push, which is exactly the straggler
        // spread SSP bounds. Compute overlaps communication here by
        // design, so the Spark compute/wait/comm split stays zero.
        RoundProfile profile;
        profile.system = name();
        profile.round = t;
        profile.sim_start = profile_frontier;
        profile.sim_end = rs.end;
        std::vector<double> offsets;
        for (const std::vector<SimTime>& times : progress.finish_times()) {
          if (times.size() > static_cast<size_t>(t) && times[t] > 0.0) {
            offsets.push_back(times[t]);
          }
        }
        if (!offsets.empty()) {
          const double first =
              *std::min_element(offsets.begin(), offsets.end());
          for (double& f : offsets) f -= first;
        }
        profile.tasks = offsets.size();
        profile.task_p50 = DurationQuantile(offsets, 0.5);
        profile.task_p95 = DurationQuantile(offsets, 0.95);
        profile.task_max =
            offsets.empty()
                ? 0.0
                : *std::max_element(offsets.begin(), offsets.end());
        const CommByteSnapshot now_snap =
            CommByteSnapshot::Capture(obs.metrics());
        profile_snap.DiffInto(now_snap, &profile);
        profile_snap = now_snap;
        profile.staleness_samples = rs.stale_n;
        if (rs.stale_n > 0) {
          profile.staleness_mean =
              rs.stale_sum / static_cast<double>(rs.stale_n);
          profile.staleness_max = rs.stale_max;
          obs.ObserveSeries("staleness", SeriesAgg::kMean, rs.end,
                            profile.staleness_mean);
        }
        obs.ObserveSeries("straggler.spread", SeriesAgg::kMax, rs.end,
                          profile.task_max - profile.task_p50);
        obs.SampleWindows(rs.end);
        profile_frontier = std::max(profile_frontier, rs.end);
        obs.RecordRoundProfile(std::move(profile));
      }
    }
    // A completed BSP round is a quiescent point — every participating
    // worker has pushed, nothing is queued or in flight — which is the
    // one moment the whole trainer state is a handful of vectors and
    // cursors. Snapshot it if the cadence says so.
    if (ps.consistency == ConsistencyKind::kBsp && queue.empty() &&
        inflight.empty() &&
        ShouldCheckpoint(config().checkpoint, completed)) {
      checkpoint_round = completed;
      for (size_t v = 0; v < k; ++v) {
        join_round[v] = progress.join_round(v);
        rounds_done[v] = progress.rounds_done(v);
      }
      finish_times = progress.finish_times();
      SaveCheckpoint(config().checkpoint, layout);
    }
    if (completed % config().eval_every == 0 || completed >= max_rounds) {
      const double objective =
          Eval(partitions, server.model(), pool.get());
      RecordEval(completed, rs.end, objective, &result);
      if (IsDiverged(objective)) {
        result.diverged = true;
        stop_all = true;
        return;
      }
      if (ShouldStop(completed, rs.end, objective)) {
        max_rounds = std::min(max_rounds, completed);
      }
    }
  };

  // Fires every membership transition detected by `now`. A departed
  // worker's incarnation bumps (its queued events become stale) and
  // any round that was only waiting on its push completes; a joiner is
  // admitted at the fleet's current frontier round and scheduled; a
  // departed shard hands its range to its successor. Parked workers
  // retry afterwards — the consistency gate may have lost a member.
  auto process_churn = [&](SimTime now) {
    if (!membership.enabled()) return;
    const std::vector<MembershipEvent> events = membership.AdvanceTo(now);
    if (events.empty()) return;
    // AdvanceTo has already applied the whole batch to the fleet view;
    // the tracker follows suit before any event below reads the gate.
    for (const MembershipEvent& ev : events) {
      if (ev.kind != MembershipEvent::Kind::kServerLeave) {
        progress.SetActive(ev.node, membership.IsActive(ev.node));
      }
    }
    Telemetry& obs = Telemetry::Get();
    for (const MembershipEvent& ev : events) {
      switch (ev.kind) {
        case MembershipEvent::Kind::kLeave: {
          SimNode& gone = sim.worker(ev.node);
          sim.trace().Record(gone.name, ev.at, ev.suspect_at,
                             ActivityKind::kMembershipLeave,
                             "membership/leave");
          sim.trace().Record(gone.name, ev.suspect_at, ev.detected_at,
                             ActivityKind::kMembershipSuspect,
                             "membership/suspected");
          ++incarnation[ev.node];
          pending_delta[ev.node] = DenseVector();
          pending_catchup[ev.node] = false;
          if (obs.enabled()) {
            obs.metrics().Counter("membership.leaves").Add();
            obs.RecordEvent("membership-leave", "membership", ev.detected_at,
                            {{"worker", gone.name}});
          }
          for (int t = 0; t < static_cast<int>(rounds.size()); ++t) {
            complete_round(t);
          }
          break;
        }
        case MembershipEvent::Kind::kJoin:
        case MembershipEvent::Kind::kRejoin: {
          const bool rejoin = ev.kind == MembershipEvent::Kind::kRejoin;
          SimNode& joiner = sim.worker(ev.node);
          sim.trace().Record(joiner.name, ev.at, ev.detected_at,
                             rejoin ? ActivityKind::kMembershipRejoin
                                    : ActivityKind::kMembershipJoin,
                             rejoin ? "membership/rejoin"
                                    : "membership/join");
          joiner.clock = std::max(joiner.clock, ev.detected_at);
          // Admitted at the current leader round: the joiner pulls the
          // live model and contributes from the fleet's frontier, not
          // from round 0 (a rejoiner never re-pushes rounds it already
          // finished in a previous incarnation).
          const int leader = std::max(
              last_completed_round, progress.MaxActiveRoundExcept(ev.node));
          progress.Admit(ev.node,
                         std::max(progress.rounds_done(ev.node), leader));
          admit_time[ev.node] = ev.detected_at;
          pending_catchup[ev.node] = true;
          if (obs.enabled()) {
            obs.metrics()
                .Counter(rejoin ? "membership.rejoins" : "membership.joins")
                .Add();
            obs.RecordEvent(rejoin ? "membership-rejoin" : "membership-join",
                            "membership", ev.detected_at,
                            {{"worker", joiner.name}});
          }
          try_schedule_pull(ev.node);
          break;
        }
        case MembershipEvent::Kind::kServerLeave:
          server.OnServerLeft(ev);
          break;
      }
    }
    retry_parked();
  };

  while (true) {
    if (queue.empty()) {
      if (!inflight.empty()) {
        drain();
        continue;
      }
      // Idle with workers parked: only a membership transition can
      // unpark them (the gate is waiting on a silent, not-yet-evicted
      // worker) — advance virtual time straight to the next one.
      if (!parked.empty() && membership.enabled()) {
        const SimTime next = membership.NextEventTime();
        if (std::isfinite(next)) {
          process_churn(next);
          if (stop_all) break;
          continue;
        }
      }
      break;
    }
    const auto [time, phase, r, inc] = queue.top();
    if (!inflight.empty()) {
      const bool safe =
          phase == kPull ? time <= inflight_bound : time < inflight_bound;
      if (!safe) {
        drain();
        continue;
      }
    }
    queue.pop();
    EngineProfiler::Get().AddEvents(Subsystem::kPs, 1);
    process_churn(time);
    if (stop_all) break;
    if (inc != incarnation[r] || !membership.IsActive(r)) {
      // A stale event of an evicted (or evicted-and-readmitted)
      // worker: the pull never happens / the in-flight push is lost
      // with the node.
      if (phase == kPush) pending_delta[r] = DenseVector();
      continue;
    }
    SimNode& node = sim.worker(r);
    const int round = progress.rounds_done(r);

    if (phase == kPull) {
      server.TimePull(&node, pull_bytes[r]);
      // The worker trains on the model the wire delivered.
      auto fl = std::make_unique<InflightCompute>();
      fl->worker = r;
      fl->round = round;
      fl->inc = inc;
      fl->jitter = sim.NextJitter();
      inflight_bound = std::min(inflight_bound, node.clock);
      fl->snapshot =
          CodecTransmit(codec(), nullptr, 0, server.model(), &fl->snapshot);
      if (!spare_deltas.empty()) {
        fl->local = std::move(spare_deltas.back());
        spare_deltas.pop_back();
      }
      fl->local = fl->snapshot;
      InflightCompute* task = fl.get();
      inflight.push_back(std::move(fl));
      if (pool != nullptr) {
        // Pool thread: the profiler's frame stack is empty there, so
        // the compute's scope charges kKernels alone (no kPs
        // double-count).
        pool->Submit([task, &run_compute] { run_compute(task); });
      } else {
        // Run the compute synchronously but leave the charge to the
        // same drain ordering the pool path uses, so the trace event
        // sequence is byte-identical for every host_threads value.
        run_compute(task);
      }
      continue;
    }

    // kPush: ship the delta through the codec (with error feedback);
    // the wire carries whichever of the codec's dense and sparse
    // index/value encodings is smaller.
    uint64_t dense_bytes = 0;
    const DenseVector& delta = CodecTransmit(
        codec(), &ef, r, pending_delta[r], &pending_delta[r], &dense_bytes);
    const uint64_t push_bytes =
        std::min(dense_bytes, server.SparseBytes(delta.CountNonZeros()));
    server.TimePush(&node, push_bytes);
    if (static_cast<size_t>(round) >= rounds.size()) {
      const size_t first_new = rounds.size();
      rounds.resize(round + 1);
      if (ps.aggregation == PsAggregation::kAverageModels) {
        for (size_t i = first_new; i < rounds.size(); ++i) {
          rounds[i].stage = DenseVector(d);
        }
      }
    }
    // A joiner's first landed push closes its catch-up window.
    if (pending_catchup[r]) {
      membership.stats().catchup_latency_sum += node.clock - admit_time[r];
      ++membership.stats().catchup_count;
      pending_catchup[r] = false;
    }
    // SSP/ASP graceful degradation: a worker more than staleness + 1
    // rounds behind the leader is pushing a delta computed on a model
    // the cluster has long moved past, so it is discarded — it still
    // counts toward round completion (the worker moves on) but its
    // delta never touches the model. SSP's scheduling gate already
    // bounds the spread to staleness + 1, so this only fires under
    // ASP, where nothing else protects the model from ancient deltas.
    const int leader = progress.leader();
    const bool stale =
        ps.discard_stale_pushes && leader - round > ps.staleness + 1;
    RoundState& rs = rounds[round];
    if (stale) {
      ++sim.faults().stats().stale_pushes_discarded;
    } else {
      if (ps.aggregation == PsAggregation::kSumDeltas) {
        server.ApplyDelta(delta);
      } else {
        rs.stage.AddScaled(delta, 1.0);
      }
      ++rs.contribs;
      const double lag = static_cast<double>(leader - round);
      rs.stale_sum += lag;
      rs.stale_max = std::max(rs.stale_max, lag);
      ++rs.stale_n;
    }
    spare_deltas.push_back(std::move(pending_delta[r]));
    ++rs.pushes;
    rs.end = std::max(rs.end, node.clock);
    const int frontier = progress.frontier();
    const int round_budget = max_rounds;
    progress.FinishRound(r, node.clock);

    complete_round(round);
    if (stop_all) break;

    // A parked worker stays blocked until the gate frontier (the
    // slowest active worker's progress) advances; a shrunken round
    // budget drops the ones past it. Otherwise a retry would re-park
    // every one of them in the same order, so it is skipped.
    if (progress.frontier() != frontier || max_rounds != round_budget) {
      retry_parked();
    }
    try_schedule_pull(r);
  }

  // A divergence break can leave computes in flight; the sequential
  // schedule would already have charged them, so charge them here too
  // before reading the clocks.
  drain();
  run_span.SetSimRange(0.0, sim.Now());

  result.comm_steps = std::min(last_completed_round, max_rounds);
  result.final_weights = server.model();
  FinishResult(&sim, server.total_bytes(), &result);
  return result;
}

}  // namespace mllibstar
