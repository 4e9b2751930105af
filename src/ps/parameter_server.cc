#include "ps/parameter_server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace mllibstar {

Status PsConfig::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("PsConfig.num_shards must be >= 1, got 0");
  }
  if (staleness < 0) {
    return Status::InvalidArgument("PsConfig.staleness must be >= 0, got " +
                                   std::to_string(staleness));
  }
  const std::pair<const char*, double> seconds[] = {
      {"request_timeout_sec", request_timeout_sec},
      {"backoff_base_sec", backoff_base_sec},
      {"backoff_max_sec", backoff_max_sec},
      {"server_checkpoint_every_sec", server_checkpoint_every_sec},
  };
  for (const auto& [field, value] : seconds) {
    if (!std::isfinite(value) || value < 0.0) {
      return Status::InvalidArgument(std::string("PsConfig.") + field +
                                     " must be finite and >= 0, got " +
                                     FormatDouble(value));
    }
  }
  if (!std::isfinite(delta_scale)) {
    return Status::InvalidArgument(
        "PsConfig.delta_scale must be finite, got " +
        FormatDouble(delta_scale));
  }
  return Status::Ok();
}

PsContext::PsContext(SimCluster* sim, size_t dim, const PsConfig& config,
                     const GradientCodec* codec)
    : sim_(sim), config_(config),
      codec_(codec != nullptr ? codec : &PassthroughCodec()), model_(dim),
      average_accumulator_(dim),
      shard_down_until_(config.num_shards, 0.0),
      shard_left_(config.num_shards, false), ckpt_model_(dim) {
  MLLIBSTAR_CHECK_EQ(sim->num_servers(), config.num_shards);
  MLLIBSTAR_CHECK_GT(config.num_shards, 0u);
}

void PsContext::HandleShardCrash(size_t s, SimTime at) {
  FaultInjector& faults = sim_->faults();
  SimNode& shard = sim_->server(s);
  const SimTime up_at = at + faults.plan().server_restart_seconds;
  sim_->trace().Record(shard.name, at, up_at, ActivityKind::kFault,
                       "ps-shard-down");
  {
    Telemetry& obs = Telemetry::Get();
    if (obs.enabled()) {
      obs.metrics().Counter("ps.shard_crashes").Add();
      obs.RecordEvent("ps-shard-crash", "ps", at, {{"shard", shard.name}});
    }
  }

  // Updates applied to this shard's model range since the last server
  // checkpoint are lost: roll the range back. With
  // server_checkpoint_every_sec == 0 the last checkpoint *is* the
  // current state, so nothing is lost and crash-free bit-identity
  // holds.
  const size_t dim = model_.dim();
  const size_t per = (dim + config_.num_shards - 1) / config_.num_shards;
  const size_t lo = std::min(dim, s * per);
  const size_t hi = std::min(dim, lo + per);
  for (size_t i = lo; i < hi; ++i) model_[i] = ckpt_model_[i];

  // The restarted shard re-reads its range from the checkpoint store.
  const uint64_t range_bytes = codec_->EncodedBytes(hi - lo);
  const SimTime restore_end =
      up_at + static_cast<double>(range_bytes) / sim_->network().bandwidth();
  sim_->trace().Record(shard.name, up_at, restore_end,
                       ActivityKind::kRecompute, "ps-restore");
  {
    Telemetry& obs = Telemetry::Get();
    if (obs.enabled()) obs.metrics().Counter("ps.checkpoint_restores").Add();
  }
  shard.clock = std::max(shard.clock, restore_end);
  shard_down_until_[s] = restore_end;
}

size_t PsContext::ServingShard(size_t s) const {
  size_t serve = s;
  for (size_t hops = 0; hops < config_.num_shards; ++hops) {
    if (!shard_left_[serve]) return serve;
    serve = (serve + 1) % config_.num_shards;
  }
  return s;  // unreachable: at least one shard is always alive
}

void PsContext::OnServerLeft(const MembershipEvent& ev) {
  const size_t s = ev.node;
  MLLIBSTAR_CHECK_LT(s, config_.num_shards);
  if (shard_left_[s]) return;
  size_t alive = 0;
  for (size_t i = 0; i < config_.num_shards; ++i) {
    if (!shard_left_[i]) ++alive;
  }
  if (alive <= 1) return;  // refusing to evict the last shard

  SimNode& gone = sim_->server(s);
  sim_->trace().Record(gone.name, ev.at, ev.suspect_at,
                       ActivityKind::kMembershipLeave, "membership/leave");
  sim_->trace().Record(gone.name, ev.suspect_at, ev.detected_at,
                       ActivityKind::kMembershipSuspect,
                       "membership/suspected");
  shard_left_[s] = true;

  // The departed shard's range re-reads from the checkpoint store onto
  // its successor, which serves both ranges from then on.
  const size_t successor = ServingShard((s + 1) % config_.num_shards);
  const size_t dim = model_.dim();
  const size_t per = (dim + config_.num_shards - 1) / config_.num_shards;
  const size_t lo = std::min(dim, s * per);
  const size_t hi = std::min(dim, lo + per);
  const uint64_t range_bytes = codec_->EncodedBytes(hi - lo);
  SimNode& succ = sim_->server(successor);
  const SimTime start = std::max(ev.detected_at, succ.clock);
  const SimTime end =
      start + static_cast<double>(range_bytes) / sim_->network().bandwidth();
  sim_->trace().Record(succ.name, start, end, ActivityKind::kRecompute,
                       "ps-shard-migrate");
  succ.clock = std::max(succ.clock, end);
  ++sim_->membership().stats().shard_migrations;
  Telemetry& obs = Telemetry::Get();
  if (obs.enabled()) {
    obs.metrics().Counter("membership.server_leaves").Add();
    obs.metrics().Counter("membership.shard_migrations").Add();
    obs.RecordEvent("membership-server-leave", "membership", ev.detected_at,
                    {{"shard", gone.name},
                     {"successor", succ.name}});
  }
}

void PsContext::MaybeServerCheckpoint() {
  if (config_.server_checkpoint_every_sec <= 0.0 ||
      last_push_end_ - last_ckpt_time_ >=
          config_.server_checkpoint_every_sec) {
    ckpt_model_ = model_;
    last_ckpt_time_ = last_push_end_;
  }
}

SimTime PsContext::TimeTransfer(SimNode* worker, uint64_t total_bytes,
                                bool is_pull, const std::string& detail) {
  const NetworkModel& net = sim_->network();
  const size_t shards = config_.num_shards;
  const uint64_t shard_bytes = (total_bytes + shards - 1) / shards;
  total_bytes_ += total_bytes;
  FaultInjector& faults = sim_->faults();
  Telemetry& obs = Telemetry::Get();
  if (obs.enabled()) {
    obs.metrics().Counter(is_pull ? "ps.pulls" : "ps.pushes").Add();
    obs.metrics()
        .Counter("ps.bytes", {{"path", is_pull ? "pull" : "push"}})
        .Add(total_bytes);
  }

  // Fire any shard crash due at this request (scripted events, or the
  // probabilistic while-serving draw). The crash rolls the shard's
  // range back to its checkpoint and makes it unavailable until the
  // restore completes.
  for (size_t s = 0; s < shards; ++s) {
    if (shard_left_[s]) continue;  // departed shards can no longer crash
    SimTime crash_at = 0.0;
    if (faults.ServerCrashDue(s, worker->clock, &crash_at)) {
      HandleShardCrash(s, std::max(crash_at, shard_down_until_[s]));
    } else if (faults.plan().server_crash_prob > 0.0 &&
               faults.NextServerCrash()) {
      HandleShardCrash(s, std::max(worker->clock,
                                   sim_->server(s).clock));
    }
  }

  // Retry with jittered exponential backoff while the request is
  // dropped in-flight or a target shard is down. After
  // max_request_retries the request proceeds regardless and queues on
  // the shard.
  size_t attempt = 0;
  for (;;) {
    const SimTime now = worker->clock;
    bool blocked = faults.NextMessageDrop(now);
    for (size_t s = 0; !blocked && s < shards; ++s) {
      if (shard_down_until_[ServingShard(s)] > now) blocked = true;
    }
    if (!blocked || attempt >= config_.max_request_retries) break;
    ++faults.stats().ps_retries;
    if (obs.enabled()) obs.metrics().Counter("ps.retries").Add();
    const double backoff =
        std::min(config_.backoff_max_sec,
                 config_.backoff_base_sec *
                     std::ldexp(1.0, static_cast<int>(attempt))) *
        (0.5 + 0.5 * faults.NextBackoffJitter());
    const SimTime wait_until = now + config_.request_timeout_sec + backoff;
    if (obs.enabled()) {
      // Backoff spent waiting, in simulated microseconds (integer so a
      // counter can accumulate it).
      obs.metrics()
          .Counter("ps.backoff_sim_us")
          .Add(static_cast<uint64_t>(backoff * 1e6));
    }
    sim_->trace().Record(worker->name, now, wait_until, ActivityKind::kRetry,
                         detail + "/retry");
    worker->clock = wait_until;
    ++attempt;
  }

  const SimTime request_time = worker->clock;

  // Each shard serves its slice; a shard's link serializes requests
  // from different workers (tracked by the shard's clock). A departed
  // shard's slice is served by its migration successor, whose link
  // then serializes the doubled load.
  SimTime last_shard_done = 0.0;
  for (size_t s = 0; s < shards; ++s) {
    SimNode& shard = sim_->server(ServingShard(s));
    const SimTime start = std::max(request_time + net.latency(), shard.clock);
    const SimTime end =
        start + static_cast<double>(shard_bytes) / net.bandwidth() *
                    sim_->LinkFactor(start);
    sim_->trace().Record(shard.name, start, end, ActivityKind::kCommunicate,
                         detail);
    shard.clock = end;
    if (!is_pull) {
      // Applying the slice to the shard's partition of the model;
      // disjoint ranges apply in parallel across the server's cores.
      const uint64_t apply_work =
          shard_bytes / 8 / std::max<size_t>(1, sim_->config().server_cores);
      sim_->ComputeExact(&shard, apply_work, ActivityKind::kAggregate,
                         detail + "/apply");
    }
    last_shard_done = std::max(last_shard_done, shard.clock);
  }

  // The worker's own link must move all the bytes too; whichever of
  // (slowest shard + latency) and (worker link time) is later wins.
  const SimTime worker_link_done =
      request_time + net.latency() +
      static_cast<double>(total_bytes) / net.bandwidth() *
          sim_->LinkFactor(request_time);
  const SimTime done = std::max(last_shard_done + net.latency(),
                                worker_link_done);
  sim_->trace().Record(worker->name, worker->clock, done,
                       ActivityKind::kCommunicate, detail);
  worker->clock = done;
  if (!is_pull) last_push_end_ = std::max(last_push_end_, done);
  return done;
}

SimTime PsContext::TimePull(SimNode* worker) {
  return TimeTransfer(worker, codec_->EncodedBytes(dim()),
                      /*is_pull=*/true, "ps-pull");
}

SimTime PsContext::TimePull(SimNode* worker, uint64_t bytes) {
  return TimeTransfer(worker, bytes, /*is_pull=*/true, "ps-pull");
}

SimTime PsContext::TimePush(SimNode* worker, uint64_t bytes) {
  return TimeTransfer(worker, bytes, /*is_pull=*/false, "ps-push");
}

SimTime PsContext::TimePush(SimNode* worker) {
  return TimePush(worker, codec_->EncodedBytes(dim()));
}

uint64_t PsContext::SparseUpdateBytes(size_t nnz, size_t dim) {
  return PassthroughCodec().SparseEncodedBytes(nnz, dim);
}

void PsContext::ApplyDelta(const DenseVector& delta) {
  MLLIBSTAR_CHECK_EQ(delta.dim(), model_.dim());
  model_.AddScaled(delta, config_.delta_scale);
  MaybeServerCheckpoint();
}

void PsContext::AccumulateForAverage(const DenseVector& local_model) {
  MLLIBSTAR_CHECK_EQ(local_model.dim(), model_.dim());
  average_accumulator_.AddScaled(local_model, 1.0);
  ++staged_models_;
}

void PsContext::FinalizeAverage() {
  if (staged_models_ == 0) return;
  average_accumulator_.Scale(1.0 / static_cast<double>(staged_models_));
  model_ = average_accumulator_;
  average_accumulator_.SetZero();
  staged_models_ = 0;
  MaybeServerCheckpoint();
}

ConsistencyTracker::ConsistencyTracker(ConsistencyKind kind, int staleness,
                                       size_t num_workers)
    : kind_(kind), staleness_(staleness) {
  Reset(std::vector<bool>(num_workers, true),
        std::vector<int>(num_workers, 0), std::vector<int>(num_workers, 0),
        std::vector<std::vector<SimTime>>(num_workers));
}

void ConsistencyTracker::Reset(const std::vector<bool>& active,
                               const std::vector<int>& join_round,
                               const std::vector<int>& rounds_done,
                               std::vector<std::vector<SimTime>> finish_times) {
  const size_t k = active.size();
  MLLIBSTAR_CHECK_EQ(join_round.size(), k);
  MLLIBSTAR_CHECK_EQ(rounds_done.size(), k);
  MLLIBSTAR_CHECK_EQ(finish_times.size(), k);
  active_ = active;
  join_round_ = join_round;
  rounds_done_ = rounds_done;
  finish_times_ = std::move(finish_times);

  round_finish_max_.clear();
  for (const std::vector<SimTime>& times : finish_times_) {
    if (times.size() > round_finish_max_.size()) {
      round_finish_max_.resize(times.size(), 0.0);
    }
    for (size_t t = 0; t < times.size(); ++t) {
      round_finish_max_[t] = std::max(round_finish_max_[t], times[t]);
    }
  }

  active_per_round_.clear();
  num_active_ = 0;
  min_round_ = 0;
  leader_ = 0;
  expected_delta_.clear();
  expected_.clear();
  for (size_t w = 0; w < k; ++w) {
    leader_ = std::max(leader_, rounds_done_[w]);
    if (active_[w]) AddActiveRound(rounds_done_[w]);
    AddParticipation(w, +1);
  }
  ExtendExpected();
}

void ConsistencyTracker::FinishRound(size_t w, SimTime at) {
  const int t = rounds_done_[w];
  // Round-indexed, not appended: a joiner admitted at the frontier
  // skips earlier rounds, whose slots stay 0 and never gate anyone.
  std::vector<SimTime>& times = finish_times_[w];
  if (static_cast<size_t>(t) >= times.size()) times.resize(t + 1, 0.0);
  times[t] = at;
  if (static_cast<size_t>(t) >= round_finish_max_.size()) {
    round_finish_max_.resize(t + 1, 0.0);
  }
  round_finish_max_[t] = std::max(round_finish_max_[t], at);

  if (active_[w]) {
    // Participation [join, inf) does not depend on rounds_done.
    AddActiveRound(t + 1);
    RemoveActiveRound(t);
    rounds_done_[w] = t + 1;
  } else {
    AddParticipation(w, -1);
    rounds_done_[w] = t + 1;
    AddParticipation(w, +1);
  }
  SetLeader(t + 1);
}

void ConsistencyTracker::Admit(size_t w, int round) {
  MLLIBSTAR_CHECK_GE(round, rounds_done_[w]);
  AddParticipation(w, -1);
  // The rounds w pushed in its previous incarnation keep counting:
  // those pushes landed, so the rounds must not wait for them again.
  if (join_round_[w] != kNeverJoined && rounds_done_[w] > join_round_[w]) {
    AddExpected(join_round_[w], rounds_done_[w], +1);
  }
  if (active_[w]) {
    AddActiveRound(round);
    RemoveActiveRound(rounds_done_[w]);
  }
  rounds_done_[w] = round;
  join_round_[w] = round;
  AddParticipation(w, +1);
  SetLeader(round);
}

void ConsistencyTracker::SetActive(size_t w, bool active) {
  if (active_[w] == active) return;
  AddParticipation(w, -1);
  if (active) {
    AddActiveRound(rounds_done_[w]);
  } else {
    RemoveActiveRound(rounds_done_[w]);
  }
  active_[w] = active;
  AddParticipation(w, +1);
}

bool ConsistencyTracker::Blocked(int round) const {
  if (kind_ == ConsistencyKind::kAsp || num_active_ == 0) return false;
  const int gate =
      round - 1 - (kind_ == ConsistencyKind::kSsp ? staleness_ : 0);
  return gate >= 0 && min_round_ <= gate;
}

int ConsistencyTracker::MaxActiveRoundExcept(size_t except) const {
  for (size_t t = active_per_round_.size(); t-- > 0;) {
    size_t n = active_per_round_[t];
    if (active_[except] && static_cast<size_t>(rounds_done_[except]) == t) {
      --n;
    }
    if (n > 0) return static_cast<int>(t);
  }
  return -1;
}

SimTime ConsistencyTracker::StartTime(size_t w, int round) const {
  // Own previous round always gates the next one.
  SimTime start = 0.0;
  const std::vector<SimTime>& own = finish_times_[w];
  if (round > 0 && static_cast<size_t>(round - 1) < own.size()) {
    start = own[round - 1];
  }
  if (kind_ == ConsistencyKind::kAsp) return start;
  const int barrier_round =
      round - 1 - (kind_ == ConsistencyKind::kSsp ? staleness_ : 0);
  if (barrier_round >= 0 &&
      static_cast<size_t>(barrier_round) < round_finish_max_.size()) {
    start = std::max(start, round_finish_max_[barrier_round]);
  }
  return start;
}

size_t ConsistencyTracker::ExpectedPushes(int t) const {
  if (t < 0) return 0;
  // Every interval endpoint is a join round or a rounds_done, so no
  // more than leader_: later rounds count what round leader_ counts.
  return static_cast<size_t>(expected_[std::min(t, leader_)]);
}

void ConsistencyTracker::AddActiveRound(int round) {
  if (static_cast<size_t>(round) >= active_per_round_.size()) {
    active_per_round_.resize(round + 1, 0);
  }
  ++active_per_round_[round];
  if (num_active_ == 0 || round < min_round_) min_round_ = round;
  ++num_active_;
}

void ConsistencyTracker::RemoveActiveRound(int round) {
  --active_per_round_[round];
  --num_active_;
  if (num_active_ == 0) return;
  while (active_per_round_[min_round_] == 0) ++min_round_;
}

void ConsistencyTracker::AddParticipation(size_t w, int sign) {
  const int lo = join_round_[w];
  const int hi = active_[w] ? kNeverJoined : rounds_done_[w];
  if (lo == kNeverJoined || hi <= lo) return;
  AddExpected(lo, hi, sign);
}

void ConsistencyTracker::AddExpected(int lo, int hi, int sign) {
  auto bump = [this](int at, int64_t by) {
    if (static_cast<size_t>(at) >= expected_delta_.size()) {
      expected_delta_.resize(at + 1, 0);
    }
    expected_delta_[at] += by;
  };
  bump(lo, sign);
  if (hi != kNeverJoined) bump(hi, -sign);
  const size_t end = std::min(static_cast<size_t>(hi), expected_.size());
  for (size_t t = lo; t < end; ++t) expected_[t] += sign;
}

void ConsistencyTracker::ExtendExpected() {
  while (expected_.size() <= static_cast<size_t>(leader_)) {
    const size_t t = expected_.size();
    int64_t n = t == 0 ? 0 : expected_[t - 1];
    if (t < expected_delta_.size()) n += expected_delta_[t];
    expected_.push_back(n);
  }
}

void ConsistencyTracker::SetLeader(int round) {
  if (round <= leader_) return;
  leader_ = round;
  ExtendExpected();
}

}  // namespace mllibstar
