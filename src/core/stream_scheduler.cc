#include "core/stream_scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fc::core {

bool StreamScheduler::JobRank::operator<(const JobRank& other) const {
  if (usable != other.usable) return usable;
  if (utility_per_byte != other.utility_per_byte) {
    return utility_per_byte > other.utility_per_byte;
  }
  return seq < other.seq;
}

StreamScheduler::StreamScheduler(Executor* executor,
                                 StreamSchedulerOptions options)
    : executor_(executor), options_(options), codec_(options.codec) {
  total_tokens_ = static_cast<double>(options_.total_burst_bytes);
  if (options_.metrics != nullptr) {
    ttfu_us_ = options_.metrics->GetHistogram("fc.stream.ttfu_us");
  }
}

StreamScheduler::~StreamScheduler() { Shutdown(); }

std::uint64_t StreamScheduler::RegisterSession(std::uint64_t session_id,
                                               ChunkSink sink) {
  auto state = std::make_unique<SessionState>();
  state->sink = std::move(sink);
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.Add(session_id, std::move(state));
}

void StreamScheduler::UnregisterSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  sessions_.Unregister(lock, cv_, session_id, [&](SessionState&) {
    DropSessionLocked(session_id);
  });
}

void StreamScheduler::CancelSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  sessions_.Cancel(lock, cv_, session_id, [&](SessionState&) {
    DropSessionLocked(session_id);
  });
}

void StreamScheduler::DropSessionLocked(std::uint64_t session_id) {
  const SessionState* state = sessions_.Find(session_id);
  if (state == nullptr || state->queued_chunks == 0) return;
  for (auto job = jobs_.begin(); job != jobs_.end();) {
    if (job->second.session_id == session_id) {
      job = DropLocked(job, &stats_.stale_chunks_dropped);
    } else {
      ++job;
    }
  }
}

void StreamScheduler::CancelStaleGenerations(std::uint64_t session_id,
                                             std::uint64_t live_generation) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionState* state = sessions_.Find(session_id);
  // Every queued chunk belongs to a registered session (SubmitTile queues
  // only for one, and unregistering drops its chunks first).
  if (state == nullptr) return;
  state->live_generation = live_generation;
  if (state->queued_chunks == 0) return;
  for (auto job = jobs_.begin(); job != jobs_.end();) {
    if (job->second.session_id == session_id &&
        job->second.generation != live_generation) {
      job = DropLocked(job, &stats_.stale_chunks_dropped);
    } else {
      ++job;
    }
  }
}

void StreamScheduler::SubmitTile(std::uint64_t session_id,
                                 const tiles::TileKey& key,
                                 const tiles::TilePtr& tile,
                                 std::uint64_t generation, double confidence,
                                 std::uint64_t trace_id) {
  if (tile == nullptr) return;

  // Plan before the lock: one pass over the cells (or a memo hit) prices
  // the chunks and computes their payloads, with no bytes produced. The
  // usable chunk's rank divides by the ALL-OR-NOTHING payload size in both
  // modes, so the progressive schedule visits tiles in exactly the order
  // the all-or-nothing one would (see header notes).
  bool computed = false;
  storage::ProgressivePlan plan = PlanFor(tile, &computed);
  // A confidence that is not positive ranks as 0, NaN included: a NaN rank
  // would compare equal to every other and break the queue's order.
  const double utility = confidence > 0.0 ? confidence : 0.0;
  const double usable_rank = utility / static_cast<double>(plan.full_bytes);
  const std::uint64_t chunks = plan.one_chunk() ? 1 : 2;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tiles_submitted;
  if (computed) ++stats_.plans_computed;
  stats_.chunks_enqueued += chunks;
  SessionState* state = sessions_.Find(session_id);
  if (shutdown_ || state == nullptr || state->unregistering ||
      generation < state->live_generation) {
    // Retired on arrival; counted so the books still balance. An older
    // generation lands here when its fill was delivered just before the
    // CancelStaleGenerations that superseded it (the prefetch scheduler
    // checks the generation under its own lock, then delivers outside it).
    stats_.stale_chunks_dropped += chunks;
    return;
  }
  const double now = options_.clock != nullptr ? options_.clock->NowMillis()
                                               : kNoEnqueueStamp;

  ChunkJob base;
  base.session_id = session_id;
  base.key = key;
  base.generation = generation;
  base.exact = plan.one_chunk();
  base.bytes = plan.base_bytes;
  base.enqueue_ms = now;
  base.trace_id = trace_id;
  base.payload = std::move(plan.coarse);
  const JobRank base_rank{true, usable_rank, ++seq_counter_};

  if (!plan.one_chunk()) {
    ChunkJob refine;
    refine.session_id = session_id;
    refine.key = key;
    refine.generation = generation;
    refine.exact = true;
    refine.awaiting_base = true;
    refine.bytes = plan.refinement_bytes;
    refine.enqueue_ms = now;
    refine.trace_id = trace_id;
    refine.payload = std::move(plan.exact);
    // The base finds its refinement by this key when it is pushed or
    // dropped.
    base.refinement = JobRank{
        false, utility / static_cast<double>(plan.refinement_bytes),
        ++seq_counter_};
    jobs_.emplace(base.refinement, std::move(refine));
  }
  jobs_.emplace(base_rank, std::move(base));
  state->queued_chunks += chunks;
  SpawnPumpLocked();
}

storage::ProgressivePlan StreamScheduler::PlanFor(const tiles::TilePtr& tile,
                                                  bool* computed) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(tile.get());
    // While the memoized tile lives it occupies this address, so it is the
    // submitted tile; once dead, the address may hold a new one.
    if (it != memo_.end() && !it->second.tile.expired()) {
      storage::ProgressivePlan plan = it->second.plan;
      if (plan.coarse == nullptr) plan.coarse = tile;
      if (plan.exact == nullptr) plan.exact = tile;
      return plan;
    }
  }

  storage::ProgressivePlan plan =
      codec_.PlanProgressive(tile, options_.progressive);
  *computed = true;
  PlanMemoEntry entry;
  entry.tile = tile;
  entry.plan = plan;
  if (plan.exact == tile) {
    entry.plan.exact = nullptr;
  } else {
    entry.bytes += plan.exact->SizeBytes();
  }
  if (plan.coarse == tile) {
    entry.plan.coarse = nullptr;
  } else if (plan.coarse != plan.exact) {
    entry.bytes += plan.coarse->SizeBytes();
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  MemoizeLocked(tile, std::move(entry));
  return plan;
}

void StreamScheduler::MemoizeLocked(const tiles::TilePtr& tile,
                                    PlanMemoEntry entry) {
  // A dead tile's entry at this address, or a concurrent miss's.
  if (auto old = memo_.find(tile.get()); old != memo_.end()) {
    memo_bytes_ -= old->second.bytes;
    memo_.erase(old);
  }
  if (memo_.size() >= memo_sweep_at_) {
    std::erase_if(memo_, [this](const auto& item) {
      if (!item.second.tile.expired()) return false;
      memo_bytes_ -= item.second.bytes;
      return true;
    });
    memo_sweep_at_ = std::max(kPlanMemoMinSweep, 2 * memo_.size());
  }
  if (entry.bytes > kPlanMemoBytes) return;
  if (memo_bytes_ + entry.bytes > kPlanMemoBytes) {
    memo_.clear();
    memo_bytes_ = 0;
  }
  memo_bytes_ += entry.bytes;
  memo_.emplace(tile.get(), std::move(entry));
}

void StreamScheduler::RefillBudgetLocked(double now_ms) {
  if (!(options_.total_bytes_per_ms > 0.0)) return;
  if (total_last_refill_ms_ < 0.0) total_last_refill_ms_ = now_ms;
  double earned =
      (now_ms - total_last_refill_ms_) * options_.total_bytes_per_ms;
  if (earned > 0.0) {
    total_tokens_ = std::min(static_cast<double>(options_.total_burst_bytes),
                             total_tokens_ + earned);
  }
  total_last_refill_ms_ = now_ms;
}

void StreamScheduler::ExpireLocked(double now_ms) {
  if (!(options_.max_chunk_age_ms > 0.0)) return;
  for (auto job = jobs_.begin(); job != jobs_.end();) {
    if (now_ms - job->second.enqueue_ms > options_.max_chunk_age_ms) {
      job = DropLocked(job, &stats_.expired_chunks_dropped);
    } else {
      ++job;
    }
  }
}

bool StreamScheduler::EligibleLocked(const ChunkJob& job,
                                     const SessionState& state) const {
  if (state.unregistering || job.awaiting_base) return false;
  // Unmetered without a rate, or without the time source it needs.
  if (options_.clock == nullptr || !(options_.total_bytes_per_ms > 0.0)) {
    return true;
  }
  const double bytes = static_cast<double>(job.bytes);
  const double burst = static_cast<double>(options_.total_burst_bytes);
  // An oversized chunk (bytes > burst) goes out at a full bucket, driving
  // the balance negative — it stalls but never deadlocks.
  return total_tokens_ >= bytes || (bytes > burst && total_tokens_ >= burst);
}

StreamScheduler::JobQueue::iterator StreamScheduler::SelectLocked(
    SessionState** session) {
  // The queue is in push order, so the first eligible chunk is the best.
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    SessionState* state = sessions_.Find(it->second.session_id);
    if (state != nullptr && EligibleLocked(it->second, *state)) {
      *session = state;
      return it;
    }
  }
  return jobs_.end();
}

StreamScheduler::JobQueue::iterator StreamScheduler::DropLocked(
    JobQueue::iterator it, std::uint64_t* counter) {
  SessionState* state = sessions_.Find(it->second.session_id);
  std::size_t dropped = 1;
  // A dropped base strands its gated refinement — a refinement can never
  // apply to a base the client did not receive — so the pair goes
  // together. The refinement ranks below its base, so an iteration in
  // queue order has not reached it yet.
  if (!it->second.exact) {
    if (auto refinement = jobs_.find(it->second.refinement);
        refinement != jobs_.end()) {
      jobs_.erase(refinement);
      ++dropped;
    }
  }
  *counter += dropped;
  if (state != nullptr) state->queued_chunks -= dropped;
  return jobs_.erase(it);
}

std::size_t StreamScheduler::Pump() {
  std::vector<ReadyChunk> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return 0;
    const double now = options_.clock != nullptr
                           ? options_.clock->NowMillis()
                           : kNoEnqueueStamp;
    if (options_.clock != nullptr) {
      RefillBudgetLocked(now);
      ExpireLocked(now);
    }
    const bool had_work = !jobs_.empty();
    while (ready.size() < kMaxPumpChunks) {
      SessionState* state = nullptr;
      auto it = SelectLocked(&state);
      if (it == jobs_.end()) break;
      ChunkJob& job = it->second;
      if (options_.clock != nullptr && options_.total_bytes_per_ms > 0.0) {
        total_tokens_ -= static_cast<double>(job.bytes);
      }
      if (!job.exact) {
        // The base is on its way: its refinement becomes eligible (and is
        // pushed after it — ready keeps pick order).
        if (auto refinement = jobs_.find(job.refinement);
            refinement != jobs_.end()) {
          refinement->second.awaiting_base = false;
        }
      }
      ++stats_.chunks_pushed;
      stats_.bytes_pushed += job.bytes;
      if (job.exact) {
        ++stats_.exact_chunks_pushed;
      } else {
        ++stats_.base_chunks_pushed;
      }
      if (it->first.usable) {
        ++stats_.first_usable_pushes;
        // Submit-to-usable-push wait, on the scheduler's clock.
        if (ttfu_us_ != nullptr && options_.clock != nullptr) {
          ttfu_us_->Record(static_cast<std::uint64_t>(std::llround(
              std::max(now - job.enqueue_ms, 0.0) * 1000.0)));
        }
      }
      ++state->in_flight;
      ++in_flight_pushes_;
      ReadyChunk chunk;
      chunk.session = state;
      chunk.key = job.key;
      chunk.payload = std::move(job.payload);
      chunk.exact = job.exact;
      chunk.generation = job.generation;
      chunk.session_id = job.session_id;
      chunk.trace_id = job.trace_id;
      chunk.push_start_ms =
          options_.trace != nullptr && job.trace_id != 0
              ? options_.trace->NowMillis()
              : 0.0;
      ready.push_back(std::move(chunk));
      jobs_.erase(it);
      --state->queued_chunks;
    }
    if (had_work && ready.empty() && !jobs_.empty()) ++stats_.budget_stalls;
  }

  for (const ReadyChunk& chunk : ready) {
    chunk.session->sink(chunk.key, chunk.payload, chunk.exact,
                        chunk.generation);
    if (options_.trace != nullptr && chunk.trace_id != 0) {
      // The span covers selection through the sink handing the chunk to
      // the session — the push itself, attributed to the publishing
      // request's trace.
      options_.trace->Record(telemetry::TraceEvent{
          chunk.trace_id, chunk.session_id, "stream.push",
          chunk.push_start_ms, options_.trace->NowMillis()});
    }
  }

  if (!ready.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ReadyChunk& chunk : ready) --chunk.session->in_flight;
    in_flight_pushes_ -= ready.size();
    cv_.notify_all();
  }
  return ready.size();
}

std::size_t StreamScheduler::Flush() {
  std::size_t total = 0;
  for (;;) {
    std::size_t pushed = Pump();
    if (pushed == 0) return total;
    total += pushed;
  }
}

void StreamScheduler::SpawnPumpLocked() {
  if (executor_ == nullptr || pump_armed_ || shutdown_ || jobs_.empty()) {
    return;
  }
  pump_armed_ = true;
  bool accepted = executor_->Submit([this] {
    while (Pump() > 0) {
    }
    std::lock_guard<std::mutex> lock(mu_);
    pump_armed_ = false;
    cv_.notify_all();
  });
  if (!accepted) pump_armed_ = false;
}

void StreamScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  stats_.stale_chunks_dropped += jobs_.size();
  jobs_.clear();
  for (auto& [id, state] : sessions_) state->queued_chunks = 0;
  cv_.wait(lock, [&] { return in_flight_pushes_ == 0 && !pump_armed_; });
}

std::size_t StreamScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

std::size_t StreamScheduler::queued(std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const SessionState* state = sessions_.Find(session_id);
  return state != nullptr ? state->queued_chunks : 0;
}

StreamSchedulerStats StreamScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<StreamChunkInfo> StreamScheduler::SnapshotQueue() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamChunkInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [rank, job] : jobs_) {
    StreamChunkInfo info;
    info.session_id = job.session_id;
    info.key = job.key;
    info.generation = job.generation;
    info.exact = job.exact;
    info.bytes = job.bytes;
    info.utility_per_byte = rank.utility_per_byte;
    info.enqueue_ms = job.enqueue_ms;
    out.push_back(info);
  }
  return out;
}

std::uint64_t RegisterStreamSchedulerMetrics(
    telemetry::MetricsRegistry* registry, const StreamScheduler* scheduler) {
  return registry->AddSource([scheduler](telemetry::SnapshotSink& sink) {
    const StreamSchedulerStats s = scheduler->Stats();
    sink.AddCounter("fc.stream.tiles_submitted", s.tiles_submitted);
    sink.AddCounter("fc.stream.plans_computed", s.plans_computed);
    sink.AddCounter("fc.stream.chunks_enqueued", s.chunks_enqueued);
    sink.AddCounter("fc.stream.chunks_pushed", s.chunks_pushed);
    sink.AddCounter("fc.stream.base_chunks_pushed", s.base_chunks_pushed);
    sink.AddCounter("fc.stream.exact_chunks_pushed", s.exact_chunks_pushed);
    sink.AddCounter("fc.stream.bytes_pushed", s.bytes_pushed);
    sink.AddCounter("fc.stream.first_usable_pushes", s.first_usable_pushes);
    sink.AddCounter("fc.stream.stale_chunks_dropped", s.stale_chunks_dropped);
    sink.AddCounter("fc.stream.expired_chunks_dropped",
                    s.expired_chunks_dropped);
    sink.AddCounter("fc.stream.budget_stalls", s.budget_stalls);
    sink.AddGauge("fc.stream.queued", static_cast<double>(scheduler->queued()));
  });
}

}  // namespace fc::core
