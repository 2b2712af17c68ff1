#include "core/prefetch_scheduler.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace fc::core {

namespace {

/// Resolves the batch tile cap's byte conversion: an explicit knob wins,
/// else a single-attribute estimate from the store's pyramid geometry (the
/// spec does not know the attribute count; underestimating only loosens the
/// byte cap, never the tile cap).
std::size_t ResolveBatchTileCap(const PrefetchSchedulerOptions& options,
                                storage::TileStore* store) {
  std::size_t nominal = options.nominal_tile_bytes;
  if (nominal == 0 && store != nullptr) {
    const auto& spec = store->spec();
    nominal = static_cast<std::size_t>(spec.tile_width) *
              static_cast<std::size_t>(spec.tile_height) * sizeof(double);
  }
  return storage::BatchTileCap(options.batch, nominal);
}

}  // namespace

PrefetchScheduler::PrefetchScheduler(storage::TileStore* store,
                                     Executor* executor,
                                     SharedTileCache* shared,
                                     PrefetchSchedulerOptions options)
    : store_(store),
      executor_(executor),
      shared_(shared),
      options_(options),
      batch_tile_cap_(ResolveBatchTileCap(options, store)) {
  FC_CHECK_MSG(store_ != nullptr, "PrefetchScheduler requires a tile store");
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  options_.fairness_share = std::clamp(options_.fairness_share, 0.0, 1.0);
  if (options_.metrics != nullptr) {
    batch_size_hist_ = options_.metrics->GetHistogram("fc.prefetch.batch_size");
    queue_wait_us_ = options_.metrics->GetHistogram("fc.prefetch.queue_wait_us");
    fill_latency_us_ =
        options_.metrics->GetHistogram("fc.prefetch.fill_latency_us");
  }
}

PrefetchScheduler::~PrefetchScheduler() { Shutdown(); }

std::uint64_t PrefetchScheduler::RegisterSession(std::uint64_t session_id,
                                                 Delivery deliver) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session_id == 0 || sessions_.count(session_id) > 0) {
    session_id = next_auto_id_++;
  }
  auto state = std::make_unique<SessionState>();
  state->deliver = std::move(deliver);
  sessions_.emplace(session_id, std::move(state));
  return session_id;
}

void PrefetchScheduler::SetSessionWeight(std::uint64_t session_id,
                                         double weight) {
  if (!(weight > 0.0)) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second->weight = weight;
}

void PrefetchScheduler::RescoreLocked(const tiles::TileKey& key, Entry& entry) {
  double aggregate = 0.0;
  double deadline = kNoDeadline;
  for (const auto& sub : entry.subs) {
    aggregate += sub.confidence;
    deadline = std::min(deadline, sub.deadline_ms);
  }
  entry.priority = aggregate * static_cast<double>(entry.subs.size());
  entry.deadline_ms = deadline;
  entry.stamp = ++stamp_counter_;
  heap_.push(HeapNode{entry.priority, entry.stamp, key});
  // The deadline heap only ever holds finite-deadline entries: an entry
  // nobody is waiting on urgently is reachable through the utility
  // backfill alone. Both heaps share the stamp, so this one push
  // invalidates any older node for the key in BOTH.
  if (DeadlineEnabledLocked() && deadline < kNoDeadline) {
    deadline_heap_.push(DeadlineNode{deadline, entry.stamp, key});
  }
}

void PrefetchScheduler::PopDeadlinesLocked(std::size_t budget, double now_ms,
                                           std::vector<PoppedEntry>& batch) {
  // Round-start top utility score, for promotion accounting. A lazy peek:
  // stale nodes encountered on the way are discarded for good.
  double top_priority = 0.0;
  bool have_top = false;
  while (!heap_.empty()) {
    const HeapNode& node = heap_.top();
    auto eit = pending_.find(node.key);
    if (eit == pending_.end() || eit->second.stamp != node.stamp) {
      heap_.pop();
      continue;
    }
    top_priority = node.priority;
    have_top = true;
    break;
  }
  // The earliest-deadline entries clearing the absolute utility bar.
  std::size_t popped = 0;
  while (popped < budget && !deadline_heap_.empty()) {
    const DeadlineNode node = deadline_heap_.top();
    deadline_heap_.pop();
    auto eit = pending_.find(node.key);
    if (eit == pending_.end() || eit->second.stamp != node.stamp) {
      continue;  // superseded score or retired entry
    }
    if (eit->second.priority < options_.deadline_utility_bar) {
      // Below the bar: never deadline-promoted; the entry still drains
      // through the utility backfill. Dropping the node outright is safe —
      // any future rescore pushes a fresh one.
      continue;
    }
    if (now_ms > node.deadline_ms) {
      // The window this entry was racing has closed: every subscriber
      // whose think time set the deadline has statistically moved on, so
      // spending the scarce EDF budget here would starve entries that can
      // still make their deadlines (under sustained overload the expired
      // backlog would otherwise consume the whole drain rate). Count the
      // miss and demote the entry to utility order, where supersession
      // sheds it if its subscribers really have moved on — and a session
      // still hovering on the tile re-arms a fresh deadline with its next
      // publish.
      ++stats_.deadline_misses;
      continue;
    }
    if (have_top && eit->second.priority < top_priority) {
      ++stats_.deadline_promotions;
    }
    batch.push_back(PoppedEntry{node.key, std::move(eit->second.subs),
                                eit->second.enqueue_ms});
    pending_.erase(eit);
    ++popped;
  }
}

void PrefetchScheduler::AccrueFairnessLocked(std::size_t budget) {
  // Pass 1: classic DRR resets a queue-empty session's credit (it is not
  // underserved — it has nothing to serve) and sizes the active pool.
  double total_weight = 0.0;
  for (auto& [session_id, state] : sessions_) {
    if (state->pending_keys.empty()) {
      state->deficit = 0.0;
    } else {
      total_weight += state->weight;
    }
  }
  if (total_weight <= 0.0) return;
  // Pass 2: the round reserves budget x share slots for the fairness
  // slice; each active session's claim on them is its weight share. A fill
  // serving the session (any pass) charges 1 back, so a session served at
  // or above its share hovers at / below zero and never claims a slot.
  const double reserved =
      static_cast<double>(budget) * options_.fairness_share;
  for (auto& [session_id, state] : sessions_) {
    if (state->pending_keys.empty()) continue;
    state->deficit += reserved * state->weight / total_weight;
  }
  // Fractional slots bank across rounds (share 0.25 at batch size 1 =
  // every fourth slot), capped at one full batch so an idle stretch or an
  // EDF-saturated streak cannot bank an unbounded burst.
  fairness_credit_ =
      std::min(fairness_credit_ + reserved,
               static_cast<double>(batch_tile_cap_));
}

std::size_t PrefetchScheduler::FairnessClaimLocked(std::size_t budget) const {
  const auto credit = static_cast<std::size_t>(fairness_credit_);
  if (credit == 0) return 0;
  double claims = 0.0;
  for (const auto& [session_id, state] : sessions_) {
    if (state->pending_keys.empty() || state->deficit <= 0.0) continue;
    claims += std::ceil(state->deficit);
    if (claims >= static_cast<double>(budget)) break;
  }
  return std::min({budget, credit, static_cast<std::size_t>(claims)});
}

void PrefetchScheduler::PopFairnessLocked(std::size_t budget,
                                          std::vector<PoppedEntry>& batch) {
  std::size_t slots =
      std::min(budget, static_cast<std::size_t>(fairness_credit_));
  if (slots == 0) return;
  // Round-start top utility score, for promotion accounting — the same
  // lazy peek PopDeadlinesLocked uses (discarded stale nodes stay gone).
  double top_priority = 0.0;
  bool have_top = false;
  while (!heap_.empty()) {
    const HeapNode& node = heap_.top();
    auto eit = pending_.find(node.key);
    if (eit == pending_.end() || eit->second.stamp != node.stamp) {
      heap_.pop();
      continue;
    }
    top_priority = node.priority;
    have_top = true;
    break;
  }
  // Shadow charges: fills already popped this round (the EDF pass) serve
  // their subscribers before any deficit is actually charged (that happens
  // once the whole batch is formed), so selection must count them here or
  // one session could sweep several slots on a single round's credit.
  std::unordered_map<std::uint64_t, double> charged;
  for (const auto& popped : batch) {
    for (const auto& sub : popped.subs) charged[sub.session_id] += 1.0;
  }
  // Sessions whose every pending key was already popped this round: their
  // pending_keys lists are only pruned at pin time, so they can look
  // serveable without a live entry left.
  std::unordered_set<std::uint64_t> exhausted;
  while (slots > 0) {
    // The most-underserved session: largest (shadow-adjusted) positive
    // deficit, ties to the smaller id for determinism.
    SessionState* best = nullptr;
    std::uint64_t best_id = 0;
    double best_deficit = 0.0;
    for (auto& [session_id, state] : sessions_) {
      if (state->pending_keys.empty() || exhausted.count(session_id) > 0) {
        continue;
      }
      const auto cit = charged.find(session_id);
      const double deficit =
          state->deficit - (cit == charged.end() ? 0.0 : cit->second);
      if (deficit <= 0.0) continue;
      if (best == nullptr || deficit > best_deficit ||
          (deficit == best_deficit && session_id < best_id)) {
        best = state.get();
        best_id = session_id;
        best_deficit = deficit;
      }
    }
    if (best == nullptr) break;  // nobody underserved: credit stays banked
    // Serve the winner's best pending entry — the highest-priority one, so
    // the guaranteed slot also buys the most aggregate utility (and the
    // most co-subscribers) the session can offer.
    const tiles::TileKey* best_key = nullptr;
    Entry* best_entry = nullptr;
    for (const auto& key : best->pending_keys) {
      auto eit = pending_.find(key);
      if (eit == pending_.end()) continue;  // popped earlier this round
      if (best_entry == nullptr ||
          eit->second.priority > best_entry->priority) {
        best_key = &key;
        best_entry = &eit->second;
      }
    }
    if (best_entry == nullptr) {
      exhausted.insert(best_id);
      continue;
    }
    ++stats_.fairness_picks;
    if (have_top && best_entry->priority < top_priority) {
      ++stats_.fairness_promotions;
    }
    for (const auto& sub : best_entry->subs) {
      charged[sub.session_id] += 1.0;
    }
    batch.push_back(PoppedEntry{*best_key, std::move(best_entry->subs),
                                best_entry->enqueue_ms});
    pending_.erase(*best_key);  // its heap nodes are skipped by stamp at pop
    fairness_credit_ -= 1.0;
    --slots;
  }
}

void PrefetchScheduler::InvalidateLocked(SessionState& state,
                                         std::uint64_t session_id) {
  for (const auto& key : state.pending_keys) {
    auto eit = pending_.find(key);
    // pending_keys tracks only still-pending entries (DrainOne removes a
    // popped key from every subscriber's list), so the entry must exist.
    auto& subs = eit->second.subs;
    for (auto sit = subs.begin(); sit != subs.end(); ++sit) {
      if (sit->session_id == session_id) {
        subs.erase(sit);
        break;
      }
    }
    ++stats_.stale_drops;
    ++stats_.dedup_saved_fetches;
    if (subs.empty()) {
      pending_.erase(eit);  // its heap nodes are skipped by stamp at pop
    } else {
      RescoreLocked(key, eit->second);  // the merged priority decays
    }
  }
  if (shared_ != nullptr && !state.pending_keys.empty()) {
    shared_->NoteStaleDrops(state.pending_keys.size());
  }
  state.pending_keys.clear();
}

void PrefetchScheduler::SpawnWorkersLocked() {
  if (executor_ == nullptr || shutdown_) return;
  while (workers_ < options_.max_in_flight && workers_ < pending_.size()) {
    ++workers_;
    if (!executor_->Submit([this] { WorkerLoop(); })) {
      --workers_;  // executor already shut down; entries stay queued
      break;
    }
  }
}

void PrefetchScheduler::WorkerLoop() {
  for (;;) {
    if (DrainOne()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    // Re-check under the lock: an entry published between DrainOne's
    // empty verdict and here would otherwise strand until the next Publish.
    if (pending_.empty() || shutdown_) {
      --workers_;
      cv_.notify_all();
      return;
    }
  }
}

void PrefetchScheduler::Publish(std::uint64_t session_id,
                                std::uint64_t generation,
                                std::vector<PrefetchCandidate> candidates,
                                double think_ms, std::uint64_t trace_id) {
  // Residency probe BEFORE the scheduler lock: one shard-locked Lookup per
  // candidate, on the publishing session's own thread. The Lookup both
  // captures already-resident tiles for immediate delivery (no second
  // probe, no lost-to-eviction window) and feeds the admission frequency
  // model with this session's predicted intent. Publishers must never
  // serialize on mu_ for per-candidate shard work — Publish runs inside
  // every HandleRequest.
  std::vector<tiles::TilePtr> resident(candidates.size());
  if (shared_ != nullptr) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      resident[i] = shared_->Lookup(
          candidates[i].key,
          CacheAccess{session_id, candidates[i].confidence});
    }
  }

  SessionState* state = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;  // unknown session: nothing published
    state = it->second.get();
    // Supersede the previous publication before anything else: its
    // unfilled predictions are about a position the user has moved past.
    InvalidateLocked(*state, session_id);
    state->generation = generation;
    if (shutdown_ || state->unregistering) {
      // Retired on arrival; counted so the books still balance.
      stats_.predictions_published += candidates.size();
      stats_.dedup_saved_fetches += candidates.size();
      stats_.stale_drops += candidates.size();
      if (shared_ != nullptr) shared_->NoteStaleDrops(candidates.size());
      return;
    }
    // Every subscription of this publication shares one deadline: the
    // session statistically moves again think_ms from now. Free when
    // deadline scheduling is off (sub_deadline stays kNoDeadline and the
    // deadline heap is never touched).
    double sub_deadline = kNoDeadline;
    if (DeadlineEnabledLocked() && think_ms > 0.0) {
      sub_deadline = options_.clock->NowMillis() + think_ms;
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const PrefetchCandidate& candidate = candidates[i];
      ++stats_.predictions_published;
      if (resident[i] != nullptr) {
        // Already in process memory: no fill to schedule. Still delivered
        // (below) so the session's private region fills like the paper's.
        ++stats_.already_resident;
        ++stats_.dedup_saved_fetches;
        continue;
      }
      auto [eit, fresh] = pending_.try_emplace(candidate.key);
      Entry& entry = eit->second;
      if (fresh && options_.clock != nullptr) {
        entry.enqueue_ms = options_.clock->NowMillis();
      }
      bool own = false;
      for (const auto& sub : entry.subs) {
        if (sub.session_id == session_id) {  // duplicate key in one list
          own = true;
          break;
        }
      }
      if (own) {
        ++stats_.merged_predictions;
        ++stats_.dedup_saved_fetches;
        continue;
      }
      entry.subs.push_back(Subscription{session_id, generation,
                                        candidate.confidence, sub_deadline,
                                        trace_id});
      if (!fresh) ++stats_.merged_predictions;
      state->pending_keys.push_back(candidate.key);
      RescoreLocked(candidate.key, entry);
    }
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth, pending_.size());
    SpawnWorkersLocked();
  }

  std::size_t delivered = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (resident[i] == nullptr) continue;
    // Safe outside the lock: sessions are single-threaded by contract, so
    // nothing unregisters `state` while its own Publish is running.
    state->deliver(candidates[i].key, resident[i], generation);
    ++delivered;
  }
  if (delivered > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deliveries += delivered;
  }
}

bool PrefetchScheduler::DrainOne() {
  std::vector<PoppedEntry> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return false;
    const double now_ms =
        options_.clock != nullptr ? options_.clock->NowMillis() : 0.0;
    const std::size_t budget = std::min(pending_.size(), batch_tile_cap_);
    if (FairnessEnabledLocked()) AccrueFairnessLocked(budget);
    if (DeadlineEnabledLocked()) {
      // Earliest-deadline-first pass: the most urgent above-the-bar
      // entries claim the batch before utility order gets a say — minus
      // whatever the fairness slice has banked claims for. Under
      // saturation EDF would otherwise fill every slot of every round
      // (all the hot entries carry deadlines) and the guaranteed share
      // would never be paid. Whatever budget remains backfills below in
      // plain utility order.
      std::size_t edf_budget = budget;
      if (FairnessEnabledLocked()) edf_budget -= FairnessClaimLocked(budget);
      if (edf_budget > 0) PopDeadlinesLocked(edf_budget, now_ms, batch);
    }
    if (FairnessEnabledLocked() && batch.size() < budget) {
      // Fairness slice: after EDF (urgency outranks the floor — a missed
      // deadline is unrecoverable, a delayed share is not), before utility
      // order (or the floor would only ever serve the popular sessions).
      PopFairnessLocked(budget - batch.size(), batch);
    }
    // Utility order fills the rest of the batch.
    while (batch.size() < budget && !heap_.empty()) {
      HeapNode node = heap_.top();
      heap_.pop();
      auto eit = pending_.find(node.key);
      if (eit == pending_.end() || eit->second.stamp != node.stamp) {
        continue;  // superseded score or retired entry: lazy invalidation
      }
      batch.push_back(PoppedEntry{node.key, std::move(eit->second.subs),
                                  eit->second.enqueue_ms});
      pending_.erase(eit);
    }
    if (batch.empty()) return false;
    for (const auto& popped : batch) {
      for (const auto& sub : popped.subs) {
        auto sit = sessions_.find(sub.session_id);
        if (sit == sessions_.end()) continue;
        auto& keys = sit->second->pending_keys;
        auto kit = std::find(keys.begin(), keys.end(), popped.key);
        if (kit != keys.end()) keys.erase(kit);
        if (FairnessEnabledLocked()) {
          // Every fill serving this session repays its share claim,
          // whichever pass popped it. Floored just below zero so a
          // popular session cannot amass unbounded debt and then be
          // locked out for an era once its co-subscribers drop away.
          sit->second->deficit = std::max(sit->second->deficit - 1.0, -1.0);
        }
        // Pins the session (and its Delivery) until this fill settles.
        ++sit->second->in_flight;
      }
    }
    in_flight_fills_ += batch.size();
    if (batch_size_hist_ != nullptr) batch_size_hist_->Record(batch.size());
    if (queue_wait_us_ != nullptr && options_.clock != nullptr) {
      for (const auto& popped : batch) {
        if (popped.enqueue_ms < 0.0) continue;  // published clockless
        queue_wait_us_->Record(static_cast<std::uint64_t>(std::llround(
            std::max(now_ms - popped.enqueue_ms, 0.0) * 1000.0)));
      }
    }
  }

  // The fetch runs outside the scheduler lock: a slow DBMS query must not
  // block publishers or the other drain workers. The whole batch travels
  // in ONE backend round trip (FetchBatch under the cache landing).
  struct KeyOutcome {
    tiles::TilePtr tile;
    bool fetched = false;
    bool ok = true;
  };
  // Fill latency is timed per ROUND TRIP (the thing the backend charges
  // for), on the scheduler's clock; trace stamps ride the sink's clock so
  // they compose with the request-side spans.
  const double fetch_start_ms =
      options_.clock != nullptr ? options_.clock->NowMillis() : 0.0;
  const double trace_start_ms =
      options_.trace != nullptr ? options_.trace->NowMillis() : 0.0;
  std::vector<KeyOutcome> outcomes(batch.size());
  if (shared_ != nullptr) {
    std::vector<SharedTileCache::SharedBatchItem> items;
    items.reserve(batch.size());
    for (const auto& popped : batch) {
      SharedTileCache::SharedBatchItem item;
      item.key = popped.key;
      item.subscribers.reserve(popped.subs.size());
      for (const auto& sub : popped.subs) {
        item.subscribers.push_back(CacheAccess{sub.session_id, sub.confidence});
      }
      items.push_back(std::move(item));
    }
    auto results = shared_->GetOrFetchSharedBatch(items, store_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (results[i].ok()) {
        outcomes[i].tile = results[i]->tile;
        outcomes[i].fetched = results[i]->fetched;
      } else {
        outcomes[i].ok = false;
      }
    }
  } else {
    std::vector<tiles::TileKey> keys;
    keys.reserve(batch.size());
    for (const auto& popped : batch) keys.push_back(popped.key);
    auto results = store_->FetchBatch(keys);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (results[i].ok()) {
        outcomes[i].tile = std::move(*results[i]);
        outcomes[i].fetched = true;
      } else {
        outcomes[i].ok = false;
      }
    }
  }
  if (fill_latency_us_ != nullptr && options_.clock != nullptr) {
    fill_latency_us_->Record(static_cast<std::uint64_t>(std::llround(
        std::max(options_.clock->NowMillis() - fetch_start_ms, 0.0) *
        1000.0)));
  }
  if (options_.trace != nullptr) {
    // One prefetch.fetch span per batch entry a sampled request is
    // subscribed to, attributed to that request's trace. Entries no
    // sampled request cares about record nothing.
    const double trace_end_ms = options_.trace->NowMillis();
    for (const auto& popped : batch) {
      for (const auto& sub : popped.subs) {
        if (sub.trace_id == 0) continue;
        options_.trace->Record(telemetry::TraceEvent{
            sub.trace_id, sub.session_id, "prefetch.fetch", trace_start_ms,
            trace_end_ms});
        break;  // one span per entry: the first sampled subscriber owns it
      }
    }
  }

  // Classify each retirement and collect still-current delivery targets.
  struct Delivery {
    SessionState* session;
    std::size_t index;  ///< Into batch/outcomes.
    std::uint64_t generation;
  };
  std::vector<Delivery> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t fetch_attempts = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& subs = batch[i].subs;
      if (outcomes[i].fetched || !outcomes[i].ok) {
        // One subscription pays for the (attempted) fetch; the rest merged.
        ++stats_.fills_issued;
        ++fetch_attempts;
        if (!outcomes[i].ok) ++stats_.fill_failures;
        stats_.dedup_saved_fetches += subs.size() - 1;
      } else {
        // Resident by fill time (e.g. a demand fetch landed it): nobody
        // pays.
        stats_.dedup_saved_fetches += subs.size();
      }
      if (!outcomes[i].ok) continue;
      for (const auto& sub : subs) {
        auto sit = sessions_.find(sub.session_id);
        if (sit == sessions_.end()) continue;
        SessionState& session = *sit->second;
        if (!session.unregistering && session.generation == sub.generation) {
          targets.push_back(Delivery{&session, i, sub.generation});
        }
      }
    }
    if (fetch_attempts > 0) {
      ++stats_.fetch_batches;
      if (fetch_attempts > 1) stats_.batched_fills += fetch_attempts;
    }
  }
  // Deliveries outside the lock: they take the receiving CacheManager's
  // region lock. The in_flight pins taken at pop keep every SessionState
  // alive until the settle step below, even for skipped targets.
  for (const auto& target : targets) {
    target.session->deliver(batch[target.index].key,
                            outcomes[target.index].tile, target.generation);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deliveries += targets.size();
    for (const auto& popped : batch) {
      for (const auto& sub : popped.subs) {
        auto sit = sessions_.find(sub.session_id);
        if (sit != sessions_.end() && sit->second->in_flight > 0) {
          --sit->second->in_flight;
        }
      }
    }
    in_flight_fills_ -= batch.size();
    cv_.notify_all();
  }
  return true;
}

void PrefetchScheduler::CancelSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  SessionState& state = *it->second;
  InvalidateLocked(state, session_id);
  cv_.wait(lock, [&state] { return state.in_flight == 0; });
}

void PrefetchScheduler::UnregisterSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  SessionState& state = *it->second;
  state.unregistering = true;  // in-flight fills skip delivery from now on
  InvalidateLocked(state, session_id);
  cv_.wait(lock, [&state] { return state.in_flight == 0; });
  sessions_.erase(session_id);
}

void PrefetchScheduler::WaitForSession(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  SessionState& state = *it->second;
  cv_.wait(lock, [&state] {
    return state.pending_keys.empty() && state.in_flight == 0;
  });
}

void PrefetchScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [this] { return pending_.empty() && in_flight_fills_ == 0; });
}

void PrefetchScheduler::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  // Retire every pending subscription: the delivery targets are about to
  // be destroyed, and a fill nobody will receive is pure waste.
  for (auto& [session_id, state] : sessions_) {
    InvalidateLocked(*state, session_id);
  }
  heap_ = {};
  deadline_heap_ = {};
  FC_CHECK_MSG(pending_.empty(), "pending entry with no live subscription");
  // Wake WaitForSession callers whose subscriptions were just retired —
  // this is the only site that invalidates on behalf of OTHER sessions.
  cv_.notify_all();
  cv_.wait(lock, [this] { return workers_ == 0 && in_flight_fills_ == 0; });
}

std::size_t PrefetchScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

PrefetchSchedulerStats PrefetchScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<PrefetchQueueEntry> PrefetchScheduler::SnapshotQueue() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PrefetchQueueEntry> snapshot;
  snapshot.reserve(pending_.size());
  for (const auto& [key, entry] : pending_) {
    double aggregate = 0.0;
    for (const auto& sub : entry.subs) aggregate += sub.confidence;
    snapshot.push_back(PrefetchQueueEntry{key, entry.priority, aggregate,
                                          entry.subs.size(), entry.enqueue_ms,
                                          entry.deadline_ms});
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const PrefetchQueueEntry& a, const PrefetchQueueEntry& b) {
              return a.priority > b.priority;
            });
  return snapshot;
}

std::uint64_t RegisterPrefetchSchedulerMetrics(
    telemetry::MetricsRegistry* registry, const PrefetchScheduler* scheduler) {
  return registry->AddSource([scheduler](telemetry::SnapshotSink& sink) {
    const PrefetchSchedulerStats s = scheduler->Stats();
    sink.AddCounter("fc.prefetch.predictions_published",
                    s.predictions_published);
    sink.AddCounter("fc.prefetch.merged_predictions", s.merged_predictions);
    sink.AddCounter("fc.prefetch.already_resident", s.already_resident);
    sink.AddCounter("fc.prefetch.fills_issued", s.fills_issued);
    sink.AddCounter("fc.prefetch.fill_failures", s.fill_failures);
    sink.AddCounter("fc.prefetch.dedup_saved_fetches", s.dedup_saved_fetches);
    sink.AddCounter("fc.prefetch.stale_drops", s.stale_drops);
    sink.AddCounter("fc.prefetch.deliveries", s.deliveries);
    sink.AddCounter("fc.prefetch.fetch_batches", s.fetch_batches);
    sink.AddCounter("fc.prefetch.batched_fills", s.batched_fills);
    sink.AddCounter("fc.prefetch.deadline_promotions", s.deadline_promotions);
    sink.AddCounter("fc.prefetch.deadline_misses", s.deadline_misses);
    sink.AddCounter("fc.prefetch.fairness_picks", s.fairness_picks);
    sink.AddCounter("fc.prefetch.fairness_promotions", s.fairness_promotions);
    sink.AddGauge("fc.prefetch.max_queue_depth",
                  static_cast<double>(s.max_queue_depth));
    sink.AddGauge("fc.prefetch.pending",
                  static_cast<double>(scheduler->pending()));
  });
}

}  // namespace fc::core
