// PrefetchScheduler: the process-wide, cross-session prefetch queue.
//
// The paper's client prefetches its own ranked tile list; one process
// serving many concurrent users cannot afford that — N sessions predicting
// the same tile would schedule N independent fills, and executor threads
// burn on duplicate, low-aggregate-value work. Following the server-side
// scheduling argument of Continuous Prefetch (Khameleon) and Kyrix's
// centralized tile serving, sessions publish their ranked predictions here
// instead of submitting fills directly, and one shared priority queue
// decides what the executor fetches next:
//
//  * One pending entry per tile key. A prediction for a tile already
//    pending MERGES into the existing entry (counted in
//    merged_predictions) instead of queueing a second fill.
//  * Priority = (sum of subscribed confidences) x (number of distinct
//    subscribed sessions), re-scored on every merge and every decay — the
//    tiles the most users are most certain to need next are fetched first.
//  * Generation-based invalidation: each Publish supersedes the session's
//    previous publication, so predictions from a request the user has
//    already moved past decay out of the queue (stale_drops) instead of
//    blocking it.
//  * A completed fill lands ONCE in the shared cache — with the AGGREGATE
//    confidence driving priority admission and every subscriber's interest
//    feeding the admission frequency sketch — and is then delivered to
//    every still-subscribed session's private prefetch region.
//  * Batched backend I/O (storage/batch_fetch.h): a drain round pops the
//    TOP-K pending entries — the scheduler sees the global priority order,
//    so batch formation happens here — and fetches them in ONE backend
//    round trip, amortizing the DBMS's fixed per-query overhead across the
//    batch. The default profile (1 tile/round trip) is the per-tile drain.
//  * Deadline-aware draining (opt-in, PrefetchSchedulerOptions::
//    deadline_aware): pure utility order starves a session whose
//    predictions are persistently outvoted — its low-aggregate entries sit
//    behind every merged hot entry for the whole saturation episode. The
//    paper models user think time explicitly: a fill that lands after the
//    session's next move is worthless no matter how cheap it was. So each
//    Publish may carry the session's estimated think time; the entry's
//    deadline is the earliest deadline of its live subscriptions, and the
//    drain serves entries earliest-deadline-first among those whose utility
//    clears an absolute bar (deadline_utility_bar), topping the batch up in
//    plain utility order afterwards. This bounds per-session staleness
//    while keeping the dedup win; deadline_promotions / deadline_misses
//    count entries served ahead of higher-utility work and entries popped
//    past their deadline.
//  * Per-session fairness shares (opt-in, PrefetchSchedulerOptions::
//    fairness_share): deadlines bound staleness per ENTRY, not per
//    session — a session whose entries sit below the utility bar, or that
//    loses every tie at it, can still be starved for a whole saturation
//    episode. Following Khameleon's argument that the server must allocate
//    the shared fill channel across SESSIONS, a weighted deficit-round-
//    robin layer reserves a configurable fraction of each drain round's
//    slots: every drained fill charges the deficit counters of the
//    sessions it serves, sessions with pending work accrue credit in
//    proportion to their weight (SetSessionWeight, default 1), and the
//    reserved slice serves the most-underserved session's best pending
//    entry. The slice runs AFTER the earliest-deadline pass and BEFORE the
//    utility backfill, so EDF urgency, the fairness floor, and utility
//    throughput compose in that order. Defaults (fairness_share = 0) keep
//    the drain order bit-identical to the share-free scheduler.
//
// Accounting invariant (drained queue, see Stats()):
//   fills_issued + dedup_saved_fetches == predictions_published.
//
// Thread-safety: all methods are thread-safe. One mutex guards the queue,
// the session registry (core/session_registry.h), and the counters; DBMS
// fetches and region deliveries run outside it, pinning their sessions.
// Lock order is scheduler mutex -> cache shard mutex; the scheduler never
// calls back into itself from a delivery.

#ifndef FORECACHE_CORE_PREFETCH_SCHEDULER_H_
#define FORECACHE_CORE_PREFETCH_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/trace.h"
#include "core/session_registry.h"
#include "core/shared_tile_cache.h"
#include "storage/batch_fetch.h"
#include "storage/tile_store.h"
#include "tiles/tile_key.h"

namespace fc::core {

/// One ranked prediction a session publishes: the tile and the engine's
/// confidence that this session will request it next.
struct PrefetchCandidate {
  tiles::TileKey key;
  double confidence = 0.0;
};

struct PrefetchSchedulerOptions {
  /// Bound on concurrently executing fills (each fill occupies one executor
  /// task while it fetches). Queue pressure beyond this waits in priority
  /// order rather than fanning out across every executor thread.
  std::size_t max_in_flight = 4;

  /// Batched backend I/O (see storage/batch_fetch.h): each drain round pops
  /// up to storage::BatchTileCap(batch) of the top pending entries into ONE
  /// backend round trip (TileStore::FetchBatch through
  /// SharedTileCache::GetOrFetchSharedBatch). The default profile
  /// (max_batch_tiles = 1) reproduces the per-tile drain exactly.
  storage::BatchProfile batch;

  /// Time source for deadline arithmetic and the queue-wait histogram: the
  /// replay harness's SimClock, or a SteadyClock (common/clock.h) in real
  /// deployments — the scheduler only ever READS it. Null disables
  /// deadline scheduling.
  const Clock* clock = nullptr;

  /// Nominal decoded tile payload bytes, for converting
  /// batch.max_batch_bytes into a tile cap (TilePyramid::NominalTileBytes
  /// is the right source). 0 derives a single-attribute estimate from the
  /// store's pyramid spec.
  std::size_t nominal_tile_bytes = 0;

  /// Deadline-aware drain order (requires `clock`; ignored without one).
  /// Off (the default), drains are pure utility order — bit-identical to
  /// the deadline-free scheduler. On, entries whose priority clears
  /// deadline_utility_bar drain earliest-deadline-first; the remaining
  /// batch budget backfills in utility order (which also covers entries
  /// published without a think-time estimate).
  bool deadline_aware = false;

  /// ABSOLUTE priority floor for deadline promotion. An entry below the
  /// bar never jumps the utility order on deadline grounds (it still
  /// drains via the utility backfill). The default 0.0 makes every
  /// deadline-stamped entry eligible — deliberately: a relative
  /// (fraction-of-top) bar would re-starve exactly the outvoted sessions
  /// this mode exists to protect.
  double deadline_utility_bar = 0.0;

  /// Fraction of each drain round's slots reserved for the per-session
  /// weighted deficit-round-robin slice, in [0, 1] (clamped). 0 (the
  /// default) disables the fairness layer entirely — drain order stays
  /// bit-identical to the share-free scheduler, and SetSessionWeight calls
  /// are recorded but never consulted.
  ///
  /// With a share s, a registered session of weight w (default 1) that
  /// keeps pending work queued is guaranteed a long-run fraction of at
  /// least s x w / W of drained fills, where W is the total weight of
  /// sessions with pending work — regardless of how badly its entries are
  /// outvoted in utility order or gated below deadline_utility_bar.
  /// Sub-slot reservations accumulate across rounds (a share of 0.25 at
  /// batch size 1 grants every fourth slot), so the floor holds at every
  /// batch size. EDF urgency still runs first: a round whose budget the
  /// deadline pass consumed carries its reservation over to the next.
  double fairness_share = 0.0;

  /// Telemetry (optional, zero hot-path cost when null). With `metrics`,
  /// each drain round records fc.prefetch.batch_size / queue_wait_us /
  /// fill_latency_us histograms (queue wait needs `clock`). With `trace`,
  /// a drain round whose batch carries a sampled subscription records one
  /// prefetch.fetch span per such entry, stamped on `clock`'s time base
  /// via the sink. Both must outlive the scheduler.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSink* trace = nullptr;
};

/// Point-in-time counters. Every published prediction retires exactly once:
/// as the single fetch its merged entry issued (fills_issued), or without a
/// fetch of its own (dedup_saved_fetches) — because it merged into another
/// prediction's fill, the tile was already resident, or it went stale
/// first. Hence, once the queue is drained:
///   fills_issued + dedup_saved_fetches == predictions_published.
struct PrefetchSchedulerStats {
  std::uint64_t predictions_published = 0;  ///< (tile, session) publishes accepted.
  std::uint64_t merged_predictions = 0;  ///< Publishes that merged into a pending entry.
  std::uint64_t already_resident = 0;  ///< Retired at publish: tile was cached.
  std::uint64_t fills_issued = 0;      ///< Backing-store fetches performed.
  std::uint64_t fill_failures = 0;     ///< Issued fetches that errored.
  std::uint64_t dedup_saved_fetches = 0;  ///< Predictions retired without their own fetch.
  std::uint64_t stale_drops = 0;  ///< Subscriptions invalidated before their fill (subset of dedup_saved_fetches).
  std::uint64_t deliveries = 0;   ///< Tiles landed in session prefetch regions.
  std::uint64_t max_queue_depth = 0;  ///< High-water mark of pending entries.

  /// Batched backend I/O. Drain rounds that reached the backend (one
  /// FetchBatch round trip each); fills_issued / fetch_batches is the
  /// amortization factor.
  std::uint64_t fetch_batches = 0;
  /// Fills that rode a round trip carrying more than one tile.
  std::uint64_t batched_fills = 0;

  /// Deadline-aware drains (0 whenever deadline_aware is off). Entries
  /// popped by the earliest-deadline-first pass ahead of a strictly
  /// higher-priority pending entry — the anti-starvation promotions.
  std::uint64_t deadline_promotions = 0;
  /// Entries whose deadline had already passed when the EDF pass reached
  /// them: the subscribing user statistically moved on, so the entry is
  /// demoted to plain utility order (it still drains — or supersession
  /// sheds it) instead of consuming the urgent-drain budget.
  std::uint64_t deadline_misses = 0;

  /// Per-session fairness shares (0 whenever fairness_share is 0).
  /// Entries drained through the deficit-round-robin slice.
  std::uint64_t fairness_picks = 0;
  /// The subset of fairness_picks that jumped a strictly higher-priority
  /// pending entry — slots the starved session would not have won on
  /// utility (or deadline) grounds.
  std::uint64_t fairness_promotions = 0;
};

/// A pending queue entry, as reported by SnapshotQueue().
struct PrefetchQueueEntry {
  tiles::TileKey key;
  double priority = 0.0;
  double aggregate_confidence = 0.0;
  std::size_t sessions = 0;  ///< Distinct subscribed sessions.
  /// Virtual time the entry first became pending; negative
  /// (kNoEnqueueStamp) when published without a clock. Preserved across
  /// merges.
  double enqueue_ms = -1.0;
  /// Earliest subscription deadline (virtual ms); +infinity when no live
  /// subscription carries one. The default matches that documented
  /// "no deadline" value — a default-constructed entry must never read as
  /// already expired (deadline 0.0 is the epoch, i.e. the distant past).
  double deadline_ms = std::numeric_limits<double>::infinity();
};

/// Prefetch queue merging overlapping predictions across sessions. One
/// instance serves every session of a SessionManager; a ForeCacheServer
/// given none owns one for its session alone.
class PrefetchScheduler {
 public:
  /// Entry::enqueue_ms / PrefetchQueueEntry::enqueue_ms value for entries
  /// published while no clock was wired. A sentinel, NOT virtual time 0:
  /// such entries have no queue wait to report.
  static constexpr double kNoEnqueueStamp = -1.0;

  /// Subscription/entry deadline for publishes without a think-time
  /// estimate: never urgent.
  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();

  /// Called when a fill completes for a still-current subscription, and
  /// at Publish for a tile already resident: the tile, and the
  /// subscription's publish generation (the receiver re-checks it against
  /// its own current fill — see CacheManager::AcceptPrefetched),
  /// confidence and trace id (0 = unsampled) — the facts a receiver that
  /// streams the tile on (StreamScheduler::SubmitTile) ranks and traces it
  /// by. Invoked WITHOUT the scheduler lock, possibly from an executor
  /// thread; must not call back into the scheduler.
  using Delivery = std::function<void(
      const tiles::TileKey& key, const tiles::TilePtr& tile,
      std::uint64_t generation, double confidence, std::uint64_t trace_id)>;

  /// `store` is the fetch path for fills (the SessionManager passes its
  /// single-flight-wrapped store) and must outlive the scheduler, as must
  /// `executor` and `shared` when given.
  ///
  /// `executor` null puts the scheduler in PULL MODE: Publish only queues,
  /// and the owner drives fills via DrainOne() — deterministic, used by
  /// tests and single-threaded embeddings. WaitForSession must not be used
  /// to wait out a non-empty queue in pull mode (nothing would drain it).
  /// `shared` null skips the shared-cache landing: fills fetch from
  /// `store` and deliver to subscribers only.
  PrefetchScheduler(storage::TileStore* store, Executor* executor,
                    SharedTileCache* shared,
                    PrefetchSchedulerOptions options = {});

  /// Shuts down: retires all pending work as stale and joins in-flight
  /// fills (registered sessions need not be unregistered first).
  ~PrefetchScheduler();

  PrefetchScheduler(const PrefetchScheduler&) = delete;
  PrefetchScheduler& operator=(const PrefetchScheduler&) = delete;

  /// Registers a session and its delivery callback. `session_id` is the
  /// caller's stable nonzero identity (the SessionManager's numeric session
  /// id); 0 — or a collision with a registered id — auto-assigns a fresh
  /// one. Returns the effective id, which all other per-session calls take.
  std::uint64_t RegisterSession(std::uint64_t session_id, Delivery deliver);

  /// Drops the session's pending subscriptions (counted as stale), waits
  /// for any in-flight deliveries to it to settle, and forgets it. After
  /// return its Delivery is never invoked again. No-op for unknown ids.
  /// Concurrent unregisters of one session all return once it is
  /// forgotten.
  void UnregisterSession(std::uint64_t session_id);

  /// Sets the session's fairness weight (default 1.0 at registration).
  /// Consulted only while fairness_share > 0: a session of weight w is
  /// guaranteed fairness_share x w / W of drain slots while it has pending
  /// work (W = total weight of such sessions). Non-positive weights and
  /// unknown ids are ignored. Safe to call at any time; takes effect from
  /// the next drain round's accrual.
  void SetSessionWeight(std::uint64_t session_id, double weight);

  /// Publishes `session_id`'s ranked predictions for request `generation`,
  /// superseding its previous publication (whose unfilled subscriptions
  /// decay out of the queue as stale_drops). Generations must be monotonic
  /// per session — the ForeCacheServer passes its per-request counter.
  /// Predictions already resident in the shared cache are delivered
  /// immediately on the calling thread and never enqueued.
  ///
  /// `think_ms` is the session's estimated think time before its NEXT move
  /// (server::ThinkTimeEstimator is the usual source): with deadline_aware
  /// on, every subscription of this publication carries deadline
  /// now + think_ms. <= 0 means "no estimate": the subscriptions are
  /// deadline-free. Ignored — at zero cost — when deadline scheduling is
  /// off.
  ///
  /// `trace_id` (0 = unsampled) tags every subscription of this
  /// publication with the publishing request's trace, so the drain that
  /// eventually fills it can record a prefetch.fetch span against it.
  /// Free when no TraceSink is wired.
  void Publish(std::uint64_t session_id, std::uint64_t generation,
               std::vector<PrefetchCandidate> candidates,
               double think_ms = 0.0, std::uint64_t trace_id = 0);

  /// Drops the session's pending subscriptions and waits for its in-flight
  /// deliveries to settle, without unregistering it (session reset).
  void CancelSession(std::uint64_t session_id);

  /// Blocks until none of the session's subscriptions is pending or being
  /// filled — the "think time is over, region is full" point. Requires a
  /// live executor (see pull mode above).
  void WaitForSession(std::uint64_t session_id);

  /// Stops accepting work: retires every pending subscription as stale and
  /// joins in-flight fills. Publishes after shutdown retire immediately.
  /// Idempotent; also called by the destructor. The SessionManager calls
  /// this BEFORE destroying sessions so teardown never races fills against
  /// dying delivery targets.
  void Shutdown();

  /// Pops the top pending entries — one with the default BatchProfile,
  /// min(pending, storage::BatchTileCap) of them when batching is
  /// configured — and runs their fills synchronously on the calling thread
  /// as one backend round trip (batched fetch, shared-cache landing,
  /// per-subscriber deliveries).
  /// Returns false when nothing was drained. This is the pull-mode hook:
  /// executor workers loop it, tests call it directly for deterministic
  /// goldens.
  bool DrainOne();

  /// Pending (not yet popped) entries.
  std::size_t pending() const;

  PrefetchSchedulerStats Stats() const;

  /// Consistent snapshot of the pending queue, highest priority first.
  std::vector<PrefetchQueueEntry> SnapshotQueue() const;

 private:
  /// One session's claim on a pending tile.
  struct Subscription {
    std::uint64_t session_id = 0;
    std::uint64_t generation = 0;  ///< Publish generation; delivery re-checks it.
    double confidence = 0.0;
    /// Virtual time by which this session statistically needs the tile
    /// (publish time + its think estimate); kNoDeadline when none.
    double deadline_ms = kNoDeadline;
    /// The publishing request's trace id (0 = unsampled); a drain round
    /// records a prefetch.fetch span for each sampled subscription.
    std::uint64_t trace_id = 0;
  };

  /// The single pending entry for a tile key.
  struct Entry {
    std::vector<Subscription> subs;  ///< At most one per session.
    double priority = 0.0;
    /// Validity stamp for lazy heap invalidation: a heap node whose stamp
    /// no longer matches is a superseded score and is skipped at pop.
    /// Shared by the utility and deadline heaps.
    std::uint64_t stamp = 0;
    /// Virtual time the entry first became pending (kNoEnqueueStamp
    /// without a clock). Merges keep the original time, so the queue wait
    /// is the OLDEST subscription's, not refreshed by new arrivals.
    double enqueue_ms = kNoEnqueueStamp;
    /// Earliest deadline over live subscriptions (kNoDeadline when none
    /// carries one). Recomputed with the priority on every rescore.
    double deadline_ms = kNoDeadline;
  };

  struct HeapNode {
    double priority = 0.0;
    std::uint64_t stamp = 0;
    tiles::TileKey key;
    bool operator<(const HeapNode& other) const {
      if (priority != other.priority) return priority < other.priority;
      return stamp > other.stamp;  // equal priority: earlier publication first
    }
  };

  /// Node in the deadline min-heap (earliest deadline at the top). Shares
  /// Entry::stamp with the utility heap, so one rescore invalidates both
  /// heaps' stale nodes lazily.
  struct DeadlineNode {
    double deadline_ms = kNoDeadline;
    std::uint64_t stamp = 0;
    tiles::TileKey key;
    bool operator<(const DeadlineNode& other) const {
      if (deadline_ms != other.deadline_ms)
        return deadline_ms > other.deadline_ms;  // min-heap on deadline
      return stamp > other.stamp;  // ties: earlier publication first
    }
  };

  /// A registered session. Its pins (SessionPins::in_flight) count the
  /// subscriptions attached to fills currently executing.
  struct SessionState : SessionPins {
    Delivery deliver;
    std::uint64_t generation = 0;  ///< Latest published generation.
    /// Keys this session is subscribed to that are still pending (popping
    /// a key removes it here), so invalidation is O(own subscriptions).
    std::vector<tiles::TileKey> pending_keys;
    /// Fairness share weight (SetSessionWeight; consulted only while
    /// fairness_share > 0).
    double weight = 1.0;
    /// Deficit-round-robin credit: accrues weight-proportionally each
    /// drain round the session has pending work, is charged 1 per drained
    /// fill serving it (floored at -1 so a long well-served streak cannot
    /// bank unbounded debt against a later starvation episode), and resets
    /// to 0 whenever the session's queue empties (classic DRR). The
    /// fairness slice serves the session with the largest deficit.
    double deficit = 0.0;
  };

  /// An entry popped into the current drain round's batch.
  struct PoppedEntry {
    tiles::TileKey key;
    std::vector<Subscription> subs;
    /// The entry's enqueue stamp at pop time, for the queue-wait
    /// histogram (kNoEnqueueStamp when published clockless).
    double enqueue_ms = kNoEnqueueStamp;
  };

  /// Recomputes the entry's priority and earliest deadline from its live
  /// subscriptions and pushes freshly stamped nodes (both heaps share the
  /// stamp). Caller holds mu_.
  void RescoreLocked(const tiles::TileKey& key, Entry& entry);

  /// Whether this instance schedules by deadline at all (option on AND a
  /// clock to measure deadlines against). Caller holds mu_.
  bool DeadlineEnabledLocked() const {
    return options_.deadline_aware && options_.clock != nullptr;
  }

  /// Pops up to `budget` earliest-deadline entries whose priority clears
  /// the bar into `batch`, updating promotion/miss stats. Caller holds
  /// mu_.
  void PopDeadlinesLocked(std::size_t budget, double now_ms,
                          std::vector<PoppedEntry>& batch);

  /// Whether the per-session fairness layer is active. Caller holds mu_.
  bool FairnessEnabledLocked() const { return options_.fairness_share > 0.0; }

  /// One drain round's DRR bookkeeping: resets the deficit of every
  /// session whose queue emptied, accrues weight-proportional credit to
  /// sessions with pending work, and banks this round's slot reservation
  /// (budget x fairness_share, carried fractionally across rounds in
  /// fairness_credit_). Caller holds mu_.
  void AccrueFairnessLocked(std::size_t budget);

  /// Slots the fairness slice can actually use this round: bounded by the
  /// banked credit and by the underserved sessions' outstanding claims
  /// (sum of positive deficits, rounded up per session). The EDF pass is
  /// capped at budget minus this reservation — under saturation every
  /// above-the-bar entry carries a deadline, so without ceding slots EDF
  /// would consume the whole batch and the guaranteed share would only
  /// ever be paid out of idle rounds. Caller holds mu_.
  std::size_t FairnessClaimLocked(std::size_t budget) const;

  /// Serves up to `budget` banked fairness slots: each slot pops the
  /// most-underserved (largest-deficit) session's highest-priority pending
  /// entry into `batch`. Entries already popped by the EDF pass count
  /// against their subscribers via `batch`, so one session cannot sweep a
  /// whole round on one round's credit. Caller holds mu_.
  void PopFairnessLocked(std::size_t budget, std::vector<PoppedEntry>& batch);

  /// Retires every pending subscription of `state` as stale. Caller holds
  /// mu_.
  void InvalidateLocked(SessionState& state, std::uint64_t session_id);

  /// Tops up executor drain workers (never beyond max_in_flight or the
  /// number of pending entries). Caller holds mu_.
  void SpawnWorkersLocked();

  void WorkerLoop();

  storage::TileStore* store_;
  Executor* executor_;      ///< Null in pull mode.
  SharedTileCache* shared_;  ///< Null: fills skip the shared-cache landing.
  PrefetchSchedulerOptions options_;
  /// storage::BatchTileCap of options_.batch: tiles per drain round at most.
  std::size_t batch_tile_cap_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Fill/delivery completion, worker exit.
  std::unordered_map<tiles::TileKey, Entry, tiles::TileKeyHash> pending_;
  std::priority_queue<HeapNode> heap_;  ///< May hold stale (re-scored) nodes.
  /// Deadline-ordered companion to heap_, populated only while deadline
  /// scheduling is enabled and only with finite-deadline entries. Shares
  /// the lazy-invalidation stamps.
  std::priority_queue<DeadlineNode> deadline_heap_;
  SessionRegistry<SessionState> sessions_;
  std::uint64_t stamp_counter_ = 0;
  /// Banked fairness slots (fractional): each round adds budget x
  /// fairness_share, each served fairness slot subtracts 1. Capped at one
  /// full batch so an idle stretch cannot bank an unbounded burst.
  double fairness_credit_ = 0.0;
  std::size_t workers_ = 0;          ///< Executor drain tasks alive.
  std::size_t in_flight_fills_ = 0;  ///< Entries popped, fill not finished.
  bool shutdown_ = false;
  PrefetchSchedulerStats stats_;

  /// Telemetry instruments, resolved once at construction (null when
  /// options_.metrics is null).
  telemetry::Histogram* batch_size_hist_ = nullptr;
  telemetry::Histogram* queue_wait_us_ = nullptr;
  telemetry::Histogram* fill_latency_us_ = nullptr;
};

/// Folds the scheduler's Stats() into `registry` as fc.prefetch.* counters
/// (plus a fc.prefetch.pending gauge), refreshed on every registry
/// snapshot. Returns the source id; RemoveSource it before `scheduler`
/// dies.
std::uint64_t RegisterPrefetchSchedulerMetrics(
    telemetry::MetricsRegistry* registry, const PrefetchScheduler* scheduler);

}  // namespace fc::core

#endif  // FORECACHE_CORE_PREFETCH_SCHEDULER_H_
