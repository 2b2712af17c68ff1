// StreamScheduler: the process-wide continuous push channel for prefetched
// tiles.
//
// The prefetch pipeline up to here is request-triggered and all-or-nothing
// per tile: a fill only helps a session once its FULL payload has crossed
// the client channel. Continuous Prefetch (Khameleon, PAPERS.md) shows the
// bigger win — treat the client-facing channel as a continuously scheduled
// resource — and HiFIVE motivates the coarse-first fidelity ladder. Fills
// completed by the PrefetchScheduler are submitted here as they land (not
// once per request), split by the progressive codec into a small coarse
// BASE chunk plus an exact REFINEMENT chunk (storage/tile_codec.h), and
// pushed to sessions under an explicit byte-rate budget. Chunks are planned
// from the tile (TileCodec::PlanProgressive): their exact wire sizes drive
// ranks and the budget and their decoded payloads go to the sinks, but no
// bytes are produced in-process — the byte path is the wire format, and
// the plan matches it bit for bit. Each tile object is planned once:
//
//  * Plan memo. A plan depends only on the tile's cells and the
//    scheduler's fixed codec options, and tiles are immutable, so plans
//    are memoized by tile IDENTITY (its address) and reused for every later
//    submission of the same object — to any session. The memo holds the
//    tile only through a weak_ptr and counts a hit only while that tile is
//    alive, so a freed tile can never alias a new one allocated at its
//    address. It never holds the submitted tile strongly (with kRawF64 the
//    tile IS the exact payload, and a one-chunk plan's coarse payload too):
//    it keeps the coarse payload, and the exact one only when the final
//    encoding is lossy. The payload bytes it holds are capped at
//    kPlanMemoBytes: entries whose tile died are swept whenever the map
//    has doubled since the last sweep, and an insert that would still
//    exceed the cap drops every entry first. The memo has its own mutex
//    and planning runs outside every lock, so a lookup never waits behind
//    a pump's selection. Stats().plans_computed counts the misses. A tile
//    that leaves the shared cache's L1 and comes back while something
//    still holds it is the same object (core/shared_tile_cache.h), so its
//    plan survives the round trip.
//
//  * Utility-per-byte allocation. Every pending USABLE chunk (a tile's
//    first chunk: the base, or the whole blob in all-or-nothing mode)
//    outranks every refinement. Within the usable class a chunk's rank is
//      confidence / exact_payload_bytes
//    — the tile's end-state utility density, so the progressive schedule
//    visits tiles in exactly the order the all-or-nothing schedule would,
//    just with far fewer bytes before each tile becomes usable (the
//    conformance property the stream harness enforces). Refinements rank
//    confidence / refinement_bytes. A confidence that is not positive
//    (NaN included) ranks as 0. Ties break by submission order, so
//    pull-mode pumps are fully deterministic. The queue is kept in that
//    push order (a map keyed by class, rank and submission number, unique
//    per chunk), so a pump takes the first eligible chunk from the front.
//  * A byte-rate budget on the fc::Clock abstraction: one global egress
//    token bucket (total_bytes_per_ms, total_burst_bytes) shared by all
//    sessions — the server's outbound channel, the saturated resource the
//    utility order allocates. A chunk larger than a full bucket is sent
//    when the bucket is full, driving it negative, so oversized tiles
//    stall but never deadlock. Without a clock (or with rate 0) the budget
//    is unlimited.
//  * Base-before-refinement: a refinement is ineligible until its base
//    chunk has been pushed, and dropping a base (supersession, expiry)
//    drops its refinement with it.
//  * Generation supersession and expiry mirror the PrefetchScheduler:
//    CancelStaleGenerations sheds chunks from publications the user has
//    moved past, and a later submission from an older generation retires
//    on arrival; max_chunk_age_ms expires chunks that sat queued too long
//    (it needs a clock, as the budget does).
//
// Thread-safety: all methods are thread-safe. One mutex guards the chunk
// queue, the session registry (core/session_registry.h), the bucket, and
// the counters (the plan memo has a mutex of its own); chunks are planned
// from the tile before either lock (no bytes in-process) and sink
// invocations happen outside them, pinned by per-session in-flight counts
// (a session is never erased mid-push). Sinks must not call back into the
// scheduler.
//
// With an Executor the scheduler pumps itself whenever work is submitted;
// with none it is in PULL MODE and the owner drives it via Pump()/Flush()
// — deterministic, used by the conformance harness and the bench.

#ifndef FORECACHE_CORE_STREAM_SCHEDULER_H_
#define FORECACHE_CORE_STREAM_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/session_registry.h"
#include "storage/tile_codec.h"
#include "tiles/tile.h"
#include "tiles/tile_key.h"

namespace fc::core {

struct StreamSchedulerOptions {
  /// Time source for the budget and expiry; the scheduler only ever READS
  /// it. Null: the budget is unlimited, nothing expires, and chunks carry
  /// kNoEnqueueStamp.
  const Clock* clock = nullptr;

  /// Progressive two-chunk streaming (base + refinement). Off, every tile
  /// is pushed as ONE exact chunk — the request-triggered all-or-nothing
  /// baseline the conformance property and the bench compare against.
  bool progressive = true;

  /// Final-fidelity encoding of the pushed payload (and the base fidelity
  /// via progressive_base_step).
  storage::TileCodecOptions codec;

  /// Global egress bucket shared by every session (the server's outbound
  /// channel): sustained rate, 0 = unlimited, and capacity (also the
  /// initial balance). Chunks larger than the capacity are sent when the
  /// bucket is full, driving it negative.
  double total_bytes_per_ms = 0.0;
  std::size_t total_burst_bytes = 1024 * 1024;

  /// Queued chunks older than this (virtual ms) are dropped at pump time
  /// as expired_chunks_dropped. 0 = never expire.
  double max_chunk_age_ms = 0.0;

  /// Telemetry (optional, zero hot-path cost when null). With `metrics`,
  /// each first-usable push records fc.stream.ttfu_us — submit-to-push
  /// time on `clock`'s time base, the time-to-first-usable the PR 9 bench
  /// measured ad hoc. With `trace`, pushes of chunks submitted under a
  /// sampled trace record stream.push spans. Both must outlive the
  /// scheduler.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSink* trace = nullptr;
};

/// Point-in-time counters. Every submitted tile either pushes its usable
/// chunk (first_usable_pushes) or is dropped (stale / expired), so once
/// the queue is empty chunks_pushed + stale_chunks_dropped +
/// expired_chunks_dropped == chunks_enqueued — submissions rejected on
/// arrival included — and chunks_pushed == base_chunks_pushed +
/// exact_chunks_pushed.
struct StreamSchedulerStats {
  std::uint64_t tiles_submitted = 0;
  /// Submissions that ran TileCodec::PlanProgressive: the plan memo had
  /// no entry for that live tile object (see header notes).
  std::uint64_t plans_computed = 0;
  std::uint64_t chunks_enqueued = 0;
  std::uint64_t chunks_pushed = 0;
  std::uint64_t base_chunks_pushed = 0;   ///< Coarse lossy payloads.
  std::uint64_t exact_chunks_pushed = 0;  ///< Refinements and whole blobs.
  std::uint64_t bytes_pushed = 0;
  /// Tiles whose FIRST chunk (base, or the whole blob) was pushed — the
  /// moment the tile became usable client-side.
  std::uint64_t first_usable_pushes = 0;
  /// Chunks dropped by supersession, cancellation, or shutdown.
  std::uint64_t stale_chunks_dropped = 0;
  /// Chunks dropped by the max_chunk_age_ms scan.
  std::uint64_t expired_chunks_dropped = 0;
  /// Pump rounds that found queued work but pushed nothing for budget.
  std::uint64_t budget_stalls = 0;
};

/// A queued chunk, as reported by SnapshotQueue() (in push rank order:
/// class, then utility per byte, then submission).
struct StreamChunkInfo {
  std::uint64_t session_id = 0;
  tiles::TileKey key;
  std::uint64_t generation = 0;
  bool exact = false;  ///< Refinement or whole blob (false: coarse base).
  std::size_t bytes = 0;
  double utility_per_byte = 0.0;
  /// Virtual submit time; kNoEnqueueStamp when submitted clockless.
  double enqueue_ms = -1.0;
};

/// Process-wide continuous push channel. One instance serves every session
/// of a SessionManager: each ForeCacheServer registers its session and
/// submits the fills its PrefetchScheduler deliveries carry, with each
/// subscription's confidence and trace id.
class StreamScheduler {
 public:
  /// Enqueue stamp of chunks submitted to a clockless scheduler. A
  /// sentinel, NOT virtual time 0. Same convention as
  /// PrefetchScheduler::kNoEnqueueStamp.
  static constexpr double kNoEnqueueStamp = -1.0;

  /// Chunks pushed per Pump() round at most (bounds sink work per call).
  static constexpr std::size_t kMaxPumpChunks = 64;

  /// Most payload bytes (Tile::SizeBytes) the plan memo holds.
  static constexpr std::size_t kPlanMemoBytes = 16ull << 20;

  /// Receives one pushed chunk: the decoded payload at that fidelity
  /// (`exact` false = coarse base, true = exact tile) and the publish
  /// generation it was submitted under. Invoked WITHOUT the scheduler
  /// lock, possibly from an executor thread; must not call back into the
  /// scheduler.
  using ChunkSink = std::function<void(
      const tiles::TileKey& key, const tiles::TilePtr& tile, bool exact,
      std::uint64_t generation)>;

  /// `executor` null puts the scheduler in pull mode (see header notes);
  /// otherwise it must outlive the scheduler.
  explicit StreamScheduler(Executor* executor,
                           StreamSchedulerOptions options = {});

  /// Shuts down: drops all queued chunks and joins in-flight pushes
  /// (registered sessions need not be unregistered first).
  ~StreamScheduler();

  StreamScheduler(const StreamScheduler&) = delete;
  StreamScheduler& operator=(const StreamScheduler&) = delete;

  /// Registers a session. `session_id` is the caller's stable nonzero
  /// identity; 0 — or a collision — auto-assigns a fresh one. Returns the
  /// effective id, which all other per-session calls take.
  std::uint64_t RegisterSession(std::uint64_t session_id, ChunkSink sink);

  /// Drops the session's queued chunks (stale), waits for its in-flight
  /// pushes to settle, and forgets it. After return its sink is never
  /// invoked again. No-op for unknown ids. Concurrent unregisters of one
  /// session all return once it is forgotten.
  void UnregisterSession(std::uint64_t session_id);

  /// Drops the session's queued chunks and waits for its in-flight pushes,
  /// without unregistering it (session reset / abort).
  void CancelSession(std::uint64_t session_id);

  /// Drops the session's queued chunks from generations other than
  /// `live_generation` — the push-side supersession a new publication
  /// triggers — and records `live_generation`, so later submissions from
  /// older generations retire on arrival. Does not wait for in-flight
  /// pushes (their receivers generation-check anyway, see
  /// CacheManager::AcceptPrefetched).
  void CancelStaleGenerations(std::uint64_t session_id,
                              std::uint64_t live_generation);

  /// Plans `tile`'s chunks per the progressive codec (one whole chunk in
  /// all-or-nothing mode), or reuses the memoized plan of this live tile
  /// object, and queues them for `session_id`. `confidence` feeds the
  /// utility rank. Submissions to an unknown or unregistering session,
  /// from a generation older than the session's live one, or after
  /// Shutdown, are retired on arrival: counted as submitted and enqueued,
  /// then dropped as stale. With an executor, submission kicks the
  /// self-pump. `trace_id` (0 = unsampled) attributes the resulting chunk
  /// pushes to the publishing request's trace.
  void SubmitTile(std::uint64_t session_id, const tiles::TileKey& key,
                  const tiles::TilePtr& tile, std::uint64_t generation,
                  double confidence, std::uint64_t trace_id = 0);

  /// One bounded pump round: refills the bucket from the clock, expires stale
  /// chunks, then pushes up to kMaxPumpChunks budget-eligible chunks in
  /// class/utility order. Returns the number pushed. This is the pull-mode
  /// hook; safe to call concurrently with the self-pump.
  std::size_t Pump();

  /// Pumps until no further progress (budget-blocked or empty). Returns
  /// total chunks pushed. With a rate limit and a frozen clock this returns
  /// once the bucket runs dry — it never busy-waits.
  std::size_t Flush();

  /// Stops accepting work: drops every queued chunk and joins in-flight
  /// pushes. Idempotent; also called by the destructor.
  void Shutdown();

  /// Queued (not yet pushed) chunks.
  std::size_t queued() const;

  StreamSchedulerStats Stats() const;

  /// Consistent snapshot of the queued chunks, in push rank order.
  std::vector<StreamChunkInfo> SnapshotQueue() const;

 private:
  /// A queued chunk's place in push order, unique per chunk. It sorts
  /// before every rank it outranks: usable chunks (a tile's first chunk)
  /// form class 0 and precede every class-1 refinement; within a class
  /// higher utility per byte goes first; ties go to the earlier submission.
  struct JobRank {
    bool usable = false;
    double utility_per_byte = 0.0;  ///< Never NaN (see SubmitTile).
    std::uint64_t seq = 0;          ///< Submission order.
    bool operator<(const JobRank& other) const;
  };

  struct ChunkJob {
    std::uint64_t session_id = 0;
    tiles::TileKey key;
    std::uint64_t generation = 0;
    /// Refinement or whole blob; false only for a coarse base, which
    /// always has a refinement queued behind it.
    bool exact = false;
    /// Refinements start gated and become eligible when their base chunk
    /// is picked for push.
    bool awaiting_base = false;
    std::size_t bytes = 0;
    double enqueue_ms = kNoEnqueueStamp;
    std::uint64_t trace_id = 0;  ///< Publishing request's trace (0 = off).
    tiles::TilePtr payload;  ///< Decoded at this chunk's fidelity.
    /// A coarse base's refinement (meaningful only when !exact).
    JobRank refinement;
  };
  using JobQueue = std::map<JobRank, ChunkJob>;

  /// A registered session. Its pins (SessionPins::in_flight) count the
  /// pushes handed to its sink and not yet settled.
  struct SessionState : SessionPins {
    ChunkSink sink;
    /// The last CancelStaleGenerations generation; submissions from older
    /// generations retire on arrival.
    std::uint64_t live_generation = 0;
  };

  /// A chunk picked for push this round, pinned for delivery outside the
  /// lock.
  struct ReadyChunk {
    SessionState* session = nullptr;
    tiles::TileKey key;
    tiles::TilePtr payload;
    bool exact = false;
    std::uint64_t generation = 0;
    std::uint64_t session_id = 0;  ///< For trace attribution.
    std::uint64_t trace_id = 0;    ///< 0 = no stream.push span.
    double push_start_ms = 0.0;    ///< Span start (selection time).
  };

  /// A memoized plan. `plan.coarse` and `plan.exact` are null where they
  /// are the planned tile itself, so the memo never holds it strongly.
  struct PlanMemoEntry {
    std::weak_ptr<const tiles::Tile> tile;
    storage::ProgressivePlan plan;
    std::size_t bytes = 0;  ///< Payload bytes the entry holds.
  };

  /// `tile`'s plan: memoized while the tile lives, else planned outside
  /// every lock and memoized. Sets `*computed` when it planned.
  storage::ProgressivePlan PlanFor(const tiles::TilePtr& tile,
                                   bool* computed);

  /// Stores `entry` for `tile`, replacing an entry at the same address,
  /// sweeping dead tiles' entries when the map has doubled since the last
  /// sweep, and dropping everything when the cap would still be exceeded.
  /// Caller holds memo_mu_.
  void MemoizeLocked(const tiles::TilePtr& tile, PlanMemoEntry entry);

  /// Refills the global bucket from the clock. Caller holds mu_.
  void RefillBudgetLocked(double now_ms);

  /// Drops queued chunks older than max_chunk_age_ms. Caller holds mu_.
  void ExpireLocked(double now_ms);

  /// Whether `job` may be pushed right now (session live, base pushed,
  /// the bucket can cover it). Caller holds mu_.
  bool EligibleLocked(const ChunkJob& job, const SessionState& state) const;

  /// Selects the best eligible chunk by class, then utility, then
  /// submission order — the first eligible one in the queue — or
  /// jobs_.end(). Sets `*session` to its session. Caller holds mu_.
  JobQueue::iterator SelectLocked(SessionState** session);

  /// Removes `it` and, when it gates a refinement that can now never
  /// apply, that refinement too. `counter` classifies the drop. Returns
  /// the iterator after `it`. Caller holds mu_.
  JobQueue::iterator DropLocked(JobQueue::iterator it,
                                std::uint64_t* counter);

  /// Drops every queued chunk of `session_id` as stale: the teardown drop
  /// step. Caller holds mu_.
  void DropSessionLocked(std::uint64_t session_id);

  /// Arms one self-pump task if queued work exists. Caller holds mu_.
  void SpawnPumpLocked();

  Executor* executor_;  ///< Null in pull mode.
  StreamSchedulerOptions options_;
  storage::TileCodec codec_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Push settlement, pump exit.
  JobQueue jobs_;               ///< Push order, front = next candidate.
  SessionRegistry<SessionState> sessions_;
  std::uint64_t seq_counter_ = 0;
  /// Global bucket balance. Starts full; may go negative for chunks
  /// larger than the burst (sent at full bucket).
  double total_tokens_ = 0.0;
  /// Virtual time of the last refill; kNoEnqueueStamp before the first
  /// metered pump.
  double total_last_refill_ms_ = kNoEnqueueStamp;
  bool pump_armed_ = false;  ///< A self-pump task is queued or running.
  std::size_t in_flight_pushes_ = 0;
  bool shutdown_ = false;
  StreamSchedulerStats stats_;

  /// Telemetry instrument, resolved once at construction (null when
  /// options_.metrics is null).
  telemetry::Histogram* ttfu_us_ = nullptr;

  /// Plan memo, keyed by tile address (see header notes). Guarded by
  /// memo_mu_, never held together with mu_.
  std::mutex memo_mu_;
  std::unordered_map<const tiles::Tile*, PlanMemoEntry> memo_;
  std::size_t memo_bytes_ = 0;
  /// memo_ size that triggers the next sweep of dead tiles' entries.
  static constexpr std::size_t kPlanMemoMinSweep = 64;
  std::size_t memo_sweep_at_ = kPlanMemoMinSweep;
};

/// Folds the scheduler's Stats() into `registry` as fc.stream.* counters
/// (plus a fc.stream.queued gauge), refreshed on every registry snapshot.
/// Returns the source id; RemoveSource it before `scheduler` dies.
std::uint64_t RegisterStreamSchedulerMetrics(
    telemetry::MetricsRegistry* registry, const StreamScheduler* scheduler);

}  // namespace fc::core

#endif  // FORECACHE_CORE_STREAM_SCHEDULER_H_
