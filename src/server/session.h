// Client-facing session API and the multi-user session manager.
//
// BrowserSession is the headless stand-in for the paper's web front end: it
// tracks the user's current tile and translates pans/zooms into tile
// requests against a ForeCacheServer. SessionManager hosts many concurrent
// sessions over one shared tile store (paper section 6.2 raises the
// multi-user setting as future work): it owns the background prefetch
// executor, a process-wide SharedTileCache every session layers over, a
// single-flight store wrapper deduplicating concurrent DBMS fetches, and a
// PrefetchScheduler merging overlapping predictions across sessions into
// one priority queue (without it, each session fills through a queue of its
// own) — and it can drive session workloads from a pool of real OS threads.
//
// Concurrency model: SessionManager's own methods are thread-safe. Each
// BrowserSession (and its ForeCacheServer) is confined to the one thread
// driving it; cross-session state underneath (shared cache, stores, clock,
// executor) is internally synchronized.

#ifndef FORECACHE_SERVER_SESSION_H_
#define FORECACHE_SERVER_SESSION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "core/prediction_engine.h"
#include "core/shared_tile_cache.h"
#include "server/forecache_server.h"

namespace fc::server {

/// A single user's browsing session. Starts at the coarsest tile.
class BrowserSession {
 public:
  /// `server` must outlive the session.
  explicit BrowserSession(ForeCacheServer* server);

  /// Issues the opening request for the root tile (L0/0/0).
  Result<ServedRequest> Open();

  /// Applies a move from the current tile. InvalidArgument if the move
  /// leaves the pyramid.
  Result<ServedRequest> ApplyMove(core::Move move);

  /// Blocks until the session's background prefetch (if any) has settled —
  /// the "think time is over, region is full" point in the paper's model.
  void WaitForPrefetch() { server_->WaitForPrefetch(); }

  const tiles::TileKey& current_tile() const { return current_; }
  std::size_t requests_made() const { return requests_made_; }

 private:
  Result<ServedRequest> Issue(const core::TileRequest& request);

  ForeCacheServer* server_;
  tiles::TileKey current_;
  bool opened_ = false;
  std::size_t requests_made_ = 0;
};

/// Shared prediction components a SessionManager wires into every session.
/// All components must be safe for concurrent const use (they are immutable
/// after training).
struct SharedPredictionComponents {
  const core::PhaseClassifier* classifier = nullptr;
  const core::Recommender* ab = nullptr;
  const core::Recommender* sb = nullptr;
  const core::AllocationStrategy* strategy = nullptr;
  core::PredictionEngineOptions engine_options;
};

/// Configuration of the concurrent serving core.
struct SessionManagerOptions {
  ServerOptions server;

  /// Size of the background prefetch pool. 0 leaves no background drain:
  /// each session drains its own prefetch queue inline on the request path
  /// (the paper's synchronous fill).
  std::size_t executor_threads = 8;

  /// When true, sessions layer over one process-wide SharedTileCache so
  /// they reuse each other's fetched tiles.
  bool use_shared_cache = true;
  core::SharedTileCacheOptions shared_cache;

  /// When true, concurrent fetches of the same key are collapsed into one
  /// upstream query (SingleFlightTileStore).
  bool single_flight = true;

  /// When true (and the executor and shared cache are both enabled),
  /// sessions publish their ranked predictions into one process-wide
  /// PrefetchScheduler: overlapping predictions merge into a single fill
  /// ordered by aggregate confidence x subscribed-session count. Otherwise
  /// each session publishes into a queue of its own, drained by the
  /// executor (or inline without one), and nothing merges across sessions.
  ///
  /// Batched backend I/O rides here too: set prefetch_scheduler.batch
  /// (storage::BatchProfile) to let each drain round pop the top-k pending
  /// fills into one backend round trip. The default profile
  /// (max_batch_tiles = 1) keeps the per-tile drain.
  ///
  /// Deadline-aware draining: set prefetch_scheduler.deadline_aware to
  /// bound per-session staleness under saturation. Every session's server
  /// already tracks its think time (server.think_time — see
  /// server/think_time.h) and publishes the estimate with each
  /// prediction; the auto-wired clock turns those estimates into
  /// deadlines. Off (the default), the estimates are published but
  /// ignored and drain order is bit-identical to the utility-only
  /// scheduler.
  ///
  /// Per-session fairness shares: set prefetch_scheduler.fairness_share to
  /// reserve that fraction of every drain round for a weighted
  /// deficit-round-robin slice across sessions with pending work, so a
  /// session whose predictions keep losing the utility vote still makes
  /// progress (core/prefetch_scheduler.h). 0 (the default) keeps drain
  /// order bit-identical to the shares-less scheduler.
  ///
  /// Real deployments: set server.wall_clock (and leave
  /// prefetch_scheduler.clock null) to run think-time gaps and deadlines
  /// against monotonic wall time instead of the SimClock.
  bool use_prefetch_scheduler = true;
  core::PrefetchSchedulerOptions prefetch_scheduler;

  /// Continuous push streaming (requires the prefetch scheduler): completed
  /// fills detour through a process-wide StreamScheduler that splits them
  /// into progressive chunks and pushes them to each session, coarse-usable
  /// first (core/stream_scheduler.h), in utility-per-byte order. The only
  /// byte budget is stream_scheduler's global egress bucket, metered on
  /// the clock the prefetch scheduler reads. Off (the default), fills land
  /// in the regions whole — bit-identical to the streaming-less serving
  /// core.
  bool use_push_streaming = false;
  core::StreamSchedulerOptions stream_scheduler;

  /// Process-wide telemetry (common/metrics.h, common/trace.h), both
  /// optional and null by default (no telemetry, zero overhead). When set,
  /// the manager propagates them into every layer's options — unless the
  /// caller already wired that layer explicitly — and registers pull-mode
  /// snapshot sources for the shared cache (fc.cache.*), the prefetch
  /// scheduler (fc.prefetch.*), the stream scheduler (fc.stream.*), the
  /// store sessions fetch through (fc.store.*; when single-flight wraps the
  /// backend, fc.store.backend.* covers the real round trips underneath),
  /// and the logging event counters (fc.log.*) — so ONE
  /// MetricsRegistry::Snapshot() covers the whole serving stack. The
  /// registry and sink must outlive the manager; its destructor removes
  /// every source it registered before tearing the components down.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSink* trace = nullptr;
};

/// Hosts concurrent per-user sessions over one backing store. Each session
/// gets its own cache regions, prediction-engine state, and latency log.
class SessionManager {
 public:
  /// Legacy single-threaded setup: no executor, no shared cache — every
  /// session is fully private and drains its own prefetch queue inline.
  /// `store` and everything in `shared` must outlive the manager.
  SessionManager(storage::TileStore* store, SimClock* clock,
                 SharedPredictionComponents shared, ServerOptions options = {});

  /// Concurrent serving core per `options`.
  SessionManager(storage::TileStore* store, SimClock* clock,
                 SharedPredictionComponents shared,
                 SessionManagerOptions options);

  /// Shuts the prefetch scheduler down FIRST — retiring the shared queue
  /// and joining in-flight merged fills while every delivery target is
  /// still alive — then destroys sessions (see the member comment below).
  ~SessionManager();

  /// Creates (or returns the existing) session for `session_id`.
  /// Thread-safe; the returned session must then be driven by one thread.
  BrowserSession* GetOrCreate(const std::string& session_id);

  /// Ends a session, releasing its cache. NotFound if absent. The caller
  /// must ensure no thread is still driving the session: Close destroys
  /// its server immediately, so closing a session mid-request is a
  /// use-after-free, not a graceful shutdown.
  Status Close(const std::string& session_id);

  std::size_t active_sessions() const;

  /// The server backing `session_id` (for latency inspection), or NotFound.
  Result<const ForeCacheServer*> ServerFor(const std::string& session_id) const;

  /// One unit of session work: runs on a pool thread against the named
  /// session (created on demand).
  struct SessionWorkload {
    std::string session_id;
    std::function<Status(BrowserSession*)> run;
  };

  /// Drives `workloads` to completion on `num_threads` OS threads (each
  /// workload runs on exactly one thread; threads pull workloads from a
  /// shared queue). Session ids must be distinct — two workloads naming
  /// the same session would drive one thread-confined BrowserSession from
  /// two threads, so duplicates are rejected up front (InvalidArgument).
  /// Returns the first non-OK workload status otherwise.
  Status RunSessions(std::vector<SessionWorkload> workloads,
                     std::size_t num_threads);

  /// Null when the manager was built without a shared cache.
  const core::SharedTileCache* shared_cache() const { return shared_cache_.get(); }
  /// Null when single-flight dedup is disabled.
  const storage::SingleFlightTileStore* single_flight_store() const {
    return single_flight_.get();
  }
  Executor* executor() { return executor_.get(); }
  /// Null when the cross-session scheduler is disabled (see
  /// SessionManagerOptions::use_prefetch_scheduler).
  const core::PrefetchScheduler* prefetch_scheduler() const {
    return prefetch_scheduler_.get();
  }
  /// Null unless continuous push streaming is enabled (see
  /// SessionManagerOptions::use_push_streaming).
  const core::StreamScheduler* stream_scheduler() const {
    return stream_scheduler_.get();
  }

 private:
  struct SessionState {
    std::unique_ptr<core::PredictionEngine> engine;
    std::unique_ptr<ForeCacheServer> server;
    std::unique_ptr<BrowserSession> browser;
  };

  storage::TileStore* store_;  ///< The store sessions fetch through
                               ///< (single-flight wrapper when enabled).
  SimClock* clock_;
  SharedPredictionComponents shared_;
  SessionManagerOptions options_;

  // Destruction order matters: the destructor body shuts the scheduler
  // down first (cross-session fills must settle while every session they
  // might deliver to is alive), then sessions_ (declared last, destroyed
  // first) joins the drain workers of each session's own queue, which run
  // on executor_ and touch shared_cache_ and single_flight_ — so those
  // members are declared (and stay alive) ahead of it.
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<core::SharedTileCache> shared_cache_;
  std::unique_ptr<storage::SingleFlightTileStore> single_flight_;
  std::unique_ptr<core::PrefetchScheduler> prefetch_scheduler_;
  /// Shut down after the prefetch scheduler (fills feed it) and declared
  /// before sessions_ so each server can still unregister its stream
  /// session during session destruction.
  std::unique_ptr<core::StreamScheduler> stream_scheduler_;

  /// Snapshot-source ids this manager registered with options_.metrics;
  /// removed (in the destructor, before any component dies) so a scrape
  /// can never reach a dead component.
  std::vector<std::uint64_t> metric_sources_;

  mutable std::mutex mu_;  ///< Guards sessions_ and next_session_number_.
  std::map<std::string, SessionState> sessions_;
  /// Source of the nonzero numeric identity stamped on each session's
  /// shared-cache accesses (admission control and quotas attribute traffic
  /// by it). Monotonic: a closed session's id is never reused, so its
  /// leftover residency cannot be charged to a newcomer.
  std::uint64_t next_session_number_ = 0;
};

}  // namespace fc::server

#endif  // FORECACHE_SERVER_SESSION_H_
