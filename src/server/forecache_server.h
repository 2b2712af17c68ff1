// ForeCacheServer: the middleware request loop (paper section 3).
//
// Per request: (1) serve the tile — from the middleware cache (fast) or the
// backing DBMS (slow, charged to the virtual clock); (2) feed the request to
// the prediction engine; (3) refill the prefetch region with the engine's
// ranked list. Prefetching happens during the user's think time, so only
// step (1) counts toward response latency.
//
// Step (3) has one path: the server plans the fill (CacheManager::
// BeginPrefetch) and publishes the ranked predictions, tagged with the
// request generation, into a PrefetchScheduler, which fetches them and
// delivers each tile back through CacheManager::AcceptPrefetched. A newer
// request supersedes the previous publication, so the region is "re-filled
// after every request" without double work. Whose queue it is depends on
// the constructor:
//  * A process-wide scheduler (the multi-session configuration) merges this
//    session's predictions with every other session's and fetches each
//    tile once.
//  * Otherwise the server owns a queue for this session alone. With an
//    Executor, that queue drains in the background and HandleRequest
//    returns right after steps (1)-(2), so the fill overlaps think time.
//    Without one, HandleRequest drains the queue itself before returning:
//    the paper's synchronous fill.
//
// Thread-safety: one server backs one session. HandleRequest and the
// accessors must be called from that session's thread; background drains
// only touch the (internally synchronized) CacheManager, shared cache,
// scheduler, store, and clock.

#ifndef FORECACHE_SERVER_FORECACHE_SERVER_H_
#define FORECACHE_SERVER_FORECACHE_SERVER_H_

#include <memory>
#include <vector>

#include "array/cost_model.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/trace.h"
#include "core/cache_manager.h"
#include "core/prediction_engine.h"
#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "core/stream_scheduler.h"
#include "server/think_time.h"
#include "storage/tile_store.h"

namespace fc::server {

struct ServerOptions {
  core::CacheManagerOptions cache;
  /// When false, the prediction engine is bypassed entirely — the
  /// "traditional system" baseline of section 5.5.
  bool prefetching_enabled = true;
  /// Think-time estimation feeding the scheduler's deadline mode: the
  /// server observes this session's inter-request gaps and publishes the
  /// estimate with every prediction (core/prefetch_scheduler.h). The
  /// estimate rides along at negligible cost even when the scheduler
  /// ignores it (deadline_aware off).
  ThinkTimeOptions think_time;
  /// Real-time deployment mode: a monotonic wall clock (common/clock.h)
  /// the server reads instead of the virtual SimClock. When set, the
  /// SimClock constructor argument may be null — request latencies and
  /// think-time gaps are measured as NowMillis() deltas on this clock, and
  /// no service time is ever charged (real time passes on its own). When
  /// null (the default), the server runs in simulation mode and the
  /// SimClock is required. Must outlive the server.
  const Clock* wall_clock = nullptr;

  /// Telemetry (common/metrics.h, common/trace.h), both optional and both
  /// off by default at zero hot-path cost. With `metrics`, every request
  /// records fc.request.latency_us / fc.requests.total / fc.requests.
  /// cache_hits (instruments resolved once at construction). With
  /// `trace`, each request starts a trace and the sampled ones record
  /// request.handle / cache.lookup / prefetch.publish spans, with the
  /// trace id propagated into the scheduler and stream paths. Both must
  /// outlive the server. SessionManagerOptions wires these process-wide.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceSink* trace = nullptr;
};

/// One served request, with its simulated response latency.
struct ServedRequest {
  tiles::TilePtr tile;
  bool cache_hit = false;
  double latency_ms = 0.0;
  core::EnginePrediction prediction;  ///< Empty when prefetching is disabled.
};

class ForeCacheServer {
 public:
  /// `store`, `engine`, and `clock` must outlive the server. `engine` may be
  /// null only when options.prefetching_enabled is false; `clock` may be
  /// null only when options.wall_clock supplies the time base instead.
  ///
  /// `scheduler` (optional) is a process-wide prefetch queue this session
  /// registers with under options.cache.session_id. Without one, the server
  /// owns a queue (default PrefetchSchedulerOptions) over `store`,
  /// `executor` and `shared`: `executor` (optional) drains it in the
  /// background, and without one HandleRequest drains it inline. `shared`
  /// (optional) layers the session cache over a process-wide tile cache.
  /// `stream_scheduler` (optional, requires `scheduler`) streams completed
  /// fills into the region as progressive chunks instead of landing them
  /// whole: the session registers with it under options.cache.session_id,
  /// and each delivery is submitted with its subscription's generation,
  /// confidence and trace id. All must outlive the server.
  ForeCacheServer(storage::TileStore* store, core::PredictionEngine* engine,
                  SimClock* clock, ServerOptions options = {},
                  Executor* executor = nullptr,
                  core::SharedTileCache* shared = nullptr,
                  core::PrefetchScheduler* scheduler = nullptr,
                  core::StreamScheduler* stream_scheduler = nullptr);

  /// Cancels this session's fills and waits out the in-flight ones.
  ~ForeCacheServer();

  ForeCacheServer(const ForeCacheServer&) = delete;
  ForeCacheServer& operator=(const ForeCacheServer&) = delete;

  /// Serves one client request end to end. Returns once the tile is served
  /// and the predictions published; the region is already filled only when
  /// the server drains its own queue inline (no executor, no process-wide
  /// scheduler).
  Result<ServedRequest> HandleRequest(const core::TileRequest& request);

  /// Blocks until none of this session's fills is queued or in flight.
  /// Replay harnesses call this between moves to model think time fully
  /// covering the fill (and to make replays deterministic). Returns at once
  /// when the queue was drained inline. With a pull-mode process-wide
  /// scheduler, its owner must drain the queue first.
  void WaitForPrefetch();

  /// Resets per-session state (cache + engine history) for a new session.
  void StartSession();

  const core::CacheManager& cache_manager() const { return cache_manager_; }
  core::CacheManager* mutable_cache_manager() { return &cache_manager_; }

  /// Geometry of the dataset being served.
  const tiles::PyramidSpec& spec() const { return store_->spec(); }

  /// Latencies of every request served since construction, in order.
  const std::vector<double>& latency_log() const { return latency_log_; }
  double AverageLatencyMs() const;

  /// This session's think-time tracker (reset by StartSession).
  const ThinkTimeEstimator& think_time() const { return think_time_; }

 private:
  /// Closes the region gate, retires this session's queued predictions and
  /// waits out its in-flight fills (session reset/teardown: the region is
  /// about to be discarded anyway).
  void CancelAndWaitForPrefetch();

  storage::TileStore* store_;
  core::PredictionEngine* engine_;
  SimClock* clock_;  ///< Virtual time base; null in wall-clock mode.
  /// The time base actually read for latency and think-time measurement:
  /// options_.wall_clock when set, else clock_. Never null.
  const Clock* time_;
  ServerOptions options_;
  /// Middleware service time charged on a simulated cache hit: the paper's
  /// measured 19.5 ms (section 5.5), from the calibrated cost model.
  const double cache_hit_service_ms_;
  /// This session's own queue; null when a process-wide one was passed in.
  std::unique_ptr<core::PrefetchScheduler> own_scheduler_;
  /// The queue fills go through: the process-wide one or own_scheduler_.
  core::PrefetchScheduler* scheduler_;
  /// Own queue without an executor: HandleRequest drains it before
  /// returning.
  bool drain_inline_;
  core::StreamScheduler* stream_scheduler_;
  /// This session's registration with scheduler_.
  std::uint64_t scheduler_session_ = 0;
  /// This session's registration with stream_scheduler_. Made before the
  /// scheduler registration so a fill completing immediately can stream,
  /// and dropped after unregistration so no late fill submits to it.
  std::uint64_t stream_session_ = 0;
  core::CacheManager cache_manager_;
  std::vector<double> latency_log_;
  ThinkTimeEstimator think_time_;

  /// Telemetry instruments, resolved once at construction (null when
  /// options_.metrics is null — recording sites branch on the pointer).
  telemetry::Histogram* request_latency_us_ = nullptr;
  telemetry::Counter* requests_total_ = nullptr;
  telemetry::Counter* cache_hits_total_ = nullptr;

  /// Monotonic id of the latest published fill; the region gate and the
  /// scheduler reject deliveries for older ones.
  std::uint64_t prefetch_generation_ = 0;
};

}  // namespace fc::server

#endif  // FORECACHE_SERVER_FORECACHE_SERVER_H_
