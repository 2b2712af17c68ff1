#include "server/session.h"

#include <atomic>
#include <set>
#include <thread>

namespace fc::server {

BrowserSession::BrowserSession(ForeCacheServer* server) : server_(server) {}

Result<ServedRequest> BrowserSession::Issue(const core::TileRequest& request) {
  FC_ASSIGN_OR_RETURN(auto served, server_->HandleRequest(request));
  current_ = request.tile;
  ++requests_made_;
  return served;
}

Result<ServedRequest> BrowserSession::Open() {
  if (opened_) {
    return Status::FailedPrecondition("session already opened");
  }
  server_->StartSession();
  opened_ = true;
  core::TileRequest request;
  request.tile = tiles::TileKey{0, 0, 0};
  request.move = std::nullopt;
  return Issue(request);
}

Result<ServedRequest> BrowserSession::ApplyMove(core::Move move) {
  if (!opened_) {
    return Status::FailedPrecondition("session not opened; call Open() first");
  }
  auto target = core::ApplyMove(current_, move, server_->spec());
  if (!target.has_value()) {
    return Status::InvalidArgument("move " + std::string(core::MoveToString(move)) +
                                   " leaves the dataset from " + current_.ToString());
  }
  core::TileRequest request;
  request.tile = *target;
  request.move = move;
  return Issue(request);
}

SessionManager::SessionManager(storage::TileStore* store, SimClock* clock,
                               SharedPredictionComponents shared,
                               ServerOptions options)
    : SessionManager(store, clock, shared, [&] {
        // Legacy setup: fully private sessions, synchronous prefetch.
        SessionManagerOptions manager_options;
        manager_options.server = options;
        manager_options.executor_threads = 0;
        manager_options.use_shared_cache = false;
        manager_options.single_flight = false;
        return manager_options;
      }()) {}

SessionManager::SessionManager(storage::TileStore* store, SimClock* clock,
                               SharedPredictionComponents shared,
                               SessionManagerOptions options)
    : store_(store), clock_(clock), shared_(shared), options_(options) {
  // Propagate the process-wide telemetry hooks into every layer's options
  // BEFORE any component is built below (the scheduler constructors copy
  // their options), honoring anything the caller wired explicitly.
  if (options_.metrics != nullptr) {
    if (options_.server.metrics == nullptr)
      options_.server.metrics = options_.metrics;
    if (options_.prefetch_scheduler.metrics == nullptr)
      options_.prefetch_scheduler.metrics = options_.metrics;
    if (options_.stream_scheduler.metrics == nullptr)
      options_.stream_scheduler.metrics = options_.metrics;
  }
  if (options_.trace != nullptr) {
    if (options_.server.trace == nullptr) options_.server.trace = options_.trace;
    if (options_.prefetch_scheduler.trace == nullptr)
      options_.prefetch_scheduler.trace = options_.trace;
    if (options_.stream_scheduler.trace == nullptr)
      options_.stream_scheduler.trace = options_.trace;
  }
  if (options_.executor_threads > 0) {
    executor_ = std::make_unique<Executor>(options_.executor_threads);
  }
  if (options_.use_shared_cache) {
    shared_cache_ = std::make_unique<core::SharedTileCache>(options_.shared_cache);
  }
  if (options_.single_flight) {
    single_flight_ = std::make_unique<storage::SingleFlightTileStore>(store);
    store_ = single_flight_.get();
  }
  // The scheduler fetches through the same (possibly single-flight-wrapped)
  // store the sessions use, so demand and prefetch traffic dedup together.
  // It only exists alongside a shared cache: without one, merged fills
  // would have nowhere to land once and the "private sessions" baseline
  // would silently stop being private. Without it, each session's server
  // fills through a queue of its own.
  if (options_.use_prefetch_scheduler && executor_ != nullptr &&
      shared_cache_ != nullptr) {
    // Deadlines age against the same time base the servers measure on —
    // the wall clock in a real deployment, else the virtual clock the
    // stores charge — unless the caller wired an explicit one.
    core::PrefetchSchedulerOptions scheduler_options =
        options_.prefetch_scheduler;
    if (scheduler_options.clock == nullptr) {
      scheduler_options.clock = options_.server.wall_clock != nullptr
                                    ? options_.server.wall_clock
                                    : static_cast<const Clock*>(clock_);
    }
    prefetch_scheduler_ = std::make_unique<core::PrefetchScheduler>(
        store_, executor_.get(), shared_cache_.get(), scheduler_options);
  }
  // The push channel only exists downstream of the shared queue: it streams
  // the queue's completed fills, so without the scheduler there is nothing
  // to feed it and sessions keep the PR 8 delivery path bit-identically.
  if (options_.use_push_streaming && prefetch_scheduler_ != nullptr) {
    core::StreamSchedulerOptions stream_options = options_.stream_scheduler;
    if (stream_options.clock == nullptr) {
      stream_options.clock = options_.server.wall_clock != nullptr
                                 ? options_.server.wall_clock
                                 : static_cast<const Clock*>(clock_);
    }
    stream_scheduler_ = std::make_unique<core::StreamScheduler>(
        executor_.get(), stream_options);
  }
  // One registry snapshot should cover the whole serving stack: register a
  // pull-mode source per live component (request-path instruments were
  // already resolved eagerly through the options above).
  if (options_.metrics != nullptr) {
    metric_sources_.push_back(telemetry::RegisterLogEventMetrics(options_.metrics));
    metric_sources_.push_back(
        storage::RegisterTileStoreMetrics(options_.metrics, "fc.store", store_));
    if (single_flight_ != nullptr) {
      // store_ is the single-flight wrapper; the backend underneath shows
      // the round trips that actually left the process.
      metric_sources_.push_back(storage::RegisterTileStoreMetrics(
          options_.metrics, "fc.store.backend", store));
    }
    if (shared_cache_ != nullptr) {
      metric_sources_.push_back(core::RegisterSharedTileCacheMetrics(
          options_.metrics, shared_cache_.get()));
    }
    if (prefetch_scheduler_ != nullptr) {
      metric_sources_.push_back(core::RegisterPrefetchSchedulerMetrics(
          options_.metrics, prefetch_scheduler_.get()));
    }
    if (stream_scheduler_ != nullptr) {
      metric_sources_.push_back(core::RegisterStreamSchedulerMetrics(
          options_.metrics, stream_scheduler_.get()));
    }
  }
}

SessionManager::~SessionManager() {
  // Detach the snapshot sources FIRST: a concurrent scrape after this
  // point sees a smaller snapshot, never a dead component.
  if (options_.metrics != nullptr) {
    for (std::uint64_t id : metric_sources_) options_.metrics->RemoveSource(id);
  }
  // Drain/cancel the shared queue BEFORE any session dies. Per-session
  // teardown (each server unregistering itself) is individually safe, but
  // while early sessions die the queue would keep fetching for later ones
  // whose results nobody will use — one shutdown retires all of it and
  // joins the in-flight merged fills while every delivery target is alive.
  if (prefetch_scheduler_ != nullptr) prefetch_scheduler_->Shutdown();
  // Then the push channel downstream of it: with fills settled, one
  // shutdown drops the queued chunks and joins in-flight pushes while
  // every delivery target is still alive.
  if (stream_scheduler_ != nullptr) stream_scheduler_->Shutdown();
}

BrowserSession* SessionManager::GetOrCreate(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) return it->second.browser.get();

  SessionState state;
  state.engine = std::make_unique<core::PredictionEngine>(
      &store_->spec(), shared_.classifier, shared_.ab, shared_.sb,
      shared_.strategy, shared_.engine_options);
  // Every shared-cache access this session makes carries its own numeric
  // identity, so admission control and per-session quotas see who is who.
  ServerOptions server_options = options_.server;
  server_options.cache.session_id = ++next_session_number_;
  state.server = std::make_unique<ForeCacheServer>(
      store_, state.engine.get(), clock_, server_options, executor_.get(),
      shared_cache_.get(), prefetch_scheduler_.get(), stream_scheduler_.get());
  state.browser = std::make_unique<BrowserSession>(state.server.get());
  auto [inserted, _] = sessions_.emplace(session_id, std::move(state));
  return inserted->second.browser.get();
}

Status SessionManager::Close(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(session_id) == 0) {
    return Status::NotFound("no session: " + session_id);
  }
  return Status::OK();
}

std::size_t SessionManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

Result<const ForeCacheServer*> SessionManager::ServerFor(
    const std::string& session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return Status::NotFound("no session: " + session_id);
  return it->second.server.get();
}

Status SessionManager::RunSessions(std::vector<SessionWorkload> workloads,
                                   std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  {
    std::set<std::string> ids;
    for (const auto& workload : workloads) {
      if (!ids.insert(workload.session_id).second) {
        return Status::InvalidArgument(
            "duplicate session id in workloads: " + workload.session_id +
            " (a session must be driven by exactly one thread)");
      }
    }
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  Status first_error;  // OK until a workload fails

  auto worker = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= workloads.size()) return;
      BrowserSession* session = GetOrCreate(workloads[i].session_id);
      Status status = workloads[i].run(session);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error =
              status.WithContext("session " + workloads[i].session_id);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return first_error;
}

}  // namespace fc::server
