#include "server/forecache_server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"

namespace fc::server {

ForeCacheServer::ForeCacheServer(storage::TileStore* store,
                                 core::PredictionEngine* engine, SimClock* clock,
                                 ServerOptions options, Executor* executor,
                                 core::SharedTileCache* shared,
                                 core::PrefetchScheduler* scheduler,
                                 core::StreamScheduler* stream_scheduler)
    : store_(store),
      engine_(engine),
      clock_(clock),
      time_(options.wall_clock != nullptr
                ? options.wall_clock
                : static_cast<const Clock*>(clock)),
      options_(options),
      own_scheduler_(scheduler == nullptr
                         ? std::make_unique<core::PrefetchScheduler>(
                               store, executor, shared)
                         : nullptr),
      scheduler_(scheduler != nullptr ? scheduler : own_scheduler_.get()),
      drain_inline_(scheduler == nullptr && executor == nullptr),
      stream_scheduler_(scheduler != nullptr ? stream_scheduler : nullptr),
      cache_manager_(store, options.cache, shared),
      think_time_([&options, this] {
        // The no-argument Observe() overload defaults to the server's own
        // time base so embedders never have to wire the clock twice.
        ThinkTimeOptions tt = options.think_time;
        if (tt.clock == nullptr) tt.clock = time_;
        return tt;
      }()) {
  FC_CHECK_MSG(engine_ != nullptr || !options_.prefetching_enabled,
               "prefetching requires a prediction engine");
  FC_CHECK_MSG(time_ != nullptr,
               "ForeCacheServer requires a SimClock or options.wall_clock");
  if (options_.metrics != nullptr) {
    request_latency_us_ = options_.metrics->GetHistogram("fc.request.latency_us");
    requests_total_ = options_.metrics->GetCounter("fc.requests.total");
    cache_hits_total_ = options_.metrics->GetCounter("fc.requests.cache_hits");
  }
  if (stream_scheduler_ != nullptr) {
    // Streaming path: completed fills detour through the push channel,
    // which re-delivers them chunk by chunk under the byte budget. Built
    // BEFORE the scheduler registration below so a fill completing
    // immediately already finds the stream.
    stream_ = std::make_unique<PushStream>(
        stream_scheduler_, options_.cache.session_id, options_.push_stream,
        [this](const tiles::TileKey& key, const tiles::TilePtr& tile,
               bool /*exact*/, std::uint64_t generation) {
          // Both fidelities land through the same generation-gated door: a
          // coarse base makes the tile usable now, its refinement replaces
          // it with the exact payload.
          cache_manager_.AcceptPrefetched(key, tile, generation);
        });
  }
  // Completed fills land in the prefetch region iff their generation is
  // still current (AcceptPrefetched re-checks under the region lock).
  scheduler_session_ = scheduler_->RegisterSession(
      options_.cache.session_id,
      [this](const tiles::TileKey& key, const tiles::TilePtr& tile,
             std::uint64_t generation) {
        if (stream_ != nullptr) {
          stream_->Accept(key, tile, generation);
        } else {
          cache_manager_.AcceptPrefetched(key, tile, generation);
        }
      });
}

ForeCacheServer::~ForeCacheServer() {
  CancelAndWaitForPrefetch();
  // After this, the scheduler never invokes the delivery callback again,
  // so cache_manager_ (destroyed next) cannot be touched by a late fill.
  scheduler_->UnregisterSession(scheduler_session_);
  // The stream unregisters last: fills stopped arriving above, and its
  // destructor waits out in-flight chunk pushes before cache_manager_ dies.
  stream_.reset();
}

void ForeCacheServer::StartSession() {
  CancelAndWaitForPrefetch();
  cache_manager_.Clear();
  think_time_.Reset();
  if (engine_ != nullptr) engine_->Reset();
}

void ForeCacheServer::WaitForPrefetch() {
  scheduler_->WaitForSession(scheduler_session_);
  if (stream_scheduler_ != nullptr) {
    // Push what the byte budgets allow right now. Budget-blocked chunks
    // stay queued — a rate-limited stream is SUPPOSED to leave the region
    // partially coarse until bandwidth accrues.
    stream_scheduler_->Flush();
  }
}

void ForeCacheServer::CancelAndWaitForPrefetch() {
  // Close the region gate first so a merged fill settling during the cancel
  // wait cannot deliver into the abandoned region, then retire this
  // session's queued predictions and wait out its in-flight fills.
  cache_manager_.AbortPrefetch();
  scheduler_->CancelSession(scheduler_session_);
  // Then shed the push queue: chunks for the abandoned region are dead
  // weight on the channel (in-flight pushes settle against the closed
  // gate).
  if (stream_ != nullptr) stream_->Cancel();
}

Result<ServedRequest> ForeCacheServer::HandleRequest(
    const core::TileRequest& request) {
  ServedRequest served;

  // One trace decision per request; unsampled requests carry trace_id 0
  // and every span below (and downstream of Publish) is inert.
  telemetry::TraceContext trace_ctx;
  if (options_.trace != nullptr) {
    trace_ctx = options_.trace->StartTrace(options_.cache.session_id);
  }
  telemetry::Span handle_span(options_.trace, "request.handle", trace_ctx);

  // Step 1: serve the tile, measuring user-perceived latency. In
  // simulation mode this runs on the virtual clock: a cache hit costs
  // exactly the middleware service time (logged as such — a clock delta
  // would absorb other sessions' DBMS charges under concurrency); a miss
  // runs a DBMS query and logs the clock delta, which in the concurrent
  // configuration is an upper bound when other sessions charge the shared
  // clock inside the window. In wall-clock mode nothing is charged — real
  // time passes on its own — and both hit and miss log the measured delta.
  const bool sim = clock_ != nullptr;
  std::int64_t t0 = sim ? clock_->NowMicros() : 0;
  const double t0_ms =
      sim ? static_cast<double>(t0) / 1000.0 : time_->NowMillis();
  // The gap since the previous request — think time plus the previous
  // service time — feeds the think-time EWMA before any service charge for
  // THIS request lands on the clock.
  think_time_.Observe(t0_ms);
  telemetry::Span lookup_span(options_.trace, "cache.lookup", trace_ctx);
  FC_ASSIGN_OR_RETURN(auto outcome, cache_manager_.Request(request.tile));
  served.tile = outcome.tile;
  served.cache_hit = outcome.cache_hit;
  if (outcome.cache_hit) {
    if (sim) clock_->AdvanceMillis(options_.cache_hit_service_ms);
    served.latency_ms =
        sim ? options_.cache_hit_service_ms : time_->NowMillis() - t0_ms;
  } else {
    served.latency_ms =
        sim ? static_cast<double>(clock_->NowMicros() - t0) / 1000.0
            : time_->NowMillis() - t0_ms;
  }
  // Closed after the service charge so the span covers the full serve step
  // on the same time base the latency log uses.
  lookup_span.End();
  latency_log_.push_back(served.latency_ms);
  if (requests_total_ != nullptr) requests_total_->Add(1);
  if (cache_hits_total_ != nullptr && served.cache_hit) {
    cache_hits_total_->Add(1);
  }
  if (request_latency_us_ != nullptr) {
    request_latency_us_->Record(static_cast<std::uint64_t>(
        std::llround(std::max(served.latency_ms, 0.0) * 1000.0)));
  }

  // Steps 2-3: predict, then prefetch during the user's think time (not
  // charged to this request's latency).
  if (!options_.prefetching_enabled) return served;
  FC_ASSIGN_OR_RETURN(served.prediction, engine_->OnRequest(request));
  // Plan the region fill (clear + gate on this request's generation), then
  // publish the ranked candidates, superseding the previous request's. The
  // gate opens before Publish so a fill completing immediately is never
  // rejected as early.
  const std::uint64_t generation = ++prefetch_generation_;
  {
    telemetry::Span publish_span(options_.trace, "prefetch.publish",
                                 trace_ctx);
    auto plan = cache_manager_.BeginPrefetch(
        served.prediction.tiles, served.prediction.confidences, generation);
    // The think estimate rides along with every publication; the scheduler
    // prices it into per-subscription deadlines only when its deadline mode
    // is on (keyed to the phase the engine inferred for the position these
    // predictions fan out from).
    const double think_ms = think_time_.EstimateMs(served.prediction.phase);
    if (stream_ != nullptr) {
      // Arm the push channel for this generation before the fills it will
      // carry can possibly complete, shedding the previous generation's
      // queued chunks. The trace id rides along so sampled requests' chunk
      // pushes record stream.push spans downstream.
      stream_->BeginGeneration(generation, plan, trace_ctx.trace_id);
    }
    scheduler_->Publish(scheduler_session_, generation, std::move(plan),
                        think_ms, trace_ctx.trace_id);
  }
  if (drain_inline_) {
    // No executor to drain this session's own queue: fill the region now,
    // before the response returns (the paper's synchronous fill).
    while (scheduler_->DrainOne()) {
    }
  }
  return served;
}

double ForeCacheServer::AverageLatencyMs() const { return Mean(latency_log_); }

}  // namespace fc::server
