#include "eval/latency.h"

#include <algorithm>

#include "common/sim_clock.h"
#include "core/cache_manager.h"
#include "core/prefetch_scheduler.h"
#include "storage/tile_store.h"

namespace fc::eval {

void LatencyReport::Merge(const LatencyReport& other) {
  double total = average_ms * static_cast<double>(requests) +
                 other.average_ms * static_cast<double>(other.requests);
  double hits = hit_rate * static_cast<double>(requests) +
                other.hit_rate * static_cast<double>(other.requests);
  requests += other.requests;
  average_ms = requests == 0 ? 0.0 : total / static_cast<double>(requests);
  hit_rate = requests == 0 ? 0.0 : hits / static_cast<double>(requests);
  per_request_ms.insert(per_request_ms.end(), other.per_request_ms.begin(),
                        other.per_request_ms.end());
}

Result<LatencyReport> ReplayLatencyForUser(const sim::Study& study,
                                           const LatencyReplayOptions& options,
                                           const std::string& user_id) {
  // Per-fold components, trained on the other users' traces.
  std::unique_ptr<TilePredictor> predictor;
  if (options.prefetching_enabled) {
    PredictorFactory factory(study.dataset.pyramid.get(),
                             study.dataset.toolbox.get());
    FC_ASSIGN_OR_RETURN(
        predictor,
        factory.Build(options.predictor, study.TracesExcludingUser(user_id)));
  }

  SimClock clock;
  array::QueryCostModel miss_model(options.costs, options.seed);
  array::QueryCostModel hit_model(options.costs, options.seed + 1);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, miss_model, &clock);

  // Region budgets are bytes; size them in units of this dataset's tiles so
  // the replay matches the paper's tile-count semantics exactly.
  const std::size_t tile_bytes = study.dataset.pyramid->NominalTileBytes();
  core::CacheManagerOptions cache_opts;
  cache_opts.history_bytes = options.history_tiles * tile_bytes;
  cache_opts.prefetch_bytes = options.predictor.k * tile_bytes;
  core::CacheManager cache(&store, cache_opts);
  // The region fills the way ForeCacheServer fills it without an executor:
  // plan, publish into a pull-mode queue, and drain it before the next
  // request.
  core::PrefetchScheduler scheduler(&store, /*executor=*/nullptr,
                                    /*shared=*/nullptr);
  const std::uint64_t session = scheduler.RegisterSession(
      1, [&cache](const tiles::TileKey& key, const tiles::TilePtr& tile,
                  std::uint64_t generation, double, std::uint64_t) {
        cache.AcceptPrefetched(key, tile, generation);
      });
  std::uint64_t generation = 0;

  LatencyReport report;
  std::size_t hits = 0;
  for (const auto& trace : study.traces) {
    if (trace.user_id != user_id) continue;
    cache.Clear();
    if (predictor) predictor->StartSession();
    for (const auto& record : trace.records) {
      // Serve the request, measuring user-perceived latency.
      std::int64_t t0 = clock.NowMicros();
      FC_ASSIGN_OR_RETURN(auto outcome, cache.Request(record.request.tile));
      if (outcome.cache_hit) {
        clock.AdvanceMillis(hit_model.CacheHitMillis());
        ++hits;
      }
      report.per_request_ms.push_back(
          static_cast<double>(clock.NowMicros() - t0) / 1000.0);
      ++report.requests;

      // Predict + prefetch during think time (not charged to the user).
      if (predictor) {
        FC_ASSIGN_OR_RETURN(auto ranked, predictor->OnRequest(record));
        if (ranked.size() > options.predictor.k) {
          ranked.resize(options.predictor.k);
        }
        ++generation;
        scheduler.Publish(session, generation,
                          cache.BeginPrefetch(ranked, {}, generation));
        while (scheduler.DrainOne()) {
        }
      }
    }
  }

  double total = 0.0;
  for (double ms : report.per_request_ms) total += ms;
  report.average_ms =
      report.requests == 0 ? 0.0 : total / static_cast<double>(report.requests);
  report.hit_rate = report.requests == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(report.requests);
  return report;
}

Result<LatencyReport> ReplayLatencyLoocv(const sim::Study& study,
                                         const LatencyReplayOptions& options) {
  LatencyReport merged;
  for (const auto& user : study.UserIds()) {
    FC_ASSIGN_OR_RETURN(auto report, ReplayLatencyForUser(study, options, user));
    merged.Merge(report);
  }
  return merged;
}

}  // namespace fc::eval
