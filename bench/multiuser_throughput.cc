// Multi-user serving throughput: requests/sec and cache hit rates as the
// number of concurrent sessions grows (1 / 4 / 16), with and without the
// process-wide SharedTileCache.
//
// This is the workload paper section 6.2 leaves as future work: N users
// exploring overlapping regions of one dataset through one middleware
// process. Each session replays a study trace on its own OS thread (up to 8
// threads), with prefetch fills on the background executor and single-flight
// dedup of concurrent DBMS fetches. The shared cache should raise the
// aggregate hit rate over private-only sessions whenever traces overlap —
// every trace starts at the root and the study tasks revisit the same ROIs.

#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "server/session.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

struct RunResult {
  bench::ReplayResult replay;
  std::uint64_t dbms_fetches = 0;
  core::SharedTileCacheStats shared_stats;  ///< Zeroed when no shared cache.
  /// Per-request latency percentiles from the shared fc.request.latency_us
  /// histogram (common/metrics.h) — the same instrument production scrapes.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

RunResult RunSessions(const sim::Study& study, std::size_t num_sessions,
                      bool use_shared_cache) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  server::SessionManagerOptions options =
      bench::ServingOptions(study, bench::SharedCache::kRoomy);
  options.use_shared_cache = use_shared_cache;
  // Latency percentiles come from the production telemetry path, not a
  // bench-side log: every server records into fc.request.latency_us.
  // Declared before the manager so the registry outlives its sources.
  telemetry::MetricsRegistry registry;
  options.metrics = &registry;
  server::SessionManager manager(&store, &clock, bench::TrainedComponents(5),
                                 options);

  // Cycle the study traces to fill the requested session count; duplicated
  // traces model distinct users making the same exploration.
  std::vector<const core::Trace*> traces;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    traces.push_back(&study.traces[s % study.traces.size()]);
  }

  RunResult result;
  result.replay = bench::ReplaySessions(&manager, traces);
  if (use_shared_cache) result.shared_stats = manager.shared_cache()->Stats();
  result.dbms_fetches = store.fetch_count();
  const telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  if (const auto* latency = snapshot.FindHistogram("fc.request.latency_us")) {
    result.p50_us = latency->Quantile(0.50);
    result.p99_us = latency->Quantile(0.99);
    result.p999_us = latency->Quantile(0.999);
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Multi-user serving throughput — shared cache vs private sessions",
      "Battle et al., section 6.2 (multi-user setting, future work)");
  const auto& study = bench::GetStudy();

  eval::TablePrinter table({"Sessions", "Cache", "Requests", "Req/sec",
                            "Agg hit rate", "p50 us", "p99 us",
                            "Shared-cache hits", "DBMS fetches"});
  auto results = JsonValue::Array();
  bool replays_ok = true;
  bool shared_wins_everywhere = true;
  for (std::size_t sessions : {1u, 4u, 16u}) {
    auto private_only =
        RunSessions(study, sessions, /*use_shared_cache=*/false);
    auto with_shared = RunSessions(study, sessions, /*use_shared_cache=*/true);
    if (sessions > 1 &&
        with_shared.replay.HitRate() <= private_only.replay.HitRate()) {
      shared_wins_everywhere = false;
    }
    for (const auto* run : {&private_only, &with_shared}) {
      const bool shared = run == &with_shared;
      table.AddRow({std::to_string(sessions), shared ? "shared" : "private",
                    std::to_string(run->replay.requests),
                    eval::TablePrinter::Num(run->replay.RequestsPerSec(), 0),
                    bench::Pct(run->replay.HitRate()),
                    eval::TablePrinter::Num(run->p50_us, 0),
                    eval::TablePrinter::Num(run->p99_us, 0),
                    shared ? bench::Pct(run->shared_stats.HitRate()) : "-",
                    std::to_string(run->dbms_fetches)});
      if (!run->replay.status.ok()) replays_ok = false;

      auto row = JsonValue::Object();
      row.Set("sessions", sessions);
      row.Set("cache", shared ? "shared" : "private");
      row.Set("total_requests", run->replay.requests);
      row.Set("requests_per_sec", run->replay.RequestsPerSec());
      row.Set("aggregate_hit_rate", run->replay.HitRate());
      row.Set("p50_us", run->p50_us);
      row.Set("p99_us", run->p99_us);
      row.Set("p999_us", run->p999_us);
      row.Set("dbms_fetches", run->dbms_fetches);
      if (shared) {
        const auto& stats = run->shared_stats;
        row.Set("shared_cache_hit_rate", stats.HitRate());
        row.Set("l1_hits", stats.l1_hits);
        row.Set("l2_hits", stats.l2_hits);
        row.Set("demotions", stats.demotions);
        row.Set("evictions", stats.evictions);
        row.Set("decode_ns", stats.decode_ns);
        row.Set("bytes_resident", stats.bytes_resident);
      }
      results.Push(std::move(row));
    }
  }
  table.Print();

  const bool pass = replays_ok && shared_wins_everywhere;
  auto report = bench::Report("multiuser_throughput", pass);
  report.Set("results", std::move(results));
  if (!bench::WriteReport("BENCH_multiuser.json", report)) return 1;

  std::cout << "\nWith overlapping traces the shared cache converts other\n"
            << "sessions' fetches into memory hits, so the aggregate hit\n"
            << "rate rises with session count while DBMS load per session\n"
            << "falls. "
            << (shared_wins_everywhere
                    ? "Shared > private at every multi-session point.\n"
                    : "WARNING: shared cache did not beat private sessions.\n");
  return pass ? 0 : 1;
}
