// Batched backend I/O: the cross-session PrefetchScheduler draining one
// tile per backend round trip (unbatched) vs popping the top-k pending
// entries into a single multi-range query (batched, max_batch_tiles = 8) at
// 4/16/64 overlapping sessions.
//
// Every session replays the SAME study trace over a SimulatedDbmsStore
// whose cost model separates per-query overhead (909 ms) from per-tile
// cost (75 ms + cells): the workload where per-tile fills pay the fixed
// round-trip cost once per tile for tiles the scheduler already knows
// about together. Measured: backend round trips (query_count — the
// headline), tiles fetched, useful-prefetch hit rate, p99 request latency,
// and the scheduler's batching stats.
//
// Emits BENCH_batch_fetch.json; CI gates on the 64-session point (>= 2x
// fewer backend round trips, equal-or-better hit rate) and on the PR 4
// invariant fills_issued + dedup_saved_fetches == predictions_published
// holding on the batched path everywhere.

#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "server/session.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

struct RunResult {
  bench::ReplayResult replay;
  std::uint64_t round_trips = 0;    ///< Backend queries (query_count).
  std::uint64_t tiles_fetched = 0;  ///< Tiles those queries carried.
  core::PrefetchSchedulerStats scheduler;
};

RunResult RunSessions(const sim::Study& study, std::size_t num_sessions,
                      std::size_t batch_tiles) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  // The same small cache as bench_prefetch_dedup: the comparison is round
  // trips under pressure, not cache capacity.
  server::SessionManagerOptions options =
      bench::ServingOptions(study, bench::SharedCache::kPressured);
  options.prefetch_scheduler.batch.max_batch_tiles = batch_tiles;
  server::SessionManager manager(&store, &clock, bench::TrainedComponents(5),
                                 options);

  // Every session replays the same trace: maximal prediction overlap.
  RunResult result;
  result.replay = bench::ReplaySessions(
      &manager, std::vector<const core::Trace*>(num_sessions,
                                                &study.traces.front()));
  result.round_trips = store.query_count();
  result.tiles_fetched = store.fetch_count();
  result.scheduler = manager.prefetch_scheduler()->Stats();
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Batched backend I/O — top-k drain rounds vs one query per tile",
      "SciDB-style multi-range fetch amortization over the shared scheduler");
  const auto& study = bench::GetStudy();

  eval::TablePrinter table({"Sessions", "Mode", "Requests", "Hit rate",
                            "Round trips", "Tiles", "Batches", "p99 ms",
                            "Saved rounds"});
  auto results = JsonValue::Array();
  bool pass = true;
  double reduction_at_64 = 0.0;
  for (std::size_t sessions : {4u, 16u, 64u}) {
    auto unbatched = RunSessions(study, sessions, /*batch_tiles=*/1);
    auto batched = RunSessions(study, sessions, /*batch_tiles=*/8);
    for (const auto* run : {&unbatched, &batched}) {
      const bool is_batched = run == &batched;
      const bool books_balance = bench::BooksBalance(run->scheduler);
      table.AddRow({std::to_string(sessions), is_batched ? "batched" : "per-tile",
                    std::to_string(run->replay.requests),
                    bench::Pct(run->replay.HitRate()),
                    std::to_string(run->round_trips),
                    std::to_string(run->tiles_fetched),
                    std::to_string(run->scheduler.fetch_batches),
                    eval::TablePrinter::Num(run->replay.p99_latency_ms, 1),
                    std::to_string(run->scheduler.fills_issued -
                                   run->scheduler.fetch_batches)});
      // Every replay must have run, and the retirement books must balance
      // with batching at every point.
      if (!run->replay.status.ok() || !books_balance) pass = false;

      auto row = JsonValue::Object();
      row.Set("sessions", sessions);
      row.Set("mode", is_batched ? "batched" : "unbatched");
      row.Set("total_requests", run->replay.requests);
      row.Set("requests_per_sec", run->replay.RequestsPerSec());
      row.Set("hit_rate", run->replay.HitRate());
      row.Set("p99_latency_ms", run->replay.p99_latency_ms);
      row.Set("round_trips", run->round_trips);
      row.Set("tiles_fetched", run->tiles_fetched);
      row.Set("predictions_published", run->scheduler.predictions_published);
      row.Set("fills_issued", run->scheduler.fills_issued);
      row.Set("dedup_saved_fetches", run->scheduler.dedup_saved_fetches);
      row.Set("fetch_batches", run->scheduler.fetch_batches);
      row.Set("batched_fills", run->scheduler.batched_fills);
      row.Set("books_balance", books_balance);
      results.Push(std::move(row));
    }

    // The batched path must actually batch.
    if (batched.scheduler.fetch_batches == 0 ||
        batched.scheduler.batched_fills == 0) {
      pass = false;
    }
    // Acceptance gate rides on the 64-session point: >= 2x fewer backend
    // round trips at an equal-or-better hit rate (1% scheduling noise).
    if (sessions == 64) {
      reduction_at_64 =
          batched.round_trips == 0
              ? 0.0
              : static_cast<double>(unbatched.round_trips) /
                    static_cast<double>(batched.round_trips);
      if (reduction_at_64 < 2.0 ||
          batched.replay.HitRate() + 0.01 < unbatched.replay.HitRate()) {
        pass = false;
      }
    }
  }
  table.Print();

  auto report = bench::Report("batch_fetch", pass);
  report.Set("round_trip_reduction_64", reduction_at_64);
  report.Set("results", std::move(results));
  if (!bench::WriteReport("BENCH_batch_fetch.json", report)) return 1;

  std::cout << "\nWith the drain loop popping the top-k pending fills into\n"
            << "one multi-range query, the DBMS's fixed per-query overhead\n"
            << "is paid once per batch — "
            << eval::TablePrinter::Num(reduction_at_64, 1)
            << "x fewer backend round trips at 64 sessions. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
