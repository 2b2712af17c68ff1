// Cross-session prefetch dedup: per-session scheduling (every session
// publishes into a queue of its own over the shared cache) vs the shared
// PrefetchScheduler (one process-wide queue merging overlapping
// predictions) at 4/16/64 overlapping sessions.
//
// Every session replays the SAME study trace — N distinct users making the
// same exploration, the workload where per-session scheduling is maximally
// wasteful. The shared cache is deliberately small and TinyLFU-filtered:
// under per-session scheduling each session's solo prefetch fill arrives
// cold and low-confidence, so the filter bounces it and the next session
// pays the DBMS again; the scheduler's merged fills carry the AGGREGATE
// confidence and the whole group's frequency signal, so one fetch lands,
// admits, and serves everyone. Measured: DBMS fills issued, useful-prefetch
// hit rate (requests served from middleware memory), and req/sec.
//
// Emits BENCH_prefetch_dedup.json; CI gates on the 16-session point
// (strictly fewer DBMS fills, equal-or-better hit rate, dedup_saved > 0).

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
  std::uint64_t dbms_fetches = 0;
  core::PrefetchSchedulerStats scheduler;  ///< Zeroed in per-session mode.
};

RunResult RunSessions(const sim::Study& study, std::size_t num_sessions,
                      bool use_scheduler) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  server::SessionManagerOptions options =
      bench::ServingOptions(study, bench::SharedCache::kPressured);
  options.use_prefetch_scheduler = use_scheduler;
  server::SessionManager manager(&store, &clock, bench::TrainedComponents(5),
                                 options);

  // Every session replays the same trace: maximal prediction overlap.
  RunResult result;
  result.replay = bench::ReplaySessions(
      &manager, std::vector<const core::Trace*>(num_sessions,
                                                &study.traces.front()));
  result.dbms_fetches = store.fetch_count();
  if (const auto* scheduler = manager.prefetch_scheduler()) {
    result.scheduler = scheduler->Stats();
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Cross-session prefetch dedup — shared scheduler vs per-session fills",
      "Khameleon-style server-side scheduling over Battle et al. sec. 6.2");
  const auto& study = bench::GetStudy();

  eval::TablePrinter table({"Sessions", "Scheduling", "Requests", "Req/sec",
                            "Hit rate", "DBMS fills", "Fills issued",
                            "Dedup saved", "Stale drops"});
  auto results = JsonValue::Array();
  bool pass = true;
  for (std::size_t sessions : {4u, 16u, 64u}) {
    auto per_session = RunSessions(study, sessions, /*use_scheduler=*/false);
    auto shared = RunSessions(study, sessions, /*use_scheduler=*/true);
    // Drained queue (every workload waited out its fills): the retirement
    // accounting must balance exactly.
    const bool books_balance = bench::BooksBalance(shared.scheduler);

    // The acceptance gate rides on the 16-session point; the accounting
    // invariant and a dedup signal must hold everywhere.
    if (!books_balance || shared.scheduler.dedup_saved_fetches == 0) {
      pass = false;
    }
    if (sessions == 16 &&
        (shared.dbms_fetches >= per_session.dbms_fetches ||
         shared.replay.HitRate() + 0.01 < per_session.replay.HitRate())) {
      pass = false;
    }

    for (const auto* run : {&per_session, &shared}) {
      const bool is_shared = run == &shared;
      const auto& scheduler = run->scheduler;
      table.AddRow(
          {std::to_string(sessions), is_shared ? "shared" : "per-session",
           std::to_string(run->replay.requests),
           eval::TablePrinter::Num(run->replay.RequestsPerSec(), 0),
           bench::Pct(run->replay.HitRate()), std::to_string(run->dbms_fetches),
           is_shared ? std::to_string(scheduler.fills_issued) : "-",
           is_shared ? std::to_string(scheduler.dedup_saved_fetches) : "-",
           is_shared ? std::to_string(scheduler.stale_drops) : "-"});
      if (!run->replay.status.ok()) pass = false;

      auto row = JsonValue::Object();
      row.Set("sessions", sessions);
      row.Set("scheduling", is_shared ? "shared" : "per_session");
      row.Set("total_requests", run->replay.requests);
      row.Set("requests_per_sec", run->replay.RequestsPerSec());
      row.Set("hit_rate", run->replay.HitRate());
      row.Set("dbms_fetches", run->dbms_fetches);
      if (is_shared) {
        row.Set("predictions_published", scheduler.predictions_published);
        row.Set("merged_predictions", scheduler.merged_predictions);
        row.Set("already_resident", scheduler.already_resident);
        row.Set("fills_issued", scheduler.fills_issued);
        row.Set("dedup_saved_fetches", scheduler.dedup_saved_fetches);
        row.Set("stale_drops", scheduler.stale_drops);
        row.Set("deliveries", scheduler.deliveries);
        row.Set("max_queue_depth", scheduler.max_queue_depth);
        row.Set("books_balance", books_balance);
      }
      results.Push(std::move(row));
    }
  }
  table.Print();

  auto report = bench::Report("prefetch_dedup", pass);
  report.Set("results", std::move(results));
  if (!bench::WriteReport("BENCH_prefetch_dedup.json", report)) return 1;

  std::cout << "\nWith every session predicting the same tiles, the shared\n"
            << "scheduler collapses N ranked lists into one fill per tile,\n"
            << "priority-admitted on aggregate confidence — fewer DBMS\n"
            << "fills at an equal-or-better useful-prefetch hit rate. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
