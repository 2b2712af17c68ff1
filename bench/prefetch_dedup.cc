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

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"
#include "server/session.h"
#include "storage/tile_store.h"

#include "bench_common.h"

using namespace fc;

namespace {

struct RunResult {
  std::uint64_t total_requests = 0;
  double requests_per_sec = 0.0;
  /// Useful-prefetch hit rate: fraction of requests served from middleware
  /// memory (private regions or shared cache) instead of the DBMS.
  double hit_rate = 0.0;
  std::uint64_t dbms_fetches = 0;
  core::PrefetchSchedulerStats scheduler;  ///< Zeroed in per-session mode.
  bool scheduler_books_balance = true;
};

struct TrainedComponents {
  std::unique_ptr<core::PhaseClassifier> classifier;
  std::unique_ptr<core::AbRecommender> ab;
  std::unique_ptr<core::SbRecommender> sb;
  core::HybridAllocationStrategy strategy;
};

RunResult RunSessions(const sim::Study& study, const TrainedComponents& trained,
                      std::size_t num_sessions, bool use_scheduler) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(study.dataset.pyramid, costs, &clock);

  server::SharedPredictionComponents shared;
  shared.classifier = trained.classifier.get();
  shared.ab = trained.ab.get();
  shared.sb = trained.sb.get();
  shared.strategy = &trained.strategy;
  shared.engine_options.prefetch_k = 5;

  constexpr std::size_t kThreads = 8;
  server::SessionManagerOptions options;
  options.executor_threads = kThreads;
  options.use_shared_cache = true;
  // Small and admission-filtered ON PURPOSE (see file comment): the point
  // of the comparison is what each scheduling mode does under memory
  // pressure, not how a big cache hides the difference.
  options.shared_cache.l1_bytes =
      32 * study.dataset.pyramid->NominalTileBytes();
  options.shared_cache.num_shards = 4;
  options.shared_cache.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  options.shared_cache.admission.sketch_counters = 1024;
  options.single_flight = true;
  options.use_prefetch_scheduler = use_scheduler;
  server::SessionManager manager(&store, &clock, shared, options);

  // Every session replays the same trace: maximal prediction overlap.
  const core::Trace& trace = study.traces.front();
  std::vector<server::SessionManager::SessionWorkload> workloads;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    workloads.push_back(
        {"s" + std::to_string(s), [&trace](server::BrowserSession* session) {
           FC_RETURN_IF_ERROR(session->Open().status());
           session->WaitForPrefetch();
           for (std::size_t i = 1; i < trace.records.size(); ++i) {
             if (!trace.records[i].request.move.has_value()) continue;
             auto served = session->ApplyMove(*trace.records[i].request.move);
             (void)served;  // border rejections are fine during replay
             session->WaitForPrefetch();
           }
           return Status::OK();
         }});
  }

  auto start = std::chrono::steady_clock::now();
  auto status =
      manager.RunSessions(workloads, std::min(kThreads, num_sessions));
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!status.ok()) {
    std::cerr << "ERROR: " << status << "\n";
    return {};
  }

  RunResult result;
  std::uint64_t hits = 0;
  for (const auto& workload : workloads) {
    auto server = manager.ServerFor(workload.session_id);
    if (!server.ok()) continue;
    result.total_requests += (*server)->cache_manager().requests();
    hits += (*server)->cache_manager().cache_hits();
  }
  result.requests_per_sec =
      elapsed > 0 ? static_cast<double>(result.total_requests) / elapsed : 0.0;
  result.hit_rate = result.total_requests == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.total_requests);
  result.dbms_fetches = store.fetch_count();
  if (use_scheduler) {
    const auto* scheduler = manager.prefetch_scheduler();
    if (scheduler != nullptr) {
      result.scheduler = scheduler->Stats();
      // Drained queue (every workload waited out its fills): the
      // retirement accounting must balance exactly.
      result.scheduler_books_balance =
          result.scheduler.fills_issued + result.scheduler.dedup_saved_fetches ==
          result.scheduler.predictions_published;
    }
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Cross-session prefetch dedup — shared scheduler vs per-session fills",
      "Khameleon-style server-side scheduling over Battle et al. sec. 6.2");
  const auto& study = bench::GetStudy();

  TrainedComponents trained;
  {
    auto classifier = core::PhaseClassifier::Train(study.traces);
    auto ab = core::AbRecommender::Make();
    if (!classifier.ok() || !ab.ok() || !ab->Train(study.traces).ok()) {
      std::cerr << "ERROR: training failed\n";
      return 1;
    }
    trained.classifier =
        std::make_unique<core::PhaseClassifier>(std::move(*classifier));
    trained.ab = std::make_unique<core::AbRecommender>(std::move(*ab));
    trained.sb = std::make_unique<core::SbRecommender>(
        &study.dataset.pyramid->metadata(), study.dataset.toolbox.get());
  }

  eval::TablePrinter table({"Sessions", "Scheduling", "Requests", "Req/sec",
                            "Hit rate", "DBMS fills", "Fills issued",
                            "Dedup saved", "Stale drops"});
  auto results = JsonValue::Array();
  bool pass = true;
  for (std::size_t sessions : {4u, 16u, 64u}) {
    auto per_session =
        RunSessions(study, trained, sessions, /*use_scheduler=*/false);
    auto shared =
        RunSessions(study, trained, sessions, /*use_scheduler=*/true);
    table.AddRow({std::to_string(sessions), "per-session",
                  std::to_string(per_session.total_requests),
                  eval::TablePrinter::Num(per_session.requests_per_sec, 0),
                  bench::Pct(per_session.hit_rate),
                  std::to_string(per_session.dbms_fetches), "-", "-", "-"});
    table.AddRow({std::to_string(sessions), "shared",
                  std::to_string(shared.total_requests),
                  eval::TablePrinter::Num(shared.requests_per_sec, 0),
                  bench::Pct(shared.hit_rate),
                  std::to_string(shared.dbms_fetches),
                  std::to_string(shared.scheduler.fills_issued),
                  std::to_string(shared.scheduler.dedup_saved_fetches),
                  std::to_string(shared.scheduler.stale_drops)});

    // The acceptance gate rides on the 16-session point; the accounting
    // invariant and a dedup signal must hold everywhere.
    if (!shared.scheduler_books_balance ||
        shared.scheduler.dedup_saved_fetches == 0) {
      pass = false;
    }
    if (sessions == 16 &&
        (shared.dbms_fetches >= per_session.dbms_fetches ||
         shared.hit_rate + 0.01 < per_session.hit_rate)) {
      pass = false;
    }

    for (const auto* run : {&per_session, &shared}) {
      auto row = JsonValue::Object();
      row.Set("sessions", sessions);
      row.Set("scheduling", run == &per_session ? "per_session" : "shared");
      row.Set("total_requests", run->total_requests);
      row.Set("requests_per_sec", run->requests_per_sec);
      row.Set("hit_rate", run->hit_rate);
      row.Set("dbms_fetches", run->dbms_fetches);
      if (run == &shared) {
        row.Set("predictions_published", run->scheduler.predictions_published);
        row.Set("merged_predictions", run->scheduler.merged_predictions);
        row.Set("already_resident", run->scheduler.already_resident);
        row.Set("fills_issued", run->scheduler.fills_issued);
        row.Set("dedup_saved_fetches", run->scheduler.dedup_saved_fetches);
        row.Set("stale_drops", run->scheduler.stale_drops);
        row.Set("deliveries", run->scheduler.deliveries);
        row.Set("max_queue_depth", run->scheduler.max_queue_depth);
        row.Set("books_balance", run->scheduler_books_balance);
      }
      results.Push(std::move(row));
    }
  }
  table.Print();

  auto report = JsonValue::Object();
  report.Set("bench", "prefetch_dedup");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", pass);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_prefetch_dedup.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "\nWrote " << json_path << "\n";

  std::cout << "\nWith every session predicting the same tiles, the shared\n"
            << "scheduler collapses N ranked lists into one fill per tile,\n"
            << "priority-admitted on aggregate confidence — fewer DBMS\n"
            << "fills at an equal-or-better useful-prefetch hit rate. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
