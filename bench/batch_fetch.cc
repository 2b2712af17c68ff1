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
  bool run_ok = false;  ///< False: the replay itself failed (fails the bench).
  std::uint64_t total_requests = 0;
  double requests_per_sec = 0.0;
  double hit_rate = 0.0;
  double p99_latency_ms = 0.0;
  std::uint64_t round_trips = 0;    ///< Backend queries (query_count).
  std::uint64_t tiles_fetched = 0;  ///< Tiles those queries carried.
  core::PrefetchSchedulerStats scheduler;
  core::SharedTileCacheStats cache;
  bool books_balance = true;
};

struct TrainedComponents {
  std::unique_ptr<core::PhaseClassifier> classifier;
  std::unique_ptr<core::AbRecommender> ab;
  std::unique_ptr<core::SbRecommender> sb;
  core::HybridAllocationStrategy strategy;
};

RunResult RunSessions(const sim::Study& study, const TrainedComponents& trained,
                      std::size_t num_sessions, std::size_t batch_tiles) {
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
  // Same deliberately small, admission-filtered cache as bench_prefetch_dedup
  // — the comparison is round trips under pressure, not cache capacity.
  options.shared_cache.l1_bytes =
      32 * study.dataset.pyramid->NominalTileBytes();
  options.shared_cache.num_shards = 4;
  options.shared_cache.admission.policy = core::AdmissionPolicyKind::kTinyLfu;
  options.shared_cache.admission.sketch_counters = 1024;
  options.single_flight = true;
  options.use_prefetch_scheduler = true;
  options.prefetch_scheduler.batch.max_batch_tiles = batch_tiles;
  options.prefetch_scheduler.nominal_tile_bytes =
      study.dataset.pyramid->NominalTileBytes();
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
    return {};  // run_ok stays false: the bench must fail, not zero-pass
  }

  RunResult result;
  result.run_ok = true;
  std::uint64_t hits = 0;
  std::vector<double> latencies;
  for (const auto& workload : workloads) {
    auto server = manager.ServerFor(workload.session_id);
    if (!server.ok()) continue;
    result.total_requests += (*server)->cache_manager().requests();
    hits += (*server)->cache_manager().cache_hits();
    const auto& log = (*server)->latency_log();
    latencies.insert(latencies.end(), log.begin(), log.end());
  }
  result.requests_per_sec =
      elapsed > 0 ? static_cast<double>(result.total_requests) / elapsed : 0.0;
  result.hit_rate = result.total_requests == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.total_requests);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    result.p99_latency_ms =
        latencies[static_cast<std::size_t>(0.99 * (latencies.size() - 1))];
  }
  result.round_trips = store.query_count();
  result.tiles_fetched = store.fetch_count();
  if (const auto* scheduler = manager.prefetch_scheduler()) {
    result.scheduler = scheduler->Stats();
    result.books_balance =
        result.scheduler.fills_issued + result.scheduler.dedup_saved_fetches ==
        result.scheduler.predictions_published;
  }
  if (const auto* cache = manager.shared_cache()) {
    result.cache = cache->Stats();
  }
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Batched backend I/O — top-k drain rounds vs one query per tile",
      "SciDB-style multi-range fetch amortization over the shared scheduler");
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

  eval::TablePrinter table({"Sessions", "Mode", "Requests", "Hit rate",
                            "Round trips", "Tiles", "Batches", "p99 ms",
                            "Saved rounds"});
  auto results = JsonValue::Array();
  bool pass = true;
  double reduction_at_64 = 0.0;
  for (std::size_t sessions : {4u, 16u, 64u}) {
    auto unbatched = RunSessions(study, trained, sessions, /*batch_tiles=*/1);
    auto batched = RunSessions(study, trained, sessions, /*batch_tiles=*/8);
    for (const auto* run : {&unbatched, &batched}) {
      const bool is_batched = run == &batched;
      table.AddRow({std::to_string(sessions), is_batched ? "batched" : "per-tile",
                    std::to_string(run->total_requests),
                    bench::Pct(run->hit_rate),
                    std::to_string(run->round_trips),
                    std::to_string(run->tiles_fetched),
                    std::to_string(run->scheduler.fetch_batches),
                    eval::TablePrinter::Num(run->p99_latency_ms, 1),
                    std::to_string(run->cache.fetch_rounds_saved)});

      auto row = JsonValue::Object();
      row.Set("sessions", sessions);
      row.Set("mode", is_batched ? "batched" : "unbatched");
      row.Set("total_requests", run->total_requests);
      row.Set("requests_per_sec", run->requests_per_sec);
      row.Set("hit_rate", run->hit_rate);
      row.Set("p99_latency_ms", run->p99_latency_ms);
      row.Set("round_trips", run->round_trips);
      row.Set("tiles_fetched", run->tiles_fetched);
      row.Set("predictions_published", run->scheduler.predictions_published);
      row.Set("fills_issued", run->scheduler.fills_issued);
      row.Set("dedup_saved_fetches", run->scheduler.dedup_saved_fetches);
      row.Set("fetch_batches", run->scheduler.fetch_batches);
      row.Set("batched_fills", run->scheduler.batched_fills);
      row.Set("cache_batches_issued", run->cache.batches_issued);
      row.Set("cache_batched_tiles", run->cache.batched_tiles);
      row.Set("cache_fetch_rounds_saved", run->cache.fetch_rounds_saved);
      row.Set("books_balance", run->books_balance);
      results.Push(std::move(row));
    }

    // Both replays must have actually run, the PR 4 invariant must survive
    // batching at every point, and the batched path must actually batch.
    if (!unbatched.run_ok || !batched.run_ok) pass = false;
    if (!batched.books_balance || !unbatched.books_balance ||
        batched.scheduler.fetch_batches == 0 ||
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
          batched.hit_rate + 0.01 < unbatched.hit_rate) {
        pass = false;
      }
    }
  }
  table.Print();

  auto report = JsonValue::Object();
  report.Set("bench", "batch_fetch");
  report.Set("fast_mode", bench::FastBench());
  report.Set("pass", pass);
  report.Set("round_trip_reduction_64", reduction_at_64);
  report.Set("results", std::move(results));
  const std::string json_path = "BENCH_batch_fetch.json";
  if (auto status = WriteJsonFile(json_path, report); !status.ok()) {
    std::cerr << "ERROR writing " << json_path << ": " << status << "\n";
    return 1;
  }
  std::cout << "\nWrote " << json_path << "\n";

  std::cout << "\nWith the drain loop popping the top-k pending fills into\n"
            << "one multi-range query, the DBMS's fixed per-query overhead\n"
            << "is paid once per batch — "
            << eval::TablePrinter::Num(reduction_at_64, 1)
            << "x fewer backend round trips at 64 sessions. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
