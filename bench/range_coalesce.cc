// Range-coalesced batched I/O: the same cross-session batched drain
// (max_batch_tiles = 32) with and without spatial run planning, over BOTH
// real backends, at 4/16/64 overlapping sessions replaying adjacency-heavy
// pan/zoom study traces (8 sessions share each trace, staggered by thread
// timing, so the queue mixes neighborhoods along the same pan paths).
//
//  * DBMS phase — SimulatedDbmsStore with a chunk grid spanning 4x4 tiles.
//    Per-key pricing charges one chunk scan per tile even when the batch
//    covers one chunk; coalesced pricing plans Morton runs and charges each
//    run's merged extent once. Headline: chunk_scan_count.
//  * Disk phase — DiskTileStore over a packed Morton-ordered extent file.
//    Per-key reads issue one pread per tile; the vectored path issues one
//    pread per byte run. Headline: syscall_count.
//
// Both configurations pop the same strict-priority top-k batches; only the
// backend's run planning differs, so the rows measure what planning alone
// saves end to end. Per-key configurations keep every default OFF and thus
// reproduce the PR 5 drain bit for bit.
//
// Emits BENCH_range_coalesce.json; CI gates on the 64-session points
// (>= 2x fewer chunk scans, >= 2x fewer read syscalls, equal-or-better
// hit rate) and on the PR 4 invariant fills_issued + dedup_saved_fetches
// == predictions_published holding everywhere.

#include <filesystem>
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
  std::uint64_t round_trips = 0;   ///< Backend FetchBatch/Fetch round trips.
  std::uint64_t tiles_fetched = 0;
  // DBMS counters (zero for disk runs).
  std::uint64_t chunk_scans = 0;
  std::uint64_t coalesced_runs = 0;
  std::uint64_t waste_cells = 0;
  // Disk counters (zero for DBMS runs).
  std::uint64_t syscalls = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t vectored_runs = 0;
  core::PrefetchSchedulerStats scheduler;
};

/// The coalescing profile both backends run under: DBMS chunks span 4x4
/// tiles (SciDB chunks hold many tiles — an aligned 16-tile block is one
/// merged-extent scan) and runs may span gap cells up to 3x the requested
/// area before splitting, trading bounded over-read for fewer scans.
storage::RangeCoalesceOptions CoalesceProfile() {
  storage::RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  coalesce.chunk_tile_span = 4;
  coalesce.max_waste_ratio = 3.0;
  coalesce.max_run_tiles = 64;
  return coalesce;
}

RunResult RunSessions(const sim::Study& study, std::size_t num_sessions,
                      storage::TileStore* store, SimClock* clock) {
  // The same small cache as bench_batch_fetch: the comparison is backend
  // work per round trip, not cache capacity.
  server::SessionManagerOptions options =
      bench::ServingOptions(study, bench::SharedCache::kPressured);
  options.prefetch_scheduler.batch.max_batch_tiles = 32;
  // Deeper per-move neighborhoods than the accuracy benches use: the 8
  // predicted tiles of one viewport are a spatial cluster, exactly what
  // run planning coalesces.
  server::SessionManager manager(store, clock, bench::TrainedComponents(8),
                                 options);

  // Sessions spread across the whole study (user-major, task-minor), so the
  // scheduler's queue holds predictions around MANY live viewports at once —
  // the adjacency-heavy mix run planning is for. Identical-trace sessions
  // would dedup into a queue too shallow to fill a batch.
  std::vector<const core::Trace*> traces;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    traces.push_back(&study.traces[(s / 8) % study.traces.size()]);
  }

  RunResult result;
  result.replay = bench::ReplaySessions(&manager, traces);
  result.round_trips = store->query_count();
  result.tiles_fetched = store->fetch_count();
  result.scheduler = manager.prefetch_scheduler()->Stats();
  return result;
}

/// One DBMS replay: a fresh store per run so counters and the jitter RNG
/// start identically in both modes.
RunResult RunDbms(const sim::Study& study, std::size_t num_sessions,
                  bool coalesced) {
  SimClock clock;
  array::QueryCostModel costs(array::CalibratedPaperCosts(), 5);
  storage::SimulatedDbmsStore store(
      study.dataset.pyramid, costs, &clock,
      coalesced ? CoalesceProfile() : storage::RangeCoalesceOptions{});
  auto result = RunSessions(study, num_sessions, &store, &clock);
  result.chunk_scans = store.chunk_scan_count();
  result.coalesced_runs = store.run_count();
  result.waste_cells = store.waste_cell_count();
  return result;
}

/// One disk replay over the shared packed-extent directory. Each run opens
/// its own DiskTileStore so syscall counters start at zero.
RunResult RunDisk(const sim::Study& study, std::size_t num_sessions,
                  const std::string& directory, bool coalesced) {
  SimClock clock;
  auto opened = storage::DiskTileStore::Open(
      directory, study.dataset.pyramid->spec(), {},
      coalesced ? CoalesceProfile() : storage::RangeCoalesceOptions{});
  if (opened.ok() && !(*opened)->packed_loaded()) {
    opened = Status::FailedPrecondition("packed extent missing from " +
                                        directory);
  }
  if (!opened.ok()) {
    std::cerr << "ERROR: " << opened.status() << "\n";
    RunResult failed;
    failed.replay.status = opened.status();
    return failed;
  }
  auto store = std::move(opened).value();
  auto result = RunSessions(study, num_sessions, store.get(), &clock);
  result.syscalls = store->syscall_count();
  result.bytes_read = store->bytes_read();
  result.vectored_runs = store->vectored_run_count();
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Range-coalesced batched I/O — merged-extent scans & vectored reads",
      "SciDB chunk-scan amortization; packed-extent preadv on disk");
  const auto& study = bench::GetStudy();

  // Pack the study pyramid once; every disk run re-opens the same extent.
  const std::string disk_dir =
      (std::filesystem::temp_directory_path() / "fc_bench_range_coalesce")
          .string();
  std::filesystem::remove_all(disk_dir);
  {
    auto packer =
        storage::DiskTileStore::Open(disk_dir, study.dataset.pyramid->spec());
    if (!packer.ok() ||
        !(*packer)->SavePyramid(*study.dataset.pyramid).ok()) {
      std::cerr << "ERROR: packing study pyramid to disk failed\n";
      return 1;
    }
  }

  eval::TablePrinter table({"Backend", "Sessions", "Mode", "Hit rate",
                            "Round trips", "Tiles", "Chunk scans", "Syscalls",
                            "Runs", "p99 ms"});
  auto results = JsonValue::Array();
  bool pass = true;
  double chunk_scan_reduction_64 = 0.0;
  double syscall_reduction_64 = 0.0;

  for (std::size_t sessions : {4u, 16u, 64u}) {
    auto dbms_per_key = RunDbms(study, sessions, /*coalesced=*/false);
    auto dbms_coalesced = RunDbms(study, sessions, /*coalesced=*/true);
    auto disk_per_key =
        RunDisk(study, sessions, disk_dir, /*coalesced=*/false);
    auto disk_coalesced =
        RunDisk(study, sessions, disk_dir, /*coalesced=*/true);

    struct Labeled {
      const char* backend;
      const char* mode;
      const RunResult* run;
    };
    for (const auto& [backend, mode, run] :
         {Labeled{"dbms", "per-key", &dbms_per_key},
          Labeled{"dbms", "coalesced", &dbms_coalesced},
          Labeled{"disk", "per-key", &disk_per_key},
          Labeled{"disk", "coalesced", &disk_coalesced}}) {
      const bool books_balance = bench::BooksBalance(run->scheduler);
      table.AddRow({backend, std::to_string(sessions), mode,
                    bench::Pct(run->replay.HitRate()),
                    std::to_string(run->round_trips),
                    std::to_string(run->tiles_fetched),
                    std::to_string(run->chunk_scans),
                    std::to_string(run->syscalls),
                    std::to_string(run->coalesced_runs + run->vectored_runs),
                    eval::TablePrinter::Num(run->replay.p99_latency_ms, 1)});

      auto row = JsonValue::Object();
      row.Set("backend", std::string(backend));
      row.Set("sessions", sessions);
      row.Set("mode", std::string(mode));
      row.Set("total_requests", run->replay.requests);
      row.Set("hit_rate", run->replay.HitRate());
      row.Set("p99_latency_ms", run->replay.p99_latency_ms);
      row.Set("round_trips", run->round_trips);
      row.Set("tiles_fetched", run->tiles_fetched);
      row.Set("chunk_scans", run->chunk_scans);
      row.Set("coalesced_runs", run->coalesced_runs);
      row.Set("waste_cells", run->waste_cells);
      row.Set("syscalls", run->syscalls);
      row.Set("bytes_read", run->bytes_read);
      row.Set("vectored_runs", run->vectored_runs);
      row.Set("fetch_batches", run->scheduler.fetch_batches);
      row.Set("batched_fills", run->scheduler.batched_fills);
      row.Set("books_balance", books_balance);
      results.Push(std::move(row));

      if (!run->replay.status.ok() || !books_balance) pass = false;
    }

    // The coalesced paths must actually coalesce (runs planned, vectored
    // reads issued).
    if (dbms_coalesced.coalesced_runs == 0 ||
        disk_coalesced.vectored_runs == 0) {
      pass = false;
    }

    // Acceptance gates ride on the 64-session points: >= 2x fewer chunk
    // scans (DBMS) and read syscalls (disk) at equal-or-better hit rates
    // (1% scheduling noise).
    if (sessions == 64) {
      chunk_scan_reduction_64 =
          dbms_coalesced.chunk_scans == 0
              ? 0.0
              : static_cast<double>(dbms_per_key.chunk_scans) /
                    static_cast<double>(dbms_coalesced.chunk_scans);
      syscall_reduction_64 =
          disk_coalesced.syscalls == 0
              ? 0.0
              : static_cast<double>(disk_per_key.syscalls) /
                    static_cast<double>(disk_coalesced.syscalls);
      if (chunk_scan_reduction_64 < 2.0 || syscall_reduction_64 < 2.0 ||
          dbms_coalesced.replay.HitRate() + 0.01 <
              dbms_per_key.replay.HitRate() ||
          disk_coalesced.replay.HitRate() + 0.01 <
              disk_per_key.replay.HitRate()) {
        pass = false;
      }
    }
  }
  table.Print();

  auto report = bench::Report("range_coalesce", pass);
  report.Set("chunk_scan_reduction_64", chunk_scan_reduction_64);
  report.Set("syscall_reduction_64", syscall_reduction_64);
  report.Set("results", std::move(results));
  if (!bench::WriteReport("BENCH_range_coalesce.json", report)) return 1;
  std::filesystem::remove_all(disk_dir);

  std::cout << "\nWith batch formation preferring run completion and both\n"
            << "backends serving each run as one merged extent, 64 sessions\n"
            << "cost " << eval::TablePrinter::Num(chunk_scan_reduction_64, 1)
            << "x fewer chunk scans and "
            << eval::TablePrinter::Num(syscall_reduction_64, 1)
            << "x fewer read syscalls than per-key service. "
            << (pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}
