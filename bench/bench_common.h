// Shared setup for the experiment harnesses: builds (once per process) the
// synthetic MODIS dataset and the 18x3 study traces every figure/table
// reproduction replays, and holds what the serving benches share: the
// trained prediction models, the threaded multi-user replay, the report
// writer, and the synthetic pyramid of the scheduler sims.

#ifndef FORECACHE_BENCH_BENCH_COMMON_H_
#define FORECACHE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "core/prefetch_scheduler.h"
#include "eval/loocv.h"
#include "eval/predictor.h"
#include "eval/replay.h"
#include "eval/table_printer.h"
#include "eval/trace_stats.h"
#include "server/session.h"
#include "sim/study.h"
#include "tiles/pyramid.h"

namespace fc::bench {

/// The study every harness replays. Built on first use; deterministic.
/// Set FORECACHE_FAST_BENCH=1 to shrink the dataset (CI smoke runs).
const sim::Study& GetStudy();

/// Convenience: "12.3%" formatting.
std::string Pct(double fraction, int precision = 1);

/// True when FORECACHE_FAST_BENCH=1 (CI smoke runs on shrunken datasets).
bool FastBench();

/// Phase names in report order (Foraging, Navigation, Sensemaking).
const std::vector<core::AnalysisPhase>& ReportPhases();

/// Prints a standard harness banner.
void PrintBanner(const std::string& experiment, const std::string& paper_ref);

/// Runs the LOOCV accuracy protocol for each configuration at each fetch
/// budget k and prints one table: model x k -> per-phase + overall accuracy.
/// Engine configurations have their prefetch budget set to each k in turn.
int PrintAccuracySweep(const sim::Study& study,
                       std::vector<eval::PredictorConfig> configs,
                       const std::vector<std::size_t>& ks);

// ---------------------------------------------------------------------------
// Threaded serving benches: the multi-user setting of paper section 6.2.

/// OS threads a replay drives its sessions on, and the executor pool size.
inline constexpr std::size_t kServingThreads = 8;

/// The prediction models every session shares: phase classifier, AB and SB
/// recommenders and the hybrid allocation, trained once per process on the
/// whole study (aborts if training fails). Each move predicts `prefetch_k`
/// tiles.
server::SharedPredictionComponents TrainedComponents(std::size_t prefetch_k);

/// Shared-cache size of a serving bench.
enum class SharedCache {
  /// About 256 decoded study tiles plus a 64-tile compressed tier.
  kRoomy,
  /// 32 decoded tiles behind TinyLFU: small and admission-filtered on
  /// purpose, so a comparison shows what each mode does under memory
  /// pressure, not how a big cache hides the difference.
  kPressured,
};

/// SessionManagerOptions of a serving bench: kServingThreads executor
/// threads and a `cache`-sized shared cache, with single-flight and the
/// prefetch scheduler on (the defaults).
server::SessionManagerOptions ServingOptions(const sim::Study& study,
                                             SharedCache cache);

/// What a replay served, summed over its sessions' servers.
struct ReplayResult {
  Status status;  ///< RunSessions' status: not OK fails the bench.
  double elapsed_sec = 0.0;  ///< Wall time of RunSessions.
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  /// The value at rank floor(0.99 (n - 1)) of every session's latency log.
  double p99_latency_ms = 0.0;

  double HitRate() const;
  double RequestsPerSec() const;
};

/// Replays `traces[i]` as session "s<i>" of `manager`: Open, then every
/// recorded move, waiting out the session's prefetch fills after each, on
/// min(kServingThreads, traces.size()) threads. The caller reads the
/// components' stats from `manager` afterwards.
ReplayResult ReplaySessions(server::SessionManager* manager,
                            const std::vector<const core::Trace*>& traces);

/// The prefetch scheduler's retirement books: once the queue has drained,
/// every published prediction was either filled or saved by dedup.
bool BooksBalance(const core::PrefetchSchedulerStats& stats);

/// {"bench": bench, "fast_mode": FastBench(), "pass": pass}, to which a
/// bench adds its own fields.
JsonValue Report(const std::string& bench, bool pass);

/// Writes `report` to `path` and prints "Wrote <path>"; prints the error
/// and returns false when it cannot.
bool WriteReport(const std::string& path, const JsonValue& report);

// ---------------------------------------------------------------------------
// Discrete-event scheduler sims (pull mode on a SimClock).

/// A 6-level pyramid of 8x8 tiles holding v = x + y. Level 5 is a 32x32
/// grid: 1024 distinct keys for the sims' sessions to rotate through.
std::shared_ptr<tiles::TilePyramid> SyntheticPyramid();

/// Key `index` (row-major, 0-1023) of SyntheticPyramid's level 5.
tiles::TileKey Level5Key(std::size_t index);

/// The value at rank round(p (n - 1)) of the sorted `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// FNV-1a over 64-bit words: folds a delivery sequence into one hash, so
/// two modes that must drain identically can be compared.
struct Fingerprint {
  std::uint64_t value = 14695981039346656037ull;

  void Mix(std::uint64_t word) {
    value ^= word;
    value *= 1099511628211ull;
  }
};

}  // namespace fc::bench

#endif  // FORECACHE_BENCH_BENCH_COMMON_H_
