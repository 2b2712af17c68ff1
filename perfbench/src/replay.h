// The three workload replays. Each call builds a fresh serving stack,
// replays the whole plan once (one "epoch") closed-loop — a session's next
// request waits until its previous one and the fill it triggered have
// settled — and returns what was served plus every layer's public Stats().
// Stack construction and teardown are outside the timed window.

#ifndef FORECACHE_PERFBENCH_REPLAY_H_
#define FORECACHE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "core/stream_scheduler.h"
#include "sim/study.h"
#include "storage/tile_codec.h"
#include "tiles/tile.h"
#include "workload.h"

namespace perfbench {

struct ReplayContext {
  WorkloadKind kind = WorkloadKind::kPush64;
  const fc::sim::Study* study = nullptr;
  const TrainedModels* models = nullptr;
  const WorkloadPlan* plan = nullptr;
  /// Packed-extent directory prepared at set-up (disk_churn only).
  std::string disk_dir;
  /// Wire the layer decorators (traced run).
  bool traced = false;
};

/// One served (or failed) request, in the order its session issued it.
struct ServedRecord {
  std::uint32_t session = 0;
  fc::tiles::TileKey expected;
  fc::tiles::TilePtr tile;  ///< Null when the request failed.
  bool cache_hit = false;
  double sim_latency_ms = 0.0;
  std::int64_t serve_ns = 0;  ///< Wall time of the ApplyMove/Open call.
};

struct EpochResult {
  std::vector<ServedRecord> served;
  std::uint64_t requests = 0;  ///< Requests attempted.
  std::uint64_t failed = 0;    ///< Requests that returned an error.
  std::uint64_t private_hits = 0;
  std::uint64_t shared_hits = 0;

  std::int64_t stack_ns = 0;   ///< Stack construction before the replay.
  std::int64_t wall_ns = 0;    ///< Timed replay, wall clock.
  std::int64_t cpu_ns = 0;     ///< Timed replay, process CPU (user + sys).
  /// Wall time the replay threads spent inside the replay loop, summed
  /// over replay threads (the ledger's denominator).
  std::int64_t replay_thread_ns = 0;

  bool has_cache = false;
  fc::core::SharedTileCacheStats cache;
  bool has_prefetch = false;
  fc::core::PrefetchSchedulerStats prefetch;
  bool has_stream = false;
  fc::core::StreamSchedulerStats stream;
  std::size_t stream_queued_after = 0;

  /// Backend counters (0 where the backend has no such counter).
  std::uint64_t store_queries = 0;
  std::uint64_t store_chunk_scans = 0;
  std::uint64_t store_syscalls = 0;
  std::uint64_t store_bytes_read = 0;
  /// Decorator counts (traced run only).
  std::uint64_t store_calls = 0;
  std::uint64_t store_tiles = 0;
  std::uint64_t store_errors = 0;
  std::uint64_t prefetch_fills = 0;   ///< Keys fetched outside demand.
  std::uint64_t prefetch_useful = 0;  ///< Fills that later served a hit.
  std::uint64_t predict_calls = 0;    ///< Recommend calls, both models.

  /// Setup-time problems that invalidate the epoch (store open failed...).
  std::vector<std::string> errors;
};

/// Replays ctx.plan once on a fresh stack for ctx.kind.
EpochResult RunEpoch(const ReplayContext& ctx);

/// Correctness checks, run outside the timed window. Appends one line per
/// failed check to `failures` and returns the number of failed checks:
/// every served tile's key matches its request and its payload equals the
/// source pyramid tile bit for bit, or within `fidelity_bound` per cell;
/// and each layer's books balance. `exact` receives the number of served
/// tiles that were bit-identical.
std::uint64_t CheckEpoch(const EpochResult& epoch,
                         const fc::tiles::TilePyramid& pyramid,
                         double fidelity_bound, std::uint64_t* exact,
                         std::vector<std::string>* failures);

/// Codec options of push64's progressive stream (final encoding and base
/// step); the codec probe times the same configuration.
fc::storage::TileCodecOptions StreamCodecOptions();

/// Largest per-cell error a correct serve may carry on `kind`: the
/// progressive base step / 2 where tiles may be pushed coarse, the shared
/// cache's L2 quantization / 2 where tiles may come back from L2, else 0.
double FidelityBound(WorkloadKind kind);

/// Order-sensitive hash of what each session was served (keys, hit flags,
/// simulated latencies): equal across two replays iff they served the
/// same sequence.
std::uint64_t Fingerprint(const EpochResult& epoch);

}  // namespace perfbench

#endif  // FORECACHE_PERFBENCH_REPLAY_H_
