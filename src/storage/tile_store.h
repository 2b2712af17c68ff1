// TileStore: where the middleware fetches tiles from when the cache misses.
//
// Four backends:
//  * MemoryTileStore     — pyramid held in RAM, no simulated cost (the user
//                          study served everything from memory, section 5.3);
//  * SimulatedDbmsStore  — pyramid + query cost model + virtual clock; every
//                          fetch charges the calibrated SciDB latency;
//  * DiskTileStore       — tiles packed into one extent file, real I/O;
//  * SingleFlightTileStore — decorator deduplicating concurrent fetches of
//                          the same key across sessions/threads.
//
// All backends are thread-safe: fetch counters are atomic and cost/clock
// charging is mutex-guarded, so concurrent sessions may share one store.
//
// Batched I/O (see storage/batch_fetch.h for the planner): FetchBatch
// answers many keys in one backend round trip. Stores keep two counters —
// fetch_count() (tiles requested) and query_count() (round trips) — so
// single-flight dedup and batch amortization stay distinguishable in stats.

#ifndef FORECACHE_STORAGE_TILE_STORE_H_
#define FORECACHE_STORAGE_TILE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "array/cost_model.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "storage/range_plan.h"
#include "storage/tile_codec.h"
#include "tiles/pyramid.h"
#include "tiles/tile.h"
#include "tiles/tile_key.h"

namespace fc::storage {

/// Abstract tile source. Fetch may be expensive; Contains must be cheap.
/// Implementations must tolerate concurrent calls from multiple threads.
class TileStore {
 public:
  virtual ~TileStore() = default;

  virtual Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) = 0;

  /// Fetches many tiles in one backend round trip where the backend can
  /// (SciDB answers a multi-range query with one plan + scan; a disk store
  /// coalesces its reads and decodes). Returns one result per key, parallel
  /// to `keys` — a missing or corrupt tile fails its own slot without
  /// failing the batch. The base implementation is the correct-but-
  /// unamortized loop fallback: one Fetch (and hence one backend query) per
  /// key. Native implementations charge their per-query overhead once.
  ///
  /// Loop-fallback contract: every override must be observationally
  /// equivalent to the fallback — per-slot results bit-identical to what
  /// Fetch would return for that key, in the caller's key order, with
  /// duplicates served as distinct slots. Overrides may only change HOW
  /// the bytes are produced (amortization, range coalescing, vectored
  /// reads) and the fetch_count/query_count split, never WHAT comes back.
  virtual std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys);

  virtual bool Contains(const tiles::TileKey& key) const = 0;
  virtual const tiles::PyramidSpec& spec() const = 0;

  /// Cumulative count of tiles requested from this store: +1 per Fetch
  /// (successful or not), +keys.size() per FetchBatch. Batching does not
  /// change this number — it is the demand, not the round trips.
  virtual std::uint64_t fetch_count() const = 0;

  /// Cumulative count of backend queries (round trips): +1 per Fetch, +1
  /// per native FetchBatch regardless of batch size. The loop fallback
  /// counts one query per key, so fetch_count == query_count for stores
  /// with no native batching. The amortization a batch planner buys is
  /// exactly fetch_count() - query_count().
  virtual std::uint64_t query_count() const { return fetch_count(); }
};

/// Serves straight from an in-memory pyramid.
class MemoryTileStore : public TileStore {
 public:
  explicit MemoryTileStore(std::shared_ptr<const tiles::TilePyramid> pyramid);

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override;
  std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys) override;
  bool Contains(const tiles::TileKey& key) const override;
  const tiles::PyramidSpec& spec() const override;
  std::uint64_t fetch_count() const override { return fetches_; }
  std::uint64_t query_count() const override { return queries_; }

 private:
  std::shared_ptr<const tiles::TilePyramid> pyramid_;
  std::atomic<std::uint64_t> fetches_{0};
  std::atomic<std::uint64_t> queries_{0};
};

/// Serves from an in-memory pyramid while charging DBMS query cost to a
/// virtual clock — the experimental stand-in for a SciDB backend.
///
/// Fetch charges one full query (per-query overhead + one chunk + cells)
/// per tile. FetchBatch is the SciDB-style multi-range query: ONE charge of
/// QueryMillis(chunks = tiles found, cells = their sum), so the fixed
/// per-query overhead (CostModelOptions::per_query_overhead_ms) is paid
/// once per round trip while the per-tile costs (per_chunk_ms + per_cell_us
/// per tile) still scale with batch size. A one-key batch draws the same
/// jitter and charges the same millis as Fetch, bit-identical.
///
/// With range coalescing enabled (RangeCoalesceOptions::enabled), FetchBatch
/// first plans the batch into spatial runs (storage/range_plan.h) and prices
/// each run as ONE merged-extent scan: chunks = the run's bounding box on
/// the chunk grid (charged once per run, not once per tile), cells = the
/// run's found cells plus its bounded waste. The whole batch is still one
/// round trip — one QueryMillis call, one jitter draw — so a 1-key batch
/// stays bit-identical to Fetch with coalescing on or off. Runs that find
/// no tiles charge nothing.
class SimulatedDbmsStore : public TileStore {
 public:
  /// `clock` must outlive the store. `coalesce` defaults to OFF, which
  /// reproduces the per-tile-chunk batch pricing exactly.
  SimulatedDbmsStore(std::shared_ptr<const tiles::TilePyramid> pyramid,
                     array::QueryCostModel cost_model, SimClock* clock,
                     RangeCoalesceOptions coalesce = {});

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override;
  std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys) override;
  bool Contains(const tiles::TileKey& key) const override;
  const tiles::PyramidSpec& spec() const override;
  std::uint64_t fetch_count() const override { return fetches_; }
  std::uint64_t query_count() const override { return queries_; }

  /// Total simulated milliseconds charged across all fetches.
  double total_query_millis() const {
    std::lock_guard<std::mutex> lock(charge_mu_);
    return total_query_millis_;
  }

  /// The cost model mutates RNG state on every query; callers touching it
  /// directly must not race with concurrent Fetch calls.
  array::QueryCostModel* cost_model() { return &cost_model_; }

  /// Cumulative chunk scans charged across all queries: 1 per Fetch, tiles
  /// found per uncoalesced batch, sum of run chunk extents per coalesced
  /// batch. The coalescing win in chunk terms is this counter's delta
  /// between the two configurations over the same workload.
  std::uint64_t chunk_scan_count() const { return chunk_scans_; }

  /// Merged-extent runs priced across all coalesced batches.
  std::uint64_t run_count() const { return runs_; }

  /// Cells scanned beyond the requested tiles by merged extents (nominal
  /// tile granularity) — the price paid for fewer chunk scans, bounded per
  /// run by RangeCoalesceOptions::max_waste_ratio.
  std::uint64_t waste_cell_count() const { return waste_cells_; }

  const RangeCoalesceOptions& coalesce_options() const { return coalesce_; }

 private:
  std::shared_ptr<const tiles::TilePyramid> pyramid_;
  array::QueryCostModel cost_model_;
  SimClock* clock_;
  RangeCoalesceOptions coalesce_;
  std::atomic<std::uint64_t> fetches_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> chunk_scans_{0};
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> waste_cells_{0};
  /// Guards cost_model_ (its jitter RNG advances per query) and the
  /// total-millis accumulator while charging the clock.
  mutable std::mutex charge_mu_;
  double total_query_millis_ = 0.0;
};

/// Serves tiles from disk out of one PACKED EXTENT — a single
/// "extent.fcpk" file laying every tile of the pyramid out in Morton order
/// behind an offset index, written by SavePyramid. A key outside the
/// extent, and every key before the first SavePyramid, is NotFound.
///
/// Reads go through one cached file descriptor via pread, and FetchBatch
/// with range coalescing enabled plans Morton-adjacent keys into
/// contiguous byte runs served by ONE pread each — the true vectored read
/// path. Because the file is Morton-ordered, spatial adjacency IS file
/// contiguity, so adjacency-heavy batches collapse to a few syscalls.
/// syscall_count()/bytes_read() make the win observable.
class DiskTileStore : public TileStore {
 public:
  /// Creates the directory if needed; SavePyramid writes the extent, Fetch
  /// reads it. `codec` picks the encoding SavePyramid writes; reads are
  /// self-describing. If the directory already holds a packed extent (a
  /// previous SavePyramid), it is loaded and served from; an unreadable
  /// one is ignored with a warning, and the store serves nothing until a
  /// SavePyramid rebuilds it. `coalesce` gates the vectored FetchBatch
  /// path and defaults to OFF (per-slot pread, still through the cached
  /// fd).
  static Result<std::unique_ptr<DiskTileStore>> Open(
      std::string directory, tiles::PyramidSpec spec,
      TileCodecOptions codec = {}, RangeCoalesceOptions coalesce = {});

  /// Writes every tile of a pyramid into a fresh Morton-ordered packed
  /// extent (replacing the file atomically), then serves reads from it.
  Status SavePyramid(const tiles::TilePyramid& pyramid);

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override;

  /// One coalesced read pass, ONE backend query. Keys in the packed extent
  /// are served by pread through the cached fd — with coalescing enabled,
  /// one pread per planned byte run (storage/range_plan.h) into a single
  /// buffer; otherwise one pread per key. Keys outside the extent are
  /// NotFound. Results follow the loop-fallback contract: per-slot,
  /// caller's order, bit-identical.
  std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys) override;

  bool Contains(const tiles::TileKey& key) const override;
  const tiles::PyramidSpec& spec() const override { return spec_; }
  std::uint64_t fetch_count() const override { return fetches_; }
  std::uint64_t query_count() const override { return queries_; }

  /// Read submissions issued by Fetch and FetchBatch: one per pread call.
  /// The vectored path's whole point is to shrink this number.
  std::uint64_t syscall_count() const { return syscalls_; }

  /// Payload bytes read, including bounded gap waste spanned by vectored
  /// runs (compare against useful bytes to see the waste-ratio cost).
  std::uint64_t bytes_read() const { return bytes_read_; }

  /// Coalesced byte runs served (each was one pread over >= 1 tiles).
  std::uint64_t vectored_run_count() const { return vectored_runs_; }

  /// True if a packed extent is loaded and serving reads.
  bool packed_loaded() const;

  /// Path of the packed extent file under this store's directory.
  std::string PackedExtentPath() const;

 private:
  /// One tile's slot in the packed extent index.
  struct PackedEntry {
    tiles::TileKey key;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  /// An open packed extent: cached fd + Morton-ordered index. Immutable
  /// once published; readers hold it by shared_ptr and pread without any
  /// lock (pread is positioned, so concurrent reads never race on a file
  /// offset). The destructor closes the fd after the last reader drops it.
  struct PackedExtent {
    ~PackedExtent();
    int fd = -1;
    std::vector<PackedEntry> entries;  ///< Sorted by MortonCode(key).
    std::unordered_map<tiles::TileKey, std::size_t, tiles::TileKeyHash> index;
  };

  DiskTileStore(std::string directory, tiles::PyramidSpec spec,
                TileCodecOptions codec, RangeCoalesceOptions coalesce);

  /// Decodes and validates one tile's blob: a slot read on its own, or its
  /// slice of a coalesced run buffer, decoded in place (shared by Fetch
  /// and FetchBatch).
  Result<tiles::TilePtr> DecodeBlob(const tiles::TileKey& key,
                                    std::string_view bytes) const;

  /// pread loop reading exactly [offset, offset+length) into dst. When
  /// `metered`, bumps syscalls_ per pread call and bytes_read_ per byte
  /// landed; loading the index at Open is not metered (set-up, not
  /// serving I/O).
  Status PreadInto(int fd, std::uint64_t offset, char* dst,
                   std::uint64_t length, bool metered = true);

  /// Opens an existing packed extent file and reads its header and index,
  /// checking every count and blob bound against the file's size.
  Result<std::shared_ptr<const PackedExtent>> LoadPackedExtent();

  /// Snapshot of the packed extent IF it holds `key`; nullptr means the
  /// key is NotFound.
  std::shared_ptr<const PackedExtent> PackedFor(const tiles::TileKey& key) const;

  std::string directory_;
  tiles::PyramidSpec spec_;
  TileCodec codec_;
  RangeCoalesceOptions coalesce_;
  std::atomic<std::uint64_t> fetches_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> syscalls_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> vectored_runs_{0};
  /// Guards packed_ (the published extent pointer). Readers only hold it
  /// long enough to snapshot; I/O runs lock-free.
  mutable std::mutex io_mu_;
  std::shared_ptr<const PackedExtent> packed_;
};

/// Decorator that collapses concurrent fetches of the same key into one
/// upstream query ("single flight"). The first thread to request a key runs
/// the real fetch; threads arriving while it is in flight block and receive
/// the same result. Distinct keys proceed in parallel.
///
/// This is what keeps N sessions panning over the same region from issuing N
/// identical DBMS queries back to back during a prefetch storm.
class SingleFlightTileStore : public TileStore {
 public:
  /// `inner` must outlive this store.
  explicit SingleFlightTileStore(TileStore* inner);

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override;

  /// Batch-aware single flight: keys whose fetch is already in flight JOIN
  /// the existing flight (counted in deduped_count), and the remainder is
  /// fetched as ONE leader batch through the inner store's FetchBatch —
  /// so concurrent overlapping batches from different drain workers still
  /// query the backend once per tile, and a batch pays one upstream round
  /// trip, not one per non-joined key.
  std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys) override;

  bool Contains(const tiles::TileKey& key) const override;
  const tiles::PyramidSpec& spec() const override { return inner_->spec(); }
  /// Counts every tile requested, including ones served by joining a
  /// flight — the demand this decorator absorbed, not what it forwarded.
  std::uint64_t fetch_count() const override { return fetches_; }
  /// Upstream round trips this store initiated: one per leader Fetch, one
  /// per leader batch. Joined flights add nothing here, so
  /// fetch_count() - query_count() overstates neither dedup nor batching.
  std::uint64_t query_count() const override { return queries_; }

  /// Fetches that joined an in-flight request instead of querying upstream.
  std::uint64_t deduped_count() const { return deduped_; }

 private:
  struct Flight {
    bool done = false;
    Result<tiles::TilePtr> result = Status::Internal("flight not landed");
    /// Per-flight so a landing wakes only its own joiners, not every
    /// waiter on every key. Joiners keep the Flight alive via shared_ptr.
    std::condition_variable landed;
  };

  /// Blocks until `flight` lands and returns its result. Caller passes the
  /// already-held lock on mu_.
  Result<tiles::TilePtr> JoinFlight(std::unique_lock<std::mutex>& lock,
                                    const std::shared_ptr<Flight>& flight);
  /// Publishes `result` into `flight` and erases its key. Takes mu_.
  void LandFlight(const tiles::TileKey& key,
                  const std::shared_ptr<Flight>& flight,
                  const Result<tiles::TilePtr>& result);

  TileStore* inner_;
  std::mutex mu_;
  std::unordered_map<tiles::TileKey, std::shared_ptr<Flight>, tiles::TileKeyHash>
      flights_;
  std::atomic<std::uint64_t> fetches_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> deduped_{0};
};

/// Registers a pull-mode source exporting `store`'s counters into `registry`
/// under `<prefix>.*` (e.g. "fc.store" -> fc.store.fetches / fc.store.queries,
/// plus backend-specific extras: single-flight dedup, simulated chunk scans,
/// disk syscalls/bytes). The store must outlive the source; remove it with
/// MetricsRegistry::RemoveSource using the returned id before destroying the
/// store.
std::uint64_t RegisterTileStoreMetrics(telemetry::MetricsRegistry* registry,
                                       const std::string& prefix,
                                       const TileStore* store);

}  // namespace fc::storage

#endif  // FORECACHE_STORAGE_TILE_STORE_H_
