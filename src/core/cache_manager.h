// CacheManager: the per-session layer of the middleware cache (paper
// section 3).
//
// Two private regions back one user session:
//  * a history LRU holding the last n requested tiles, and
//  * a prefetch region, re-filled after every request from the prediction
//    engine's ranked list (each recommendation model's share of the region
//    is the allocation strategy's decision, applied upstream by the engine
//    when it merges the two ranked lists).
//
// The manager never fetches for the prefetch region itself. A fill has one
// path: BeginPrefetch plans it, a PrefetchScheduler fetches it, and
// AcceptPrefetched lands each delivered tile.
//
// Optionally the manager sits on top of a process-wide SharedTileCache: a
// request missing both private regions probes the shared cache before the
// backing store, and every demand fetch is published there for other
// sessions.
//
// Thread-safety: all methods may be called concurrently — in the async
// serving stack the session thread calls Request while a scheduler drain
// worker delivers through AcceptPrefetched. Region state is mutex-guarded;
// backing-store fetches happen outside the lock so a slow DBMS query never
// blocks the session thread's region lookups. Stats are atomics.

#ifndef FORECACHE_CORE_CACHE_MANAGER_H_
#define FORECACHE_CORE_CACHE_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "core/tile_cache.h"
#include "storage/tile_store.h"

namespace fc::core {

struct CacheManagerOptions {
  /// Byte budget of the last-n-requests region. To size for n nominal tiles
  /// use n * tile_width * tile_height * num_attrs * sizeof(double).
  std::size_t history_bytes = 256 * 1024;
  /// Byte budget of the prefetch region (bounds how much of the ranked
  /// prediction list is materialized).
  std::size_t prefetch_bytes = 256 * 1024;
  /// Identity stamped on every shared-cache access this manager makes, so
  /// admission control and per-session quotas can attribute the traffic.
  /// 0 = anonymous (quota-exempt); the SessionManager assigns real ids.
  std::uint64_t session_id = 0;
};

/// Outcome of serving one tile request.
struct FetchOutcome {
  tiles::TilePtr tile;
  bool cache_hit = false;   ///< Served from middleware memory (any region).
  bool shared_hit = false;  ///< The hit came from the shared cache, not a
                            ///< private region (always false without one).
};

class CacheManager {
 public:
  /// `store` (and `shared`, when given) must outlive the manager. With a
  /// null `shared` the manager behaves exactly like the original
  /// private-regions-only design.
  CacheManager(storage::TileStore* store, CacheManagerOptions options = {},
               SharedTileCache* shared = nullptr);

  /// Serves a client tile request: private regions, then the shared cache,
  /// then the backing store. The returned tile is retained in the history
  /// region (and published to the shared cache on a store fetch).
  Result<FetchOutcome> Request(const tiles::TileKey& key);

  /// Fill step 1: plans the region fill for the PrefetchScheduler. Clears
  /// the prefetch region, gates AcceptPrefetched on `generation` (the
  /// server's per-request counter, monotonic), and returns the ranked
  /// candidates to publish (`confidences` parallels `predictions`; missing
  /// entries read as 0). Tiles the history region already holds and in-list
  /// duplicates are skipped; they cost the region nothing. Thread-safe.
  std::vector<PrefetchCandidate> BeginPrefetch(
      const std::vector<tiles::TileKey>& predictions,
      const std::vector<double>& confidences, std::uint64_t generation);

  /// Fill step 2: the scheduler's delivery callback lands a fetched tile
  /// here. Returns true when the tile was retained, which needs:
  ///  * `generation` is still the current fill. A newer BeginPrefetch, an
  ///    AbortPrefetch or a Clear rejects stragglers, so superseded fills
  ///    never land in a re-planned region.
  ///  * The tile fits. The queue delivers in priority order, so a region
  ///    that cannot take a new key without overflowing its byte budget
  ///    rejects it and keeps the higher-priority tiles it holds. Replacing
  ///    a key the region already holds (a stream refinement) and a lone
  ///    oversized tile in an empty region are always accepted. For
  ///    equal-size tiles the first tile that no longer fits ends the fill.
  /// Thread-safe.
  bool AcceptPrefetched(const tiles::TileKey& key, const tiles::TilePtr& tile,
                        std::uint64_t generation);

  /// Closes the fill gate without touching region contents: every
  /// AcceptPrefetched delivery is rejected until the next BeginPrefetch.
  /// The server calls this when cancelling a fill, so deliveries from
  /// still-settling merged fills cannot land in a region the session has
  /// abandoned. Thread-safe.
  void AbortPrefetch();

  /// True if a private region holds the tile (no stats side effects).
  bool Cached(const tiles::TileKey& key) const;

  void Clear();

  std::uint64_t requests() const { return requests_; }
  /// Hits from any middleware memory: private regions or shared cache.
  std::uint64_t cache_hits() const { return private_hits_ + shared_hits_; }
  /// Hits from this session's own history/prefetch regions only. Unlike
  /// cache_hits(), this is deterministic for a given trace regardless of
  /// what other sessions are doing (the shared cache's contents depend on
  /// scheduling; the private regions do not).
  std::uint64_t private_hits() const { return private_hits_; }
  std::uint64_t shared_hits() const { return shared_hits_; }
  double HitRate() const;
  double PrivateHitRate() const;

  /// Region accessors for inspection. Not synchronized: callers must
  /// quiesce concurrent Request/delivery activity first (e.g. via
  /// ForeCacheServer::WaitForPrefetch).
  const LruTileCache& history_cache() const { return history_; }
  const LruTileCache& prefetch_cache() const { return prefetch_; }

 private:
  storage::TileStore* store_;
  CacheManagerOptions options_;
  SharedTileCache* shared_;

  mutable std::mutex mu_;  ///< Guards history_, prefetch_, and the fill gate.
  LruTileCache history_;
  LruTileCache prefetch_;
  /// Fill gate: AcceptPrefetched only lands deliveries carrying the
  /// generation of the latest BeginPrefetch. Closed by Clear.
  std::uint64_t fill_generation_ = 0;
  bool fill_open_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> private_hits_{0};
  std::atomic<std::uint64_t> shared_hits_{0};
};

}  // namespace fc::core

#endif  // FORECACHE_CORE_CACHE_MANAGER_H_
