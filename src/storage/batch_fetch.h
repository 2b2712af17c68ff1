// Batched backend I/O planning: how many queued tile fetches may ride one
// backend round trip.
//
// The paper's dominant cost is the backend round trip (a SciDB tile query
// measured ~984 ms, most of it fixed per-query overhead). One process
// serving many sessions knows about whole groups of needed tiles at once —
// the PrefetchScheduler's priority queue — yet issuing them one query per
// tile pays the fixed overhead once per tile. Khameleon's server-side
// scheduler and Kyrix's tile server both show the fix: form few large
// backend requests from the globally ordered demand. A BatchProfile
// describes what the backend can amortize, and BatchTileCap turns it into
// the per-round tile cap; each drain round pops min(queue depth, cap) of
// the top pending entries into one TileStore::FetchBatch round trip.
//
// The mechanism (multi-key fetch) lives on TileStore::FetchBatch; the
// landing (multi-owner cache admission) on SharedTileCache::
// GetOrFetchSharedBatch; the call site in PrefetchScheduler's drain loop,
// which already sees the global priority order. See docs/backend-io.md.

#ifndef FORECACHE_STORAGE_BATCH_FETCH_H_
#define FORECACHE_STORAGE_BATCH_FETCH_H_

#include <cstddef>

namespace fc::storage {

/// What one backend can amortize per round trip. Defaults describe "no
/// batching" so every embedding opts in deliberately — a profile of
/// max_batch_tiles = 1 reproduces the per-tile drain bit for bit.
struct BatchProfile {
  /// Upper bound on tiles per backend round trip. 1 disables batching;
  /// 0 is treated as 1. SciDB-style backends take ~8-64 ranges per query
  /// before the scan stops amortizing; a disk store is bounded by how many
  /// reads one submission batch should carry.
  std::size_t max_batch_tiles = 1;

  /// Upper bound on decoded payload bytes per round trip (0 = unbounded).
  /// Sized against the backend's response buffer; BatchTileCap converts it
  /// into a tile cap via the pyramid's nominal tile size.
  std::size_t max_batch_bytes = 0;
};

/// The per-round-trip tile cap of `profile`, always >= 1: max_batch_tiles,
/// lowered to the number of `nominal_tile_bytes` tiles that fit in
/// max_batch_bytes (floor division, so a full batch of nominal tiles stays
/// within the byte bound; a bound smaller than one tile still allows
/// single-tile trips). `nominal_tile_bytes` 0 leaves the byte bound
/// unapplied.
std::size_t BatchTileCap(const BatchProfile& profile,
                         std::size_t nominal_tile_bytes = 0);

}  // namespace fc::storage

#endif  // FORECACHE_STORAGE_BATCH_FETCH_H_
