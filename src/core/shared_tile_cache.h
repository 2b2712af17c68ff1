// SharedTileCache: the process-wide middleware tile cache.
//
// Paper section 6.2 leaves the multi-user setting as future work; this is
// our answer to it. Every session keeps its small private history/prefetch
// regions (CacheManager), but all sessions share one byte-budgeted tile
// cache underneath, so a tile fetched for one user is a memory hit for every
// other user exploring the same region — the DBMS sees each hot tile once,
// not once per session.
//
// Memory governance is byte-accurate and two-tiered:
//  * L1 holds decoded tiles ready to serve, bounded by `l1_bytes`.
//  * L2 (optional) holds codec-compressed blobs of tiles demoted from L1,
//    bounded by `l2_bytes`. An L2 hit decodes the blob, promotes the tile
//    back into L1, and costs decode time instead of a DBMS query. Only when
//    the L2 budget is exhausted is a tile truly evicted from the process.
//  * Each tier evicts its least-recently-used entry first (L1 hits and
//    refreshes re-age; L2 is ordered by demotion time).
//  * A promoted tile keeps the blob it was decoded from. Tiles are
//    immutable and the codec is a fixed point on its own output
//    (Encode(Decode(b)) == b; CodecPropertyTest names the one exception,
//    delta-varint cells at 2^51..2^52 quanta, which a re-encode would move
//    by a quantum), so when that tile is demoted again the retained blob
//    lands in L2 as is, instead of being encoded anew: same bytes, same L2
//    accounting, no codec work. Any Insert that replaces the entry's
//    payload drops the blob. The retained blob is not charged to
//    `l1_bytes` — it is a fraction (1 / compression ratio) of the tile.
//  * A blob landed that way also remembers, through a weak_ptr, the tile
//    it was decoded from. That tile is exactly Decode(blob), so while a
//    session region, a queued stream chunk or any other holder keeps it
//    alive, the next promotion returns that very object instead of
//    decoding again: no codec work, and the tile keeps its identity (the
//    stream's plan memo recognises it). A freshly demoted tile gets no
//    such pointer: under a lossy codec its cells differ from its blob's.
//    The weak_ptr keeps no cells alive, so nothing more is charged to
//    `l2_bytes`.
//
// Multi-tenant fairness (this PR): admission into L1 is policy-gated. A
// TinyLFU frequency sketch (see core/admission.h) rejects cold tiles that
// would displace warmer ones, so a scan-heavy session cannot flush every
// other session's hot set; prefetch fills carrying high prediction
// confidence bypass the filter (priority admission); and optional
// per-session byte quotas bound how much L1 any one session's fetches may
// occupy — quota pressure evicts the offender's own oldest tiles, never a
// neighbor's. Callers identify themselves per access via CacheAccess.
//
// Concurrency: the key space is striped across shards, each with its own
// mutex, per-tier eviction state, admission policy, and stat counters.
// Counters are plain integers mutated only under their shard's lock;
// Stats() locks every shard in index order and sums, so a snapshot never
// mixes a shard's pre-update counter with another's post-update one.

#ifndef FORECACHE_CORE_SHARED_TILE_CACHE_H_
#define FORECACHE_CORE_SHARED_TILE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "core/admission.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "tiles/tile.h"
#include "tiles/tile_key.h"

namespace fc::core {

/// Who is touching the cache, and how sure the prediction engine was that
/// they would. Defaults describe an anonymous demand access: subject to the
/// admission filter, exempt from (and uncharged against) session quotas.
struct CacheAccess {
  /// Stable nonzero id of the requesting session; 0 = anonymous.
  std::uint64_t session_id = 0;
  /// Prediction confidence in [0, 1] for prefetch fills (0 for demand
  /// requests). At or above AdmissionOptions::priority_confidence the
  /// frequency filter is bypassed.
  double confidence = 0.0;
};

struct SharedTileCacheOptions {
  /// Byte budget of the decoded (L1) tier, summed Tile::SizeBytes.
  std::size_t l1_bytes = 64ull << 20;
  /// Byte budget of the compressed (L2) tier, summed blob bytes. 0 disables
  /// the tier: tiles demoted from L1 are evicted outright.
  std::size_t l2_bytes = 0;
  /// Lock stripes. 0 (the default) picks automatically: up to 16 shards,
  /// but never so many that a shard's L1 slice drops below a few MiB — a
  /// small budget degrades to fewer stripes, not to uncacheable slivers.
  /// Explicit values are honored as-is. Budgets are ceil-divided across
  /// shards and enforced strictly per shard: a tile larger than its
  /// shard's slice is served but never cached, so when setting this
  /// explicitly keep l1_bytes / num_shards comfortably above one tile.
  std::size_t num_shards = 0;
  /// Encoding for L2 blobs. The default delta-varint quantization bounds
  /// absolute error at quant_step/2 — set encoding = kRawF64 for a lossless
  /// (but incompressible) warm tier.
  storage::TileCodecOptions codec{storage::TileEncoding::kDeltaVarint, 1e-4};
  /// Admission control (default: admit everything, the pre-PR-3 behavior).
  AdmissionOptions admission;
  /// Per-session L1 byte quota, ceil-divided across shards like the tier
  /// budgets. 0 disables quotas; anonymous accesses (session_id 0) are
  /// never charged. A session over its quota in a shard evicts its own
  /// oldest tiles there, leaving other sessions' residency untouched.
  std::size_t session_quota_bytes = 0;
};

/// Point-in-time counters, summed over a consistent all-shards snapshot.
/// Invariants: hits == l1_hits + l2_hits; hits + misses == lookups;
/// admission_attempts == insertions + admission_rejects; and once no
/// operation is in flight, insertions - evictions == resident tiles across
/// both tiers (modulo Clear).
struct SharedTileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;  ///< True drops out of the process.

  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t demotions = 0;   ///< L1 -> L2 compactions.
  /// Demotions that landed the blob a promoted tile was decoded from
  /// instead of encoding the tile again (a subset of demotions).
  std::uint64_t blob_reuses = 0;
  std::uint64_t promotions = 0;  ///< L2 -> L1 promotions (== l2_hits).
  /// Promotions that returned the live tile the blob was decoded from
  /// instead of decoding it (a subset of promotions).
  std::uint64_t tile_reuses = 0;

  std::uint64_t encode_ns = 0;  ///< Total time compressing demoted tiles.
  std::uint64_t decode_ns = 0;  ///< Total time decoding L2 hits.

  /// Offers of a not-yet-resident tile to L1 (demand publishes, prefetch
  /// fills, and promotions whose L2 copy vanished mid-decode). Every
  /// attempt either becomes an insertion or an admission_reject.
  std::uint64_t admission_attempts = 0;
  /// Attempts refused: colder than every victim they would displace, or
  /// oversized for the shard budget / session quota.
  std::uint64_t admission_rejects = 0;
  /// Admissions that bypassed the frequency filter on high prediction
  /// confidence (only counted when the filter would actually have run).
  std::uint64_t priority_admits = 0;
  /// L1 entries displaced because their owning session exceeded its quota
  /// (they demote to L2 like any other displacement when the tier exists).
  std::uint64_t quota_evictions = 0;

  std::uint64_t l1_bytes_resident = 0;
  std::uint64_t l2_bytes_resident = 0;
  std::uint64_t bytes_resident = 0;  ///< Both tiers.

  double HitRate() const {
    auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded, thread-safe, byte-budgeted two-tier tile cache with policy-gated
/// admission and per-session fairness quotas.
class SharedTileCache {
 public:
  explicit SharedTileCache(SharedTileCacheOptions options = {});

  /// Returns the cached tile, or null. An L1 hit freshens the entry; an L2
  /// hit promotes the tile back into L1, keeping the blob for a later
  /// re-demotion: the live tile the blob was decoded from when one
  /// survives, else the blob decoded anew. Every lookup feeds the
  /// admission policy's frequency model.
  tiles::TilePtr Lookup(const tiles::TileKey& key,
                        const CacheAccess& access = {});

  /// Offers a tile to L1 (or refreshes the resident copy), demoting and
  /// evicting per policy until byte budgets and quotas hold. A new tile may
  /// be rejected by the admission filter — it is simply not cached. Null
  /// tiles are ignored.
  void Insert(const tiles::TileKey& key, tiles::TilePtr tile,
              const CacheAccess& access = {});

  /// Cache-through fetch: Lookup, and on a miss fetch from `store` and
  /// Insert. Concurrent misses on the same key may each fetch unless `store`
  /// is a SingleFlightTileStore (the SessionManager wires one in).
  Result<tiles::TilePtr> GetOrFetch(const tiles::TileKey& key,
                                    storage::TileStore* store,
                                    const CacheAccess& access = {});

  /// Outcome of a merged (multi-subscriber) cache-through fetch.
  struct SharedFetch {
    tiles::TilePtr tile;
    bool fetched = false;  ///< True when the backing store was queried.
  };

  /// One tile of a batched multi-owner fetch: the key and every scheduler
  /// subscription riding it.
  struct SharedBatchItem {
    tiles::TileKey key;
    std::vector<CacheAccess> subscribers;
  };

  /// Multi-owner cache-through fetch for the cross-session prefetch
  /// scheduler: one fill serves every subscriber of an item. Each
  /// subscriber's intent feeds the admission frequency model (a tile many
  /// sessions predict is warm by consensus), the fill itself runs as an
  /// anonymous access whose confidence is the capped SUM of subscriber
  /// confidences — so priority admission judges the aggregate, not any
  /// single session — and the resulting L1 entry is unowned (exempt from
  /// per-session quotas: a tile serving many sessions is charged to none
  /// of them). All cache misses travel in ONE TileStore::FetchBatch round
  /// trip — the backend's fixed per-query cost is paid once per batch
  /// instead of once per missing tile. Keys must be distinct. Returns one
  /// result per item, parallel to `items`; a failed slot fails alone. The
  /// PrefetchScheduler counts the merges, dedups and round trips
  /// (PrefetchSchedulerStats). Thread-safe.
  std::vector<Result<SharedFetch>> GetOrFetchSharedBatch(
      const std::vector<SharedBatchItem>& items, storage::TileStore* store);

  /// Lookup in either tier without stats, promotion, frequency, or recency
  /// effects. Thread-safe (single shard lock).
  bool Contains(const tiles::TileKey& key) const;

  /// Drops every tile in both tiers of every shard. Counters (and the
  /// admission sketches' learned frequencies) are NOT reset. Thread-safe,
  /// but not atomic across shards with respect to concurrent inserts.
  void Clear();

  /// Resident tiles across both tiers. Thread-safe; the per-tier
  /// breakdowns below each lock shards independently, so under concurrent
  /// churn size() may not equal l1_size() + l2_size() exactly.
  std::size_t size() const;
  std::size_t l1_size() const;
  std::size_t l2_size() const;
  std::size_t l1_budget_bytes() const { return options_.l1_bytes; }
  std::size_t l2_budget_bytes() const { return options_.l2_bytes; }
  std::size_t session_quota_bytes() const { return options_.session_quota_bytes; }
  std::size_t num_shards() const { return shards_.size(); }

  /// L1 bytes currently charged to `session_id`, summed across shards.
  std::size_t SessionL1Bytes(std::uint64_t session_id) const;

  /// Consistent snapshot: all shards locked (in index order) for the read.
  SharedTileCacheStats Stats() const;

 private:
  struct L1Entry {
    tiles::TilePtr tile;
    std::size_t bytes = 0;
    /// Session whose fetch pays for this entry (0 = unowned).
    std::uint64_t owner = 0;
    /// Position in Shard::l1_order (eviction queue).
    std::list<tiles::TileKey>::iterator order_it;
    /// Position in Shard::session_l1_order[owner]; valid iff owner != 0.
    std::list<tiles::TileKey>::iterator owner_order_it;
    /// The L2 blob `tile` was decoded from (null unless promoted and not
    /// replaced since). Not charged to l1_bytes.
    std::shared_ptr<const std::string> blob;
  };

  struct L2Entry {
    /// Shared so a warm hit grabs a refcount under the shard lock and
    /// decodes outside it — never an O(blob) copy behind the stripe.
    std::shared_ptr<const std::string> blob;
    /// Preserved through the demote/promote cycle for quota accounting.
    std::uint64_t owner = 0;
    /// Position in Shard::l2_order.
    std::list<tiles::TileKey>::iterator order_it;
    /// The tile `blob` was decoded from, set only when a retained blob
    /// landed (so the tile is exactly Decode(blob)). A promotion that
    /// finds it alive returns it instead of decoding.
    std::weak_ptr<const tiles::Tile> decoded;
  };

  /// Plain counters, guarded by the owning shard's mutex. Stats() sums them
  /// under an all-shards lock so global invariants read consistently.
  struct ShardCounters {
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t blob_reuses = 0;
    std::uint64_t tile_reuses = 0;
    std::uint64_t encode_ns = 0;
    std::uint64_t decode_ns = 0;
    std::uint64_t admission_attempts = 0;
    std::uint64_t admission_rejects = 0;
    std::uint64_t priority_admits = 0;
    std::uint64_t quota_evictions = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<tiles::TileKey, L1Entry, tiles::TileKeyHash> l1;
    std::unordered_map<tiles::TileKey, L2Entry, tiles::TileKeyHash> l2;
    /// Eviction queues, front = next victim. L1 entries move to the back
    /// on every hit and refresh; L2 is ordered by demotion time.
    std::list<tiles::TileKey> l1_order;
    std::list<tiles::TileKey> l2_order;
    std::size_t l1_bytes = 0;
    std::size_t l2_bytes = 0;
    /// L1 bytes charged per owning session (no entry once a session drops
    /// to zero). Sums to l1_bytes minus unowned entries' bytes.
    std::unordered_map<std::uint64_t, std::size_t> session_l1_bytes;
    /// Per-owner eviction queues mirroring l1_order's relative order
    /// (front = the session's next quota victim), so quota victim
    /// selection costs O(victims), not O(shard population).
    std::unordered_map<std::uint64_t, std::list<tiles::TileKey>>
        session_l1_order;
    /// Never null; called only under mu.
    std::unique_ptr<AdmissionPolicy> admission;
    ShardCounters counters;
  };

  /// A tile popped from L1 whose compression (and L2 insertion or eviction)
  /// happens after the shard lock is released, so codec work never blocks
  /// other threads' lookups on the shard.
  struct PendingDemotion {
    tiles::TileKey key;
    tiles::TilePtr tile;
    std::uint64_t owner = 0;
    /// The entry's retained blob: landed instead of encoding `tile`.
    std::shared_ptr<const std::string> blob;
  };

  /// Why AdmitToL1 refused a tile (callers decide which counters move).
  enum class AdmitOutcome { kAdmitted, kRejectedByFilter, kRejectedOversized };

  /// Stable 64-bit key hash feeding the per-shard frequency sketch.
  static std::uint64_t KeyHash(const tiles::TileKey& key);

  Shard& ShardFor(const tiles::TileKey& key);
  const Shard& ShardFor(const tiles::TileKey& key) const;

  /// Charges `entry` (bytes + a slot at the back of the owner's eviction
  /// queue, recorded in entry.owner_order_it) to entry.owner in `shard`.
  /// No-op for the anonymous owner 0. Caller holds shard.mu.
  static void ChargeOwner(Shard& shard, const tiles::TileKey& key,
                          L1Entry& entry);

  /// Reverses ChargeOwner (the owner's byte and queue records are erased
  /// when they empty). Caller holds shard.mu.
  static void DischargeOwner(Shard& shard, const L1Entry& entry);

  /// Detaches the L1 entry at `it` (order list, byte and quota accounting)
  /// and appends its payload to `pending` for demotion. Caller holds
  /// shard.mu.
  void DetachFromL1(
      Shard& shard,
      std::unordered_map<tiles::TileKey, L1Entry, tiles::TileKeyHash>::iterator it,
      std::vector<PendingDemotion>* pending);

  /// Offers a decoded tile to a shard's L1: runs the admission filter
  /// (unless `bypass_filter` — priority admissions and L2 promotions skip
  /// it), then inserts, then pops quota and budget victims into `pending`.
  /// With `count_priority` (confidence-bypassed new-tile offers under a
  /// real filter), priority_admits is bumped iff the filter would actually
  /// have judged foreign victims. Caller holds shard.mu and has ensured
  /// `key` is in neither tier; caller must pass `pending` to
  /// FinishDemotions after releasing the lock and move its own
  /// attempt/insertion/reject counters per the outcome.
  AdmitOutcome AdmitToL1(Shard& shard, const tiles::TileKey& key,
                         tiles::TilePtr tile, const CacheAccess& access,
                         bool bypass_filter, bool count_priority,
                         std::vector<PendingDemotion>* pending);

  /// Lands an L2 hit on `key` in L1 and returns the tile to serve: `tile`
  /// (the live tile `blob` was decoded from, or `blob` decoded anew),
  /// admitted with the filter bypassed and `blob` retained, or the L1 copy
  /// a concurrent promotion or insert landed first. Drops the L2 entry if
  /// it is still there. A null `tile` (the decode failed its checksum)
  /// counts a miss and returns null. Caller holds shard.mu and must pass
  /// `pending` to FinishDemotions after releasing it.
  tiles::TilePtr PromoteLocked(Shard& shard, const tiles::TileKey& key,
                               tiles::TilePtr tile,
                               std::shared_ptr<const std::string> blob,
                               const CacheAccess& access,
                               std::vector<PendingDemotion>* pending);

  /// Pops L1 victims into `pending` while the shard is over its L1 budget.
  /// Caller holds shard.mu.
  void CollectL1Overflow(Shard& shard, std::vector<PendingDemotion>* pending);

  /// Pops `session`'s own oldest L1 entries into `pending` while it is over
  /// its per-shard quota, counting quota_evictions. Caller holds shard.mu.
  void CollectQuotaOverflow(Shard& shard, std::uint64_t session,
                            std::vector<PendingDemotion>* pending);

  /// Compresses pending victims that retain no blob (outside any lock),
  /// then re-acquires shard.mu to land them in L2 or count their eviction
  /// (blob_reuses counts landed retained blobs, whose L2 entries remember
  /// their tile in L2Entry::decoded). A victim whose
  /// key re-entered the cache in the meantime is dropped as an eviction
  /// (the newer copy owns the residency).
  void FinishDemotions(Shard& shard, std::vector<PendingDemotion> pending);

  /// Drops one L2 victim. Caller holds shard.mu; shard.l2 must be nonempty.
  void EvictFromL2(Shard& shard);

  SharedTileCacheOptions options_;
  storage::TileCodec codec_;
  std::size_t shard_l1_bytes_;
  std::size_t shard_l2_bytes_;
  std::size_t shard_quota_bytes_;  ///< 0 when quotas are disabled.
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Registers a pull-mode source exporting `cache`'s Stats() into `registry`
/// under fc.cache.* (counters for the monotone fields, gauges for resident
/// bytes). The cache must outlive the source; remove it with
/// MetricsRegistry::RemoveSource using the returned id before destroying the
/// cache. Snapshot() takes the registry mutex first, then the shard locks —
/// the recording paths never take the registry mutex, so no cycle.
std::uint64_t RegisterSharedTileCacheMetrics(telemetry::MetricsRegistry* registry,
                                             const SharedTileCache* cache);

}  // namespace fc::core

#endif  // FORECACHE_CORE_SHARED_TILE_CACHE_H_
