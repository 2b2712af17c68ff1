// Unit tests for the process-wide SharedTileCache: sharding, byte budgets,
// LRU eviction goldens, the compressed L2 tier, its retained blobs and the
// live tiles they promote to, cache-through fetch, and stat/byte
// conservation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/shared_tile_cache.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::core {
namespace {

/// Payload bytes of one 8x8 single-attribute test tile.
constexpr std::size_t kTileBytes = 8 * 8 * sizeof(double);

std::shared_ptr<tiles::TilePyramid> SmallPyramid(int levels = 4) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0,
                     static_cast<double>(x) * 0.01 + static_cast<double>(y));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = levels;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  EXPECT_TRUE(pyramid.ok());
  return *pyramid;
}

tiles::TilePtr FetchTile(storage::TileStore* store, const tiles::TileKey& key) {
  auto tile = store->Fetch(key);
  EXPECT_TRUE(tile.ok());
  return *tile;
}

/// One-shard L1-only cache holding `tiles` 8x8 test tiles.
SharedTileCacheOptions L1Only(std::size_t tiles) {
  SharedTileCacheOptions options;
  options.l1_bytes = tiles * kTileBytes;
  options.l2_bytes = 0;
  options.num_shards = 1;
  return options;
}

TEST(SharedTileCacheTest, LookupMissThenInsertThenHit) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache;

  EXPECT_EQ(cache.Lookup({0, 0, 0}), nullptr);
  cache.Insert({0, 0, 0}, FetchTile(&store, {0, 0, 0}));
  EXPECT_NE(cache.Lookup({0, 0, 0}), nullptr);
  EXPECT_TRUE(cache.Contains({0, 0, 0}));
  EXPECT_EQ(cache.size(), 1u);

  auto stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.l1_hits, 1u);
  EXPECT_EQ(stats.l2_hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.bytes_resident, kTileBytes);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(SharedTileCacheTest, GetOrFetchPopulatesAndDedupsSequentially) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache;

  ASSERT_TRUE(cache.GetOrFetch({1, 0, 0}, &store).ok());
  EXPECT_EQ(store.fetch_count(), 1u);
  ASSERT_TRUE(cache.GetOrFetch({1, 0, 0}, &store).ok());
  EXPECT_EQ(store.fetch_count(), 1u);  // second call served from cache
  EXPECT_TRUE(cache.GetOrFetch({9, 9, 9}, &store).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Deterministic eviction goldens: a fixed access sequence against a
// one-shard byte-budgeted cache must evict in exactly the predicted order
// with exact resident-byte accounting.

TEST(SharedTileCacheTest, LruEvictionGolden) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(L1Only(2));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 0, 1}, d{1, 1, 1};
  // Insert a, b -> resident {a, b}, next victim a.
  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));
  EXPECT_EQ(cache.Stats().bytes_resident, 2 * kTileBytes);
  // Touch a: victim order becomes b, a.
  EXPECT_NE(cache.Lookup(a), nullptr);
  // Insert c -> evicts b. Insert d -> evicts a. Exact order: b then a.
  cache.Insert(c, FetchTile(&store, c));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_TRUE(cache.Contains(a));
  cache.Insert(d, FetchTile(&store, d));
  EXPECT_FALSE(cache.Contains(a));
  EXPECT_TRUE(cache.Contains(c));
  EXPECT_TRUE(cache.Contains(d));

  auto stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  // Byte accounting is exact: two resident 8x8 tiles, all in L1.
  EXPECT_EQ(stats.bytes_resident, 2 * kTileBytes);
  EXPECT_EQ(stats.l1_bytes_resident, 2 * kTileBytes);
  EXPECT_EQ(stats.l2_bytes_resident, 0u);
}

TEST(SharedTileCacheTest, ByteBudgetSpreadAcrossShards) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 8 * kTileBytes;
  options.l2_bytes = 0;
  options.num_shards = 4;
  SharedTileCache cache(options);
  EXPECT_EQ(cache.num_shards(), 4u);

  for (const auto& key : pyramid->spec().KeysAtLevel(2)) {
    cache.Insert(key, FetchTile(&store, key));
  }
  // 16 level-2 tiles through an 8-tile budget: evictions happened, the
  // resident set honors per-shard bounds, and bookkeeping is conserved.
  EXPECT_LE(cache.size(), 8u);
  auto stats = cache.Stats();
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  EXPECT_EQ(stats.bytes_resident, cache.size() * kTileBytes);
}

TEST(SharedTileCacheTest, ClearEmptiesEveryShardAndResetsBytes) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache;
  cache.Insert({0, 0, 0}, FetchTile(&store, {0, 0, 0}));
  cache.Insert({1, 1, 1}, FetchTile(&store, {1, 1, 1}));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains({0, 0, 0}));
  EXPECT_EQ(cache.Stats().bytes_resident, 0u);
}

TEST(SharedTileCacheTest, InsertRefreshReplacesPayloadWithoutGrowth) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache;
  cache.Insert({0, 0, 0}, FetchTile(&store, {0, 0, 0}));
  cache.Insert({0, 0, 0}, FetchTile(&store, {0, 0, 0}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Stats().insertions, 1u);  // refresh is not an insertion
  EXPECT_EQ(cache.Stats().bytes_resident, kTileBytes);
}

TEST(SharedTileCacheTest, OversizedTilesAreServedButNotCached) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = kTileBytes / 2;  // below one tile
  options.num_shards = 1;
  SharedTileCache cache(options);

  auto tile = cache.GetOrFetch({1, 0, 0}, &store);
  ASSERT_TRUE(tile.ok());
  EXPECT_NE(*tile, nullptr);  // served
  EXPECT_EQ(cache.size(), 0u);  // strict budget: never cached
  auto stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.bytes_resident, 0u);
}

TEST(SharedTileCacheTest, AutoShardCountScalesWithBudget) {
  // Default (auto) sharding: a large budget stripes out fully...
  SharedTileCache big;  // default 64 MiB L1
  EXPECT_EQ(big.num_shards(), 16u);
  // ...while a tiny budget degrades to one stripe instead of slicing
  // itself into shards too small to cache anything.
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 4 * kTileBytes;
  SharedTileCache small(options);
  EXPECT_EQ(small.num_shards(), 1u);
  small.Insert({1, 0, 0}, FetchTile(&store, {1, 0, 0}));
  EXPECT_EQ(small.size(), 1u);  // tiny budgets still cache
}

TEST(SharedTileCacheTest, ManyTinyShardsNeverOvershootBudget) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  // Misconfigured: per-shard slice is far below one tile. The cache must
  // degrade to caching nothing, not balloon to one tile per shard.
  options.l1_bytes = 2 * kTileBytes;
  options.num_shards = 16;
  SharedTileCache cache(options);
  for (const auto& key : pyramid->spec().KeysAtLevel(2)) {
    cache.Insert(key, FetchTile(&store, key));
  }
  EXPECT_LE(cache.Stats().bytes_resident, options.l1_bytes);
}

TEST(SharedTileCacheTest, RefreshWithLargerPayloadReenforcesBudget) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(L1Only(2));
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));
  ASSERT_EQ(cache.Stats().bytes_resident, 2 * kTileBytes);

  // Refresh a with a payload bigger than the whole budget: enforcement
  // runs immediately (b demoted/evicted, then oversized a itself).
  auto big = tiles::Tile::Make(a, 16, 16, {"v"});
  ASSERT_TRUE(big.ok());
  cache.Insert(a, std::make_shared<const tiles::Tile>(std::move(*big)));
  auto stats = cache.Stats();
  EXPECT_LE(stats.bytes_resident, 2 * kTileBytes);
  EXPECT_EQ(cache.size(), 0u);  // both gone: strict budget, no L2
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
}

// ---------------------------------------------------------------------------
// The compressed L2 tier.

/// Two-tier one-shard cache: `l1_tiles` decoded tiles plus an L2 budget of
/// `l2_bytes`, compressed with the (lossless) raw codec so blob sizes are
/// exactly predictable by the test.
SharedTileCacheOptions Tiered(std::size_t l1_tiles, std::size_t l2_bytes) {
  SharedTileCacheOptions options;
  options.l1_bytes = l1_tiles * kTileBytes;
  options.l2_bytes = l2_bytes;
  options.num_shards = 1;
  options.codec = {storage::TileEncoding::kRawF64};
  return options;
}

TEST(SharedTileCacheTest, DemotedTileServesFromL2AndPromotesBack) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  // Blob size for the exact L2 budget: two compressed tiles fit.
  std::size_t blob_bytes =
      storage::TileCodec({storage::TileEncoding::kRawF64})
          .Encode(*FetchTile(&store, a))
          .size();
  SharedTileCache cache(Tiered(1, 2 * blob_bytes));

  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));  // a demoted to L2

  EXPECT_EQ(cache.l1_size(), 1u);
  EXPECT_EQ(cache.l2_size(), 1u);
  EXPECT_TRUE(cache.Contains(a));  // still resident, compressed
  auto stats = cache.Stats();
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.l2_bytes_resident, blob_bytes);

  // An L2 hit decodes, promotes a back into L1, and demotes b.
  auto tile = cache.Lookup(a);
  ASSERT_NE(tile, nullptr);
  EXPECT_EQ(tile->key(), a);
  EXPECT_DOUBLE_EQ(tile->At(0, 1, 0), FetchTile(&store, a)->At(0, 1, 0));
  stats = cache.Stats();
  EXPECT_EQ(stats.l2_hits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.demotions, 2u);  // b took a's place in L2
  EXPECT_GT(stats.decode_ns, 0u);
  EXPECT_EQ(cache.l1_size(), 1u);
  EXPECT_EQ(cache.l2_size(), 1u);
  EXPECT_TRUE(cache.Contains(b));
}

TEST(SharedTileCacheTest, L2BudgetForcesTrueEviction) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 0, 1};
  std::size_t blob_bytes =
      storage::TileCodec({storage::TileEncoding::kRawF64})
          .Encode(*FetchTile(&store, a))
          .size();
  // L2 holds exactly one blob: the second demotion evicts the first.
  SharedTileCache cache(Tiered(1, blob_bytes));

  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));  // a -> L2
  cache.Insert(c, FetchTile(&store, c));  // b -> L2, a truly evicted

  EXPECT_FALSE(cache.Contains(a));
  EXPECT_TRUE(cache.Contains(b));
  EXPECT_TRUE(cache.Contains(c));
  auto stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.demotions, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  EXPECT_EQ(stats.l2_bytes_resident, blob_bytes);
}

TEST(SharedTileCacheTest, DisabledL2MakesDemotionsEvictions) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(L1Only(1));
  cache.Insert({1, 0, 0}, FetchTile(&store, {1, 0, 0}));
  cache.Insert({1, 1, 0}, FetchTile(&store, {1, 1, 0}));
  EXPECT_FALSE(cache.Contains({1, 0, 0}));
  auto stats = cache.Stats();
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.l2_bytes_resident, 0u);
}

TEST(SharedTileCacheTest, QuantizedL2TierStaysWithinErrorBound) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = kTileBytes;  // one decoded tile
  options.l2_bytes = 1 << 20;
  options.num_shards = 1;
  options.codec = {storage::TileEncoding::kDeltaVarint, 1e-4};
  SharedTileCache cache(options);

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  auto original = FetchTile(&store, a);
  cache.Insert(a, original);
  cache.Insert(b, FetchTile(&store, b));  // a demoted, compressed lossily
  // The compressed blob is much smaller than the decoded payload.
  auto stats = cache.Stats();
  EXPECT_LT(stats.l2_bytes_resident, kTileBytes / 2);

  auto back = cache.Lookup(a);
  ASSERT_NE(back, nullptr);
  double max_err = 0.0;
  for (std::int64_t y = 0; y < 8; ++y) {
    for (std::int64_t x = 0; x < 8; ++x) {
      max_err = std::max(max_err,
                         std::abs(back->At(0, x, y) - original->At(0, x, y)));
    }
  }
  EXPECT_LE(max_err, 1e-4 / 2 + 1e-12);
}

/// One-shard cache holding one decoded tile over a roomy quantized L2.
SharedTileCacheOptions OneTileOverQuantizedL2() {
  SharedTileCacheOptions options;
  options.l1_bytes = kTileBytes;
  options.l2_bytes = 1 << 20;
  options.num_shards = 1;
  options.codec = {storage::TileEncoding::kDeltaVarint, 1e-4};
  return options;
}

std::vector<std::uint64_t> CellBits(const tiles::Tile& tile) {
  std::vector<std::uint64_t> bits(tile.AttrData(0).size());
  std::memcpy(bits.data(), tile.AttrData(0).data(), bits.size() * sizeof(double));
  return bits;
}

TEST(SharedTileCacheTest, RedemotionLandsThePromotedTilesOwnBlob) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(OneTileOverQuantizedL2());
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};

  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));  // a: L1 -> L2, encoded
  const std::uint64_t first_l2_bytes = cache.Stats().l2_bytes_resident;
  auto promoted = cache.Lookup(a);  // a: L2 -> L1; b: L1 -> L2, encoded
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(cache.Stats().blob_reuses, 0u);

  ASSERT_NE(cache.Lookup(b), nullptr);  // b: L2 -> L1; a: L1 -> L2 again
  auto stats = cache.Stats();
  EXPECT_EQ(stats.demotions, 3u);
  EXPECT_EQ(stats.blob_reuses, 1u);  // a landed the blob it came from
  // a alone in L2 again, with the same bytes as after its first demotion.
  EXPECT_EQ(stats.l2_bytes_resident, first_l2_bytes);
  EXPECT_EQ(stats.l1_bytes_resident, kTileBytes);  // the blob is not charged
  EXPECT_EQ(stats.tile_reuses, 0u);

  // The caller still holds the tile the landed blob was decoded from, so
  // the next promotion returns that very object instead of decoding.
  const std::uint64_t decode_ns = stats.decode_ns;
  auto again = cache.Lookup(a);
  EXPECT_EQ(again, promoted);
  stats = cache.Stats();
  EXPECT_EQ(stats.tile_reuses, 1u);
  EXPECT_EQ(stats.promotions, 3u);
  EXPECT_EQ(stats.decode_ns, decode_ns);  // no decode ran
  // The promotion kept the blob: a's next demotion lands it again.
  ASSERT_NE(cache.Lookup(b), nullptr);
  stats = cache.Stats();
  EXPECT_EQ(stats.blob_reuses, 3u);  // a's, b's, then a's again
  EXPECT_EQ(stats.l2_bytes_resident, first_l2_bytes);
}

TEST(SharedTileCacheTest, PromotionDecodesAnewOnceThePromotedTileIsDropped) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(OneTileOverQuantizedL2());
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};

  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));  // a -> L2, encoded
  auto promoted = cache.Lookup(a);        // a -> L1, decoded; b -> L2
  ASSERT_NE(promoted, nullptr);
  const std::vector<std::uint64_t> first_bits = CellBits(*promoted);
  ASSERT_NE(cache.Lookup(b), nullptr);  // a -> L2, landing its blob
  EXPECT_EQ(cache.Stats().blob_reuses, 1u);
  promoted.reset();  // the last strong reference: a's tile dies

  auto again = cache.Lookup(a);  // decoded anew from the landed blob
  ASSERT_NE(again, nullptr);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.tile_reuses, 0u);
  EXPECT_EQ(stats.promotions, 3u);
  EXPECT_EQ(CellBits(*again), first_bits);
}

TEST(SharedTileCacheTest, FetchedTilesFirstPromotionIsNeverTheFetchedObject) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(OneTileOverQuantizedL2());
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};

  // The fetched tile stays alive (the store's pyramid and this test hold
  // it), but its cells are not its quantized blob's, so a promotion must
  // decode the blob rather than hand the fetched object back.
  auto fetched = FetchTile(&store, a);
  cache.Insert(a, fetched);
  cache.Insert(b, FetchTile(&store, b));  // a -> L2, encoded lossily
  auto promoted = cache.Lookup(a);
  ASSERT_NE(promoted, nullptr);
  EXPECT_NE(promoted, fetched);
  EXPECT_EQ(cache.Stats().tile_reuses, 0u);
  auto want = storage::TileCodec::Decode(
      storage::TileCodec(OneTileOverQuantizedL2().codec).Encode(*fetched));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(CellBits(*promoted), CellBits(*want));
  EXPECT_NE(CellBits(*promoted), CellBits(*fetched));
}

// Promotions racing demotions on several threads. Each thread keeps its
// last few tiles alive, as session regions do, so many promotions hand
// back a live tile. Whatever the interleaving, a served tile carries
// either its fetched cells (inserted, never demoted) or exactly its blob's
// decoded cells, and the books balance. Run under TSan in CI.
TEST(SharedTileCacheTest, ConcurrentPromotionsServeFetchedOrBlobCells) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  auto pyramid = SmallPyramid(3);
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options = OneTileOverQuantizedL2();
  options.l1_bytes = 2 * kTileBytes;
  SharedTileCache cache(options);

  const auto keys = pyramid->spec().AllKeys();
  std::vector<std::vector<std::uint64_t>> fetched_bits, blob_bits;
  for (const auto& key : keys) {
    const auto tile = FetchTile(&store, key);
    auto decoded = storage::TileCodec::Decode(
        storage::TileCodec(options.codec).Encode(*tile));
    ASSERT_TRUE(decoded.ok());
    fetched_bits.push_back(CellBits(*tile));
    blob_bits.push_back(CellBits(*decoded));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(/*seed=*/300 + t);
      std::vector<tiles::TilePtr> held(8);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::size_t i =
            rng.UniformUint32(static_cast<std::uint32_t>(keys.size()));
        auto tile = cache.GetOrFetch(keys[i], &store);
        ASSERT_TRUE(tile.ok());
        ASSERT_EQ((*tile)->key(), keys[i]);
        const auto bits = CellBits(**tile);
        ASSERT_TRUE(bits == fetched_bits[i] || bits == blob_bits[i])
            << "key index " << i;
        held[static_cast<std::size_t>(op) % held.size()] = std::move(*tile);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.promotions, stats.l2_hits);
  EXPECT_GT(stats.tile_reuses, 0u);
  EXPECT_LE(stats.tile_reuses, stats.promotions);
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  EXPECT_EQ(stats.l1_bytes_resident, cache.l1_size() * kTileBytes);
}

TEST(SharedTileCacheTest, InsertDropsTheRetainedBlob) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(OneTileOverQuantizedL2());
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};

  cache.Insert(a, FetchTile(&store, a));
  cache.Insert(b, FetchTile(&store, b));  // a -> L2
  ASSERT_NE(cache.Lookup(a), nullptr);    // a -> L1 with its blob; b -> L2
  // New cells under the same key replace the promoted payload in place.
  auto fresh = tiles::Tile::Make(a, 8, 8, {"v"});
  ASSERT_TRUE(fresh.ok());
  for (std::size_t i = 0; i < fresh->AttrData(0).size(); ++i) {
    fresh->MutableAttrData(0)[i] = 1000.0 + static_cast<double>(i);
  }
  auto fresh_tile = std::make_shared<const tiles::Tile>(std::move(*fresh));
  cache.Insert(a, fresh_tile);

  ASSERT_NE(cache.Lookup(b), nullptr);  // a -> L2, encoded from new cells
  EXPECT_EQ(cache.Stats().blob_reuses, 0u);
  auto back = cache.Lookup(a);
  ASSERT_NE(back, nullptr);
  auto want = storage::TileCodec::Decode(
      storage::TileCodec(OneTileOverQuantizedL2().codec).Encode(*fresh_tile));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(CellBits(*back), CellBits(*want));
}

TEST(SharedTileCacheTest, StatsSnapshotSumsAreExactAfterDeterministicWorkload) {
  // The stats fix: counters live per shard and Stats() snapshots every
  // shard under its lock in index order, so sums are exact — no in-flight
  // shard deltas, no mixing one shard's pre-update counter with another's
  // post-update one. This golden drives a fixed workload across 4 shards
  // and checks every cross-counter identity exactly.
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 8 * kTileBytes;
  // Raw blobs carry a codec header on top of the payload, so give each
  // shard's L2 slice room for two of them.
  options.l2_bytes = 12 * kTileBytes;
  options.num_shards = 4;
  options.codec = {storage::TileEncoding::kRawF64};
  SharedTileCache cache(options);

  const auto keys = pyramid->spec().AllKeys();  // 85 keys >> budget
  std::uint64_t lookups = 0;
  for (const auto& key : keys) {
    ASSERT_TRUE(cache.GetOrFetch(key, &store).ok());
    ++lookups;
  }
  for (std::size_t i = 0; i < 20; ++i) {  // revisits: hits + promotions
    ASSERT_TRUE(cache.GetOrFetch(keys[i], &store).ok());
    ++lookups;
  }

  auto stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.hits, stats.l1_hits + stats.l2_hits);
  EXPECT_EQ(stats.promotions, stats.l2_hits);
  EXPECT_EQ(stats.admission_attempts,
            stats.insertions + stats.admission_rejects);
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::uint64_t>(cache.size()));
  // Byte sums are exact, not sampled: L1 holds uniform decoded tiles and
  // both tiers' residency adds up.
  EXPECT_EQ(stats.l1_bytes_resident, cache.l1_size() * kTileBytes);
  EXPECT_EQ(stats.bytes_resident,
            stats.l1_bytes_resident + stats.l2_bytes_resident);
  EXPECT_GT(stats.demotions, 0u);
  // Misses fetched from the store exactly once each (the cache-through
  // contract): fetches == misses.
  EXPECT_EQ(store.fetch_count(), stats.misses);
}

TEST(SharedTileCacheTest, GetOrFetchServesL2WithoutStoreFetch) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache cache(Tiered(1, 1 << 20));
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  ASSERT_TRUE(cache.GetOrFetch(a, &store).ok());
  ASSERT_TRUE(cache.GetOrFetch(b, &store).ok());  // a -> L2
  auto fetches = store.fetch_count();
  ASSERT_TRUE(cache.GetOrFetch(a, &store).ok());  // warm hit: decode, no DBMS
  EXPECT_EQ(store.fetch_count(), fetches);
  EXPECT_EQ(cache.Stats().l2_hits, 1u);
}

}  // namespace
}  // namespace fc::core
