// Unit tests for allocation strategies, list merging, the two-level
// prediction engine, the LRU tile cache, and the cache manager.

#include <gtest/gtest.h>

#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/cache_manager.h"
#include "core/prediction_engine.h"
#include "core/prefetch_scheduler.h"
#include "core/tile_cache.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::core {
namespace {

tiles::PyramidSpec Spec(int levels = 3) {
  tiles::PyramidSpec spec;
  spec.num_levels = levels;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 8 << (levels - 1);
  spec.base_height = 8 << (levels - 1);
  return spec;
}

std::shared_ptr<tiles::TilePyramid> SmallPyramid(int levels = 3) {
  auto spec = Spec(levels);
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, spec.base_height, 8},
       array::Dimension{"x", 0, spec.base_width, 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < spec.base_height; ++y) {
    for (std::int64_t x = 0; x < spec.base_width; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0, static_cast<double>(x + y));
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

TileRequest Req(tiles::TileKey tile, std::optional<Move> move) {
  TileRequest r;
  r.tile = tile;
  r.move = move;
  return r;
}

// ---------------------------------------------------------------------------
// Allocation strategies

TEST(AllocationTest, PhaseStrategyMatchesPaperSection44) {
  PhaseAllocationStrategy strategy;
  auto nav = strategy.Allocate(AnalysisPhase::kNavigation, 6);
  EXPECT_EQ(nav.ab_slots, 6u);
  EXPECT_EQ(nav.sb_slots, 0u);
  auto sense = strategy.Allocate(AnalysisPhase::kSensemaking, 6);
  EXPECT_EQ(sense.ab_slots, 0u);
  EXPECT_EQ(sense.sb_slots, 6u);
  auto forage = strategy.Allocate(AnalysisPhase::kForaging, 6);
  EXPECT_EQ(forage.ab_slots, 3u);
  EXPECT_EQ(forage.sb_slots, 3u);
  auto forage_odd = strategy.Allocate(AnalysisPhase::kForaging, 5);
  EXPECT_EQ(forage_odd.ab_slots + forage_odd.sb_slots, 5u);
}

TEST(AllocationTest, HybridStrategyMatchesPaperSection543) {
  HybridAllocationStrategy strategy;
  // Sensemaking: SB only.
  auto sense = strategy.Allocate(AnalysisPhase::kSensemaking, 8);
  EXPECT_EQ(sense.ab_slots, 0u);
  EXPECT_EQ(sense.sb_slots, 8u);
  // Otherwise: first min(4, k) from AB, remainder from SB.
  auto k3 = strategy.Allocate(AnalysisPhase::kNavigation, 3);
  EXPECT_EQ(k3.ab_slots, 3u);
  EXPECT_EQ(k3.sb_slots, 0u);
  auto k8 = strategy.Allocate(AnalysisPhase::kForaging, 8);
  EXPECT_EQ(k8.ab_slots, 4u);
  EXPECT_EQ(k8.sb_slots, 4u);
  EXPECT_TRUE(k8.ab_first);
}

TEST(AllocationTest, FixedStrategySplits) {
  FixedAllocationStrategy all_ab("all-ab", 1.0);
  auto a = all_ab.Allocate(AnalysisPhase::kForaging, 5);
  EXPECT_EQ(a.ab_slots, 5u);
  FixedAllocationStrategy all_sb("all-sb", 0.0);
  auto b = all_sb.Allocate(AnalysisPhase::kNavigation, 5);
  EXPECT_EQ(b.sb_slots, 5u);
  FixedAllocationStrategy half("half", 0.5);
  auto c = half.Allocate(AnalysisPhase::kForaging, 4);
  EXPECT_EQ(c.ab_slots, 2u);
  EXPECT_EQ(c.sb_slots, 2u);
}

// ---------------------------------------------------------------------------
// MergeRankedLists

TEST(MergeTest, AbFirstThenSb) {
  RankedTiles ab = {{1, 0, 0}, {1, 1, 0}, {1, 0, 1}};
  RankedTiles sb = {{1, 1, 1}, {1, 0, 0}};
  Allocation alloc;
  alloc.ab_slots = 2;
  alloc.sb_slots = 2;
  alloc.ab_first = true;
  auto merged = MergeRankedLists(ab, sb, alloc, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0], (tiles::TileKey{1, 0, 0}));
  EXPECT_EQ(merged[1], (tiles::TileKey{1, 1, 0}));
  EXPECT_EQ(merged[2], (tiles::TileKey{1, 1, 1}));  // sb's top
  // sb's duplicate {1,0,0} skipped; ab overflow fills the last slot.
  EXPECT_EQ(merged[3], (tiles::TileKey{1, 0, 1}));
}

TEST(MergeTest, DuplicatesNeverAppear) {
  RankedTiles ab = {{1, 0, 0}, {1, 1, 0}};
  RankedTiles sb = {{1, 0, 0}, {1, 1, 0}};
  Allocation alloc;
  alloc.ab_slots = 2;
  alloc.sb_slots = 2;
  auto merged = MergeRankedLists(ab, sb, alloc, 4);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeTest, EmptySecondListOverflowsFirst) {
  RankedTiles ab = {{1, 0, 0}, {1, 1, 0}, {1, 0, 1}};
  Allocation alloc;
  alloc.ab_slots = 1;
  alloc.sb_slots = 2;
  auto merged = MergeRankedLists(ab, {}, alloc, 3);
  EXPECT_EQ(merged.size(), 3u);  // ab overflow fills sb's unused slots
}

TEST(MergeTest, CapsAtK) {
  RankedTiles ab = {{1, 0, 0}, {1, 1, 0}, {1, 0, 1}, {1, 1, 1}};
  Allocation alloc;
  alloc.ab_slots = 4;
  alloc.sb_slots = 4;
  auto merged = MergeRankedLists(ab, ab, alloc, 2);
  EXPECT_EQ(merged.size(), 2u);
}

// ---------------------------------------------------------------------------
// PredictionEngine

TEST(PredictionEngineTest, SingleModelEngineRanksAndTrims) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ab->Train({}).ok());
  FixedAllocationStrategy all_ab("all-ab", 1.0);
  PredictionEngineOptions options;
  options.prefetch_k = 3;
  PredictionEngine engine(&spec, nullptr, &*ab, nullptr, &all_ab, options);

  auto prediction = engine.OnRequest(Req({1, 0, 0}, std::nullopt));
  ASSERT_TRUE(prediction.ok());
  EXPECT_LE(prediction->tiles.size(), 3u);
  EXPECT_FALSE(prediction->tiles.empty());
  EXPECT_EQ(prediction->phase, engine.fallback_phase);
}

TEST(PredictionEngineTest, MissingModelCedesSlots) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ab->Train({}).ok());
  // Strategy wants SB-only for Sensemaking, but no SB model exists; the AB
  // model must still fill the budget.
  HybridAllocationStrategy strategy;
  PredictionEngineOptions options;
  options.prefetch_k = 4;
  PredictionEngine engine(&spec, nullptr, &*ab, nullptr, &strategy, options);
  engine.fallback_phase = AnalysisPhase::kSensemaking;
  auto prediction = engine.OnRequest(Req({1, 1, 1}, Move::kPanRight));
  ASSERT_TRUE(prediction.ok());
  EXPECT_FALSE(prediction->tiles.empty());
}

TEST(PredictionEngineTest, StateAccumulatesAndResets) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ab->Train({}).ok());
  FixedAllocationStrategy all_ab("all-ab", 1.0);
  PredictionEngine engine(&spec, nullptr, &*ab, nullptr, &all_ab);

  ASSERT_TRUE(engine.OnRequest(Req({0, 0, 0}, std::nullopt)).ok());
  ASSERT_TRUE(engine.OnRequest(Req({1, 0, 0}, Move::kZoomInNW)).ok());
  ASSERT_TRUE(engine.OnRequest(Req({0, 0, 0}, Move::kZoomOut)).ok());
  EXPECT_EQ(engine.history().size(), 3u);
  EXPECT_EQ(engine.roi_tracker().roi().size(), 1u);  // committed by zoom-out

  engine.Reset();
  EXPECT_TRUE(engine.history().empty());
  EXPECT_TRUE(engine.roi_tracker().roi().empty());
}

TEST(PredictionEngineTest, PredictionsAreNeighbors) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ab->Train({}).ok());
  FixedAllocationStrategy all_ab("all-ab", 1.0);
  PredictionEngineOptions options;
  options.prefetch_k = 9;
  PredictionEngine engine(&spec, nullptr, &*ab, nullptr, &all_ab, options);
  auto prediction = engine.OnRequest(Req({1, 1, 1}, Move::kPanRight));
  ASSERT_TRUE(prediction.ok());
  for (const auto& tile : prediction->tiles) {
    EXPECT_TRUE(MoveBetween({1, 1, 1}, tile).has_value())
        << tile.ToString() << " is not one move from L1/1/1";
  }
}

// ---------------------------------------------------------------------------
// LruTileCache

tiles::TilePtr DummyTile(tiles::TileKey key) {
  auto tile = tiles::Tile::Make(key, 2, 2, {"v"});
  return std::make_shared<const tiles::Tile>(std::move(*tile));
}

/// Payload bytes of one DummyTile — budgets below are "N dummy tiles".
constexpr std::size_t kDummyTileBytes = 2 * 2 * sizeof(double);

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruTileCache cache(2 * kDummyTileBytes);
  cache.Put({0, 0, 0}, DummyTile({0, 0, 0}));
  cache.Put({1, 0, 0}, DummyTile({1, 0, 0}));
  ASSERT_TRUE(cache.Get({0, 0, 0}).ok());  // promote {0,0,0}
  cache.Put({2, 0, 0}, DummyTile({2, 0, 0}));  // evicts {1,0,0}
  EXPECT_TRUE(cache.Contains({0, 0, 0}));
  EXPECT_FALSE(cache.Contains({1, 0, 0}));
  EXPECT_TRUE(cache.Contains({2, 0, 0}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, HitMissStats) {
  LruTileCache cache(4 * kDummyTileBytes);
  cache.Put({0, 0, 0}, DummyTile({0, 0, 0}));
  EXPECT_TRUE(cache.Get({0, 0, 0}).ok());
  EXPECT_FALSE(cache.Get({1, 0, 0}).ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(LruCacheTest, PutRefreshesExisting) {
  LruTileCache cache(2 * kDummyTileBytes);
  cache.Put({0, 0, 0}, DummyTile({0, 0, 0}));
  cache.Put({1, 0, 0}, DummyTile({1, 0, 0}));
  cache.Put({0, 0, 0}, DummyTile({0, 0, 0}));  // refresh, not duplicate
  EXPECT_EQ(cache.size(), 2u);
  auto keys = cache.KeysByRecency();
  EXPECT_EQ(keys[0], (tiles::TileKey{0, 0, 0}));
}

TEST(LruCacheTest, EraseAndClear) {
  LruTileCache cache(4 * kDummyTileBytes);
  cache.Put({0, 0, 0}, DummyTile({0, 0, 0}));
  cache.Erase({0, 0, 0});
  EXPECT_FALSE(cache.Contains({0, 0, 0}));
  cache.Erase({9, 9, 9});  // no-op
  cache.Put({1, 0, 0}, DummyTile({1, 0, 0}));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ZeroBudgetStillAdmitsOneTile) {
  LruTileCache cache(0);
  cache.Put({0, 0, 0}, DummyTile({0, 0, 0}));
  EXPECT_EQ(cache.size(), 1u);  // oversized entries are held alone
  EXPECT_EQ(cache.bytes_resident(), kDummyTileBytes);
}

// ---------------------------------------------------------------------------
// CacheManager

/// Fills one manager's prefetch region the way ForeCacheServer does without
/// an executor: plan, publish into its own pull-mode queue, drain inline.
class PullModeFill {
 public:
  PullModeFill(storage::TileStore* store, CacheManager* manager)
      : manager_(manager), scheduler_(store, /*executor=*/nullptr, nullptr) {
    session_ = scheduler_.RegisterSession(
        1, [manager](const tiles::TileKey& key, const tiles::TilePtr& tile,
                     std::uint64_t generation, double, std::uint64_t) {
          manager->AcceptPrefetched(key, tile, generation);
        });
  }

  void Fill(const std::vector<tiles::TileKey>& predictions) {
    ++generation_;
    scheduler_.Publish(session_, generation_,
                       manager_->BeginPrefetch(predictions, {}, generation_));
    while (scheduler_.DrainOne()) {
    }
  }

  PrefetchSchedulerStats Stats() const { return scheduler_.Stats(); }

 private:
  CacheManager* manager_;
  PrefetchScheduler scheduler_;
  std::uint64_t session_ = 0;
  std::uint64_t generation_ = 0;
};

TEST(CacheManagerTest, MissThenHit) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);

  auto first = manager.Request({1, 0, 0});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = manager.Request({1, 0, 0});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_DOUBLE_EQ(manager.HitRate(), 0.5);
}

TEST(CacheManagerTest, PrefetchedTilesHit) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);
  PullModeFill fill(&store, &manager);
  fill.Fill({{1, 1, 0}, {1, 0, 1}});
  EXPECT_TRUE(manager.Cached({1, 1, 0}));
  auto served = manager.Request({1, 1, 0});
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->cache_hit);
  // Promoted into history: survives the next prefetch refresh.
  fill.Fill({{1, 1, 1}});
  EXPECT_TRUE(manager.Cached({1, 1, 0}));
  EXPECT_FALSE(manager.Cached({1, 0, 1}));  // replaced prefetch region
}

TEST(CacheManagerTest, PrefetchRespectsCapacity) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManagerOptions options;
  options.prefetch_bytes = 2 * 8 * 8 * sizeof(double);  // two 8x8 tiles
  CacheManager manager(&store, options);
  PullModeFill fill(&store, &manager);
  // The queue delivers in rank order (equal confidences): the full region
  // keeps the two highest-ranked tiles and turns the rest away.
  fill.Fill({{2, 0, 0}, {2, 1, 0}, {2, 2, 0}, {2, 3, 0}});
  EXPECT_TRUE(manager.Cached({2, 0, 0}));
  EXPECT_TRUE(manager.Cached({2, 1, 0}));
  EXPECT_FALSE(manager.Cached({2, 2, 0}));
  EXPECT_FALSE(manager.Cached({2, 3, 0}));
}

TEST(CacheManagerTest, PrefetchSkipsHistoryResident) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);
  PullModeFill fill(&store, &manager);
  ASSERT_TRUE(manager.Request({1, 0, 0}).ok());
  auto fetches_before = store.fetch_count();
  fill.Fill({{1, 0, 0}});
  EXPECT_EQ(store.fetch_count(), fetches_before);  // no redundant fetch
  EXPECT_EQ(fill.Stats().predictions_published, 0u);
}

TEST(CacheManagerTest, MissingTilePropagatesNotFound) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);
  EXPECT_TRUE(manager.Request({9, 9, 9}).status().IsNotFound());
}

TEST(CacheManagerTest, PrefetchSkipsFailedTilesAndContinues) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);
  PullModeFill fill(&store, &manager);
  // A bad tile mid-list must not starve the lower-ranked predictions.
  fill.Fill({{1, 0, 0}, {9, 9, 9}, {1, 1, 0}});
  EXPECT_TRUE(manager.Cached({1, 0, 0}));
  EXPECT_TRUE(manager.Cached({1, 1, 0}));
  EXPECT_EQ(fill.Stats().fill_failures, 1u);
}

TEST(CacheManagerTest, SharedCacheServesOtherSessionsFetches) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCache shared;
  CacheManager alice(&store, {}, &shared);
  CacheManager bob(&store, {}, &shared);

  ASSERT_TRUE(alice.Request({1, 0, 0}).ok());  // store fetch, published
  auto fetches_before = store.fetch_count();
  auto served = bob.Request({1, 0, 0});
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->cache_hit);
  EXPECT_TRUE(served->shared_hit);
  EXPECT_EQ(store.fetch_count(), fetches_before);  // no second DBMS query
  EXPECT_EQ(bob.shared_hits(), 1u);
  EXPECT_EQ(bob.private_hits(), 0u);
  // The tile was promoted into bob's history: now a private hit.
  auto again = bob.Request({1, 0, 0});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->shared_hit);
  EXPECT_EQ(bob.private_hits(), 1u);
}

TEST(CacheManagerTest, ClearDropsEverything) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);
  PullModeFill fill(&store, &manager);
  ASSERT_TRUE(manager.Request({1, 0, 0}).ok());
  fill.Fill({{1, 1, 0}});
  ASSERT_TRUE(manager.Cached({1, 1, 0}));
  manager.Clear();
  EXPECT_FALSE(manager.Cached({1, 0, 0}));
  EXPECT_FALSE(manager.Cached({1, 1, 0}));
}

}  // namespace
}  // namespace fc::core
