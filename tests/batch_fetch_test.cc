// Batched backend I/O tests: the per-round tile cap, FetchBatch on every
// store backend (loop fallback, simulated DBMS amortization, disk coalesced
// pass, batch-aware single flight), the query/tile counter split, and the
// shared cache's multi-owner batch landing (GetOrFetchSharedBatch).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "storage/batch_fetch.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace {

std::shared_ptr<fc::tiles::TilePyramid> SmallPyramid() {
  using namespace fc;
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 32, 8}, array::Dimension{"x", 0, 32, 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < 32; ++y) {
    for (std::int64_t x = 0; x < 32; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0,
                     static_cast<double>(x * 100 + y));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = 3;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  EXPECT_TRUE(pyramid.ok());
  return *pyramid;
}

}  // namespace

namespace fc::storage {
namespace {

// ---------------------------------------------------------------------------
// Per-round tile cap

TEST(BatchTileCapTest, PopGoldens) {
  BatchProfile profile;
  profile.max_batch_tiles = 8;
  EXPECT_EQ(BatchTileCap(profile), 8u);

  // A drain round pops min(queue depth, cap) of the top entries into one
  // round trip.
  auto pyramid = SmallPyramid();
  MemoryTileStore store(pyramid);
  core::PrefetchSchedulerOptions options;
  options.batch = profile;
  core::PrefetchScheduler scheduler(&store, /*executor=*/nullptr,
                                    /*shared=*/nullptr, options);
  const auto id = scheduler.RegisterSession(
      1, [](const tiles::TileKey&, const tiles::TilePtr&, std::uint64_t) {});
  // Empty queue: nothing to pop.
  EXPECT_FALSE(scheduler.DrainOne());
  EXPECT_EQ(store.query_count(), 0u);

  const auto keys = pyramid->spec().AllKeys();
  ASSERT_GE(keys.size(), 11u);
  std::vector<core::PrefetchCandidate> candidates;
  for (std::size_t i = 0; i < 11; ++i) {
    candidates.push_back({keys[i], 1.0 - 0.01 * static_cast<double>(i)});
  }
  scheduler.Publish(id, 1, std::move(candidates));
  // Deep queue: one full batch.
  ASSERT_TRUE(scheduler.DrainOne());
  EXPECT_EQ(store.query_count(), 1u);
  EXPECT_EQ(store.fetch_count(), 8u);
  // Partial batch: drain what is there.
  ASSERT_TRUE(scheduler.DrainOne());
  EXPECT_EQ(store.query_count(), 2u);
  EXPECT_EQ(store.fetch_count(), 11u);
  EXPECT_FALSE(scheduler.DrainOne());
}

TEST(BatchTileCapTest, ByteBoundCapsTiles) {
  BatchProfile profile;
  profile.max_batch_tiles = 16;
  profile.max_batch_bytes = 3000;
  // 1000-byte nominal tiles: 3 fit.
  EXPECT_EQ(BatchTileCap(profile, 1000), 3u);
  // No nominal size: the byte bound cannot be applied.
  EXPECT_EQ(BatchTileCap(profile, 0), 16u);
  // Bound smaller than one tile still allows single-tile trips.
  EXPECT_EQ(BatchTileCap(profile, 5000), 1u);
  // max_batch_tiles = 0 is treated as 1 (batching disabled).
  BatchProfile zero;
  zero.max_batch_tiles = 0;
  EXPECT_EQ(BatchTileCap(zero), 1u);
}

// ---------------------------------------------------------------------------
// Loop fallback (a store that only implements Fetch)

class FetchOnlyStore : public TileStore {
 public:
  explicit FetchOnlyStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}
  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    return inner_.Fetch(key);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }

 private:
  MemoryTileStore inner_;
};

TEST(TileStoreBatchTest, LoopFallbackIsOneQueryPerKey) {
  auto pyramid = SmallPyramid();
  FetchOnlyStore store(pyramid);
  auto results = store.FetchBatch({{1, 0, 0}, {1, 1, 0}, {9, 9, 9}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  // No native batching: tiles == queries, per the base-class contract.
  EXPECT_EQ(store.fetch_count(), 3u);
  EXPECT_EQ(store.query_count(), 3u);
}

/// Minimal custom store: implements ONLY the required Fetch/Contains/spec
/// surface and records every key it is asked for, so the test can pin the
/// exact backend interaction of the base-class FetchBatch fallback.
class RecordingStore : public TileStore {
 public:
  explicit RecordingStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}
  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    asked_.push_back(key);
    return inner_.Fetch(key);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }

  const std::vector<tiles::TileKey>& asked() const { return asked_; }

 private:
  MemoryTileStore inner_;
  std::vector<tiles::TileKey> asked_;
};

// Golden: on a store with no native batch path, FetchBatch(keys) is
// observationally equivalent to calling Fetch(key) in a loop — the same
// backend key sequence (order preserved, duplicates NOT coalesced), the
// same per-slot outcomes, and the same counter evolution.
TEST(TileStoreBatchTest, LoopFallbackMatchesFetchLoopObservationally) {
  auto pyramid = SmallPyramid();
  // Duplicates and a miss in the middle: slots stay independent.
  const std::vector<tiles::TileKey> keys = {
      {1, 0, 0}, {9, 9, 9}, {1, 1, 0}, {1, 0, 0}, {0, 0, 0}};

  RecordingStore via_batch(pyramid);
  auto batched = via_batch.FetchBatch(keys);

  RecordingStore via_loop(pyramid);
  std::vector<Result<tiles::TilePtr>> looped;
  looped.reserve(keys.size());
  for (const auto& key : keys) looped.push_back(via_loop.Fetch(key));

  // Identical backend interaction, key for key.
  EXPECT_EQ(via_batch.asked(), via_loop.asked());
  EXPECT_EQ(via_batch.asked(), keys);
  EXPECT_EQ(via_batch.fetch_count(), via_loop.fetch_count());
  EXPECT_EQ(via_batch.query_count(), via_loop.query_count());

  // Identical per-slot outcomes.
  ASSERT_EQ(batched.size(), looped.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batched[i].ok(), looped[i].ok()) << "slot " << i;
    if (batched[i].ok()) {
      EXPECT_EQ((*batched[i])->key(), keys[i]);
      EXPECT_EQ((*batched[i])->key(), (*looped[i])->key());
      EXPECT_EQ((*batched[i])->AttrData(0), (*looped[i])->AttrData(0));
    } else {
      EXPECT_TRUE(batched[i].status().IsNotFound());
      EXPECT_TRUE(looped[i].status().IsNotFound());
    }
  }
}

// ---------------------------------------------------------------------------
// MemoryTileStore

TEST(TileStoreBatchTest, MemoryStoreBatchIsOneQuery) {
  auto pyramid = SmallPyramid();
  MemoryTileStore store(pyramid);
  auto results = store.FetchBatch({{1, 0, 0}, {1, 1, 0}, {9, 9, 9}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ((*results[0])->key(), (tiles::TileKey{1, 0, 0}));
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());  // a missing key fails its slot alone
  EXPECT_EQ(store.fetch_count(), 3u);
  EXPECT_EQ(store.query_count(), 1u);
  // An empty batch is a no-op, not a round trip.
  EXPECT_TRUE(store.FetchBatch({}).empty());
  EXPECT_EQ(store.query_count(), 1u);
}

// ---------------------------------------------------------------------------
// SimulatedDbmsStore: the amortization this subsystem exists for

TEST(SimulatedDbmsBatchTest, BatchChargesPerQueryOverheadOnce) {
  auto pyramid = SmallPyramid();
  auto costs = array::CalibratedPaperCosts();
  costs.jitter_rel_stddev = 0.0;  // deterministic arithmetic

  SimClock batch_clock;
  SimulatedDbmsStore batched(pyramid, array::QueryCostModel(costs, 1),
                             &batch_clock);
  auto results =
      batched.FetchBatch({{2, 0, 0}, {2, 1, 0}, {2, 2, 0}, {2, 3, 0}});
  ASSERT_EQ(results.size(), 4u);
  for (const auto& result : results) EXPECT_TRUE(result.ok());
  // One query: overhead once + 4 chunks + 4x64 cells.
  const double expected_batch =
      909.0 + 4 * 75.0 + 0.05e-3 * 4 * 64;
  EXPECT_NEAR(batch_clock.NowMillis(), expected_batch, 1.0);
  EXPECT_EQ(batched.fetch_count(), 4u);
  EXPECT_EQ(batched.query_count(), 1u);

  // The per-tile path pays the overhead 4 times.
  SimClock single_clock;
  SimulatedDbmsStore singles(pyramid, array::QueryCostModel(costs, 1),
                             &single_clock);
  for (std::int64_t x = 0; x < 4; ++x) {
    ASSERT_TRUE(singles.Fetch({2, x, 0}).ok());
  }
  const double expected_singles = 4 * (909.0 + 75.0 + 0.05e-3 * 64);
  EXPECT_NEAR(single_clock.NowMillis(), expected_singles, 1.0);
  EXPECT_EQ(singles.query_count(), 4u);
  EXPECT_GT(single_clock.NowMillis(), 2.5 * batch_clock.NowMillis());
}

TEST(SimulatedDbmsBatchTest, SingleKeyBatchIsBitIdenticalToFetch) {
  auto pyramid = SmallPyramid();
  auto costs = array::CalibratedPaperCosts();  // jitter ON: same RNG draws

  SimClock clock_a, clock_b;
  SimulatedDbmsStore via_fetch(pyramid, array::QueryCostModel(costs, 7),
                               &clock_a);
  SimulatedDbmsStore via_batch(pyramid, array::QueryCostModel(costs, 7),
                               &clock_b);
  ASSERT_TRUE(via_fetch.Fetch({2, 0, 0}).ok());
  auto results = via_batch.FetchBatch({{2, 0, 0}});
  ASSERT_TRUE(results[0].ok());
  // Identical seed, identical single-tile charge: the default profile
  // (batch size 1) cannot perturb replay results.
  EXPECT_EQ(clock_a.NowMicros(), clock_b.NowMicros());
  EXPECT_DOUBLE_EQ(via_fetch.total_query_millis(),
                   via_batch.total_query_millis());
}

TEST(SimulatedDbmsBatchTest, MissingKeysChargeNothing) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  SimulatedDbmsStore store(
      pyramid, array::QueryCostModel(array::CalibratedPaperCosts(), 1), &clock);
  auto results = store.FetchBatch({{9, 9, 9}, {8, 8, 8}});
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(clock.NowMicros(), 0);
  // Found tiles still charge when mixed with misses.
  results = store.FetchBatch({{2, 0, 0}, {9, 9, 9}});
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_GT(clock.NowMicros(), 0);
}

// ---------------------------------------------------------------------------
// DiskTileStore: one coalesced pass

TEST(DiskTileStoreBatchTest, BatchReadsAreOneQuery) {
  auto pyramid = SmallPyramid();
  std::string dir = testing::TempDir() + "/fc_batch_disk_store";
  std::filesystem::remove_all(dir);
  auto store = DiskTileStore::Open(dir, pyramid->spec());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->SavePyramid(*pyramid).ok());

  auto results =
      (*store)->FetchBatch({{2, 0, 0}, {2, 3, 1}, {0, 0, 0}, {7, 7, 7}});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].status().IsNotFound());
  auto original = pyramid->GetTile({2, 3, 1});
  ASSERT_TRUE(original.ok());
  EXPECT_EQ((*results[1])->AttrData(0), (*original)->AttrData(0));
  EXPECT_EQ((*store)->fetch_count(), 4u);
  EXPECT_EQ((*store)->query_count(), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SingleFlightTileStore: join-existing-flight vs new-leader-batch

TEST(SingleFlightBatchTest, BatchPassesThroughAndDedupsDuplicates) {
  auto pyramid = SmallPyramid();
  MemoryTileStore inner(pyramid);
  SingleFlightTileStore store(&inner);

  // A duplicate key inside one batch joins its own leader.
  auto results = store.FetchBatch({{1, 0, 0}, {1, 1, 0}, {1, 0, 0}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(*results[0], *results[2]);  // same TilePtr from the same flight
  EXPECT_EQ(store.fetch_count(), 3u);   // demand absorbed
  EXPECT_EQ(store.query_count(), 1u);   // one upstream round trip
  EXPECT_EQ(store.deduped_count(), 1u);
  EXPECT_EQ(inner.fetch_count(), 2u);   // the backend saw unique keys only
  EXPECT_EQ(inner.query_count(), 1u);
}

/// Inner store whose fetches block until released, recording arrivals.
class GatedInnerStore : public TileStore {
 public:
  explicit GatedInnerStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    Arrive();
    return inner_.Fetch(key);
  }
  std::vector<Result<tiles::TilePtr>> FetchBatch(
      const std::vector<tiles::TileKey>& keys) override {
    Arrive();
    return inner_.FetchBatch(keys);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }
  std::uint64_t query_count() const override { return inner_.query_count(); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::uint64_t arrivals() const { return arrivals_; }

 private:
  void Arrive() {
    ++arrivals_;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

  MemoryTileStore inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<std::uint64_t> arrivals_{0};
};

TEST(SingleFlightBatchTest, BatchJoinsExistingFlightAndLeadsTheRest) {
  auto pyramid = SmallPyramid();
  GatedInnerStore gated(pyramid);
  SingleFlightTileStore store(&gated);

  const tiles::TileKey shared_key{1, 0, 0}, fresh_key{1, 1, 0};
  std::thread holder([&] {
    auto tile = store.Fetch(shared_key);
    EXPECT_TRUE(tile.ok());
  });
  // Wait until the holder's flight is registered (it is blocked inside the
  // gated inner fetch, which happens after registration).
  while (gated.arrivals() < 1) std::this_thread::yield();

  std::thread batcher([&] {
    auto results = store.FetchBatch({shared_key, fresh_key});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());  // joined the holder's flight
    EXPECT_TRUE(results[1].ok());  // fetched by this batch's leader trip
  });
  // The batch must reach the backend with ONLY the non-joined key.
  while (gated.arrivals() < 2) std::this_thread::yield();
  gated.Release();
  holder.join();
  batcher.join();

  EXPECT_EQ(store.deduped_count(), 1u);   // shared_key joined
  EXPECT_EQ(store.query_count(), 2u);     // holder's Fetch + the leader batch
  EXPECT_EQ(gated.fetch_count(), 2u);     // backend saw each key once
}

}  // namespace
}  // namespace fc::storage

// ---------------------------------------------------------------------------
// SharedTileCache::GetOrFetchSharedBatch

namespace fc::core {
namespace {

TEST(SharedBatchFetchTest, MixedHitsAndMissesOneRoundTrip) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 64ull << 20;
  options.num_shards = 2;
  SharedTileCache cache(options);

  // Pre-land one tile so the batch sees a resident key.
  const tiles::TileKey resident{1, 0, 0}, miss_a{1, 1, 0}, miss_b{0, 0, 0};
  auto tile = store.Fetch(resident);
  ASSERT_TRUE(tile.ok());
  cache.Insert(resident, *tile, {});
  const auto queries_before = store.query_count();

  std::vector<SharedTileCache::SharedBatchItem> items(3);
  items[0] = {resident, {CacheAccess{1, 0.5}, CacheAccess{2, 0.4}}};
  items[1] = {miss_a, {CacheAccess{1, 0.6}}};
  items[2] = {miss_b, {CacheAccess{2, 0.7}, CacheAccess{3, 0.2}}};
  auto results = cache.GetOrFetchSharedBatch(items, &store);

  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_FALSE(results[0]->fetched);  // served from cache
  ASSERT_TRUE(results[1].ok());
  EXPECT_TRUE(results[1]->fetched);
  ASSERT_TRUE(results[2].ok());
  EXPECT_TRUE(results[2]->fetched);

  // Both misses rode one backend round trip.
  EXPECT_EQ(store.query_count(), queries_before + 1);
  auto stats = cache.Stats();
  EXPECT_EQ(stats.batches_issued, 1u);
  EXPECT_EQ(stats.batched_tiles, 2u);
  EXPECT_EQ(stats.fetch_rounds_saved, 1u);
  EXPECT_EQ(stats.fetch_rounds_saved, stats.batched_tiles - stats.batches_issued);
  // Multi-owner accounting matches the per-tile path: the resident item's
  // 2 subscribers all saved a fetch, the merged misses saved subs-1 each.
  EXPECT_EQ(stats.merged_predictions, 4u);  // the two multi-subscriber items
  EXPECT_EQ(stats.dedup_saved_fetches, 2u + 0u + 1u);
  // Everything is resident now.
  EXPECT_TRUE(cache.Contains(miss_a));
  EXPECT_TRUE(cache.Contains(miss_b));
}

TEST(SharedBatchFetchTest, FailedSlotFailsAlone) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 64ull << 20;
  SharedTileCache cache(options);

  std::vector<SharedTileCache::SharedBatchItem> items(2);
  items[0] = {{9, 9, 9}, {CacheAccess{1, 0.6}}};  // not in the pyramid
  items[1] = {{1, 0, 0}, {CacheAccess{1, 0.6}}};
  auto results = cache.GetOrFetchSharedBatch(items, &store);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_TRUE(results[1]->fetched);
  EXPECT_TRUE(cache.Contains({1, 0, 0}));
  EXPECT_FALSE(cache.Contains({9, 9, 9}));
}

TEST(SharedBatchFetchTest, AllResidentIssuesNoRoundTrip) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions options;
  options.l1_bytes = 64ull << 20;
  SharedTileCache cache(options);

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  for (const auto& key : {a, b}) {
    auto tile = store.Fetch(key);
    ASSERT_TRUE(tile.ok());
    cache.Insert(key, *tile, {});
  }
  const auto queries_before = store.query_count();
  std::vector<SharedTileCache::SharedBatchItem> items(2);
  items[0] = {a, {CacheAccess{1, 0.5}}};
  items[1] = {b, {CacheAccess{1, 0.5}}};
  auto results = cache.GetOrFetchSharedBatch(items, &store);
  EXPECT_TRUE(results[0].ok() && !results[0]->fetched);
  EXPECT_TRUE(results[1].ok() && !results[1]->fetched);
  EXPECT_EQ(store.query_count(), queries_before);
  EXPECT_EQ(cache.Stats().batches_issued, 0u);
}

}  // namespace
}  // namespace fc::core
