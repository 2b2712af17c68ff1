// Range-coalesced batched I/O tests: the run planners (tile runs + byte
// runs), merged-extent pricing on SimulatedDbmsStore, the packed-extent
// vectored read path on DiskTileStore, randomized coalesced-vs-per-key
// equivalence, and TSan-covered concurrent batched drains over the packed
// disk store.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "storage/batch_fetch.h"
#include "storage/range_plan.h"
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

/// Bit-level tile equality: key, geometry, and every attribute buffer.
void ExpectTilesIdentical(const fc::tiles::TilePtr& a,
                          const fc::tiles::TilePtr& b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->key(), b->key());
  ASSERT_EQ(a->width(), b->width());
  ASSERT_EQ(a->height(), b->height());
  ASSERT_EQ(a->num_attrs(), b->num_attrs());
  for (std::size_t attr = 0; attr < a->num_attrs(); ++attr) {
    EXPECT_EQ(a->AttrData(attr), b->AttrData(attr)) << a->key().ToString();
  }
}

/// A fresh scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace

namespace fc::storage {
namespace {

// ---------------------------------------------------------------------------
// PlanTileRuns

TEST(PlanTileRunsTest, AlignedQuadFormsOneGapFreeRun) {
  RangeCoalesceOptions options;
  options.max_waste_ratio = 2.0;
  // Caller order scrambled on purpose: the planner sorts by Morton code.
  std::vector<tiles::TileKey> keys = {
      {2, 3, 3}, {2, 2, 2}, {2, 3, 2}, {2, 2, 3}};
  RangePlan plan = PlanTileRuns(keys, options, /*tile_cells=*/64);
  ASSERT_EQ(plan.runs.size(), 1u);
  const TileRun& run = plan.runs[0];
  EXPECT_EQ(run.size(), 4u);
  EXPECT_EQ(run.extent_tiles, 4);
  EXPECT_EQ(run.chunks, 4);  // chunk_tile_span = 1: one chunk per tile
  EXPECT_EQ(plan.coalesced_chunks, 4);
  EXPECT_EQ(plan.naive_chunks, 4);
  EXPECT_EQ(plan.waste_cells, 0);
  // Sorted output follows the Morton curve through the quad.
  EXPECT_EQ(plan.keys[0], (tiles::TileKey{2, 2, 2}));
  EXPECT_EQ(plan.keys[1], (tiles::TileKey{2, 3, 2}));
  EXPECT_EQ(plan.keys[2], (tiles::TileKey{2, 2, 3}));
  EXPECT_EQ(plan.keys[3], (tiles::TileKey{2, 3, 3}));
}

TEST(PlanTileRunsTest, CoarserChunkGridSharesChunkScans) {
  RangeCoalesceOptions options;
  options.chunk_tile_span = 2;
  std::vector<tiles::TileKey> keys = {
      {2, 0, 0}, {2, 1, 0}, {2, 0, 1}, {2, 1, 1}};
  RangePlan plan = PlanTileRuns(keys, options, 64);
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].chunks, 1);  // whole quad inside one 2x2 chunk
  EXPECT_EQ(plan.coalesced_chunks, 1);
  EXPECT_EQ(plan.naive_chunks, 4);
}

TEST(PlanTileRunsTest, WasteRatioSplitsSparseKeys) {
  RangeCoalesceOptions tight;
  tight.max_waste_ratio = 2.0;
  std::vector<tiles::TileKey> sparse = {{1, 0, 0}, {1, 3, 3}};
  RangePlan split = PlanTileRuns(sparse, tight, 64);
  // Merging would scan a 4x4 bbox for 2 tiles (waste ratio 8): refuse.
  ASSERT_EQ(split.runs.size(), 2u);
  EXPECT_EQ(split.coalesced_chunks, 2);
  EXPECT_EQ(split.waste_cells, 0);

  RangeCoalesceOptions loose = tight;
  loose.max_waste_ratio = 8.0;
  RangePlan merged = PlanTileRuns(sparse, loose, 64);
  ASSERT_EQ(merged.runs.size(), 1u);
  EXPECT_EQ(merged.runs[0].extent_tiles, 16);
  EXPECT_EQ(merged.waste_cells, 14 * 64);
}

TEST(PlanTileRunsTest, LevelsNeverShareARun) {
  RangeCoalesceOptions options;
  options.max_waste_ratio = 64.0;  // nothing but the level split stops it
  std::vector<tiles::TileKey> keys = {{2, 0, 0}, {1, 0, 0}, {2, 1, 0}};
  RangePlan plan = PlanTileRuns(keys, options, 64);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].level, 1);  // level separation sorts L1 first
  EXPECT_EQ(plan.runs[1].level, 2);
  EXPECT_EQ(plan.runs[1].size(), 2u);
}

TEST(PlanTileRunsTest, RunCapBoundsRunSize) {
  RangeCoalesceOptions options;
  options.max_run_tiles = 2;
  std::vector<tiles::TileKey> row = {{2, 0, 0}, {2, 1, 0}, {2, 2, 0}, {2, 3, 0}};
  RangePlan plan = PlanTileRuns(row, options, 64);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].size(), 2u);
  EXPECT_EQ(plan.runs[1].size(), 2u);

  options.max_run_tiles = 64;
  RangePlan whole = PlanTileRuns(row, options, 64);
  ASSERT_EQ(whole.runs.size(), 1u);  // a 4x1 row is gap-free: one run
  EXPECT_EQ(whole.runs[0].extent_tiles, 4);
}

// ---------------------------------------------------------------------------
// PlanByteRuns

TEST(PlanByteRunsTest, ContiguousSpansCoalesceIntoOneRead) {
  RangeCoalesceOptions options;
  std::vector<PackedSpan> spans = {{0, 10}, {10, 5}, {15, 5}};
  ByteRunPlan plan = PlanByteRuns(spans, options);
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].offset, 0u);
  EXPECT_EQ(plan.runs[0].length, 20u);
  EXPECT_EQ(plan.spanned_bytes, 20u);
  EXPECT_EQ(plan.requested_bytes, 20u);
}

TEST(PlanByteRunsTest, WasteRatioRefusesLargeGaps) {
  RangeCoalesceOptions options;
  options.max_waste_ratio = 2.0;
  // Bridging the gap would read 110 bytes for 20 requested (ratio 5.5).
  std::vector<PackedSpan> gap = {{0, 10}, {100, 10}};
  ByteRunPlan split = PlanByteRuns(gap, options);
  ASSERT_EQ(split.runs.size(), 2u);
  EXPECT_EQ(split.spanned_bytes, 20u);

  // A small gap within the ratio is worth one syscall: 25 <= 2 x 20.
  std::vector<PackedSpan> near = {{0, 10}, {15, 10}};
  ByteRunPlan merged = PlanByteRuns(near, options);
  ASSERT_EQ(merged.runs.size(), 1u);
  EXPECT_EQ(merged.runs[0].length, 25u);
  EXPECT_EQ(merged.requested_bytes, 20u);
}

TEST(PlanByteRunsTest, RunCapBoundsSlotsPerRead) {
  RangeCoalesceOptions options;
  options.max_run_tiles = 1;
  std::vector<PackedSpan> spans = {{0, 10}, {10, 10}, {20, 10}};
  ByteRunPlan plan = PlanByteRuns(spans, options);
  EXPECT_EQ(plan.runs.size(), 3u);
}

// ---------------------------------------------------------------------------
// SimulatedDbmsStore merged-extent pricing

TEST(DbmsCoalesceTest, SingleKeyBatchBitIdenticalToFetch) {
  auto pyramid = SmallPyramid();
  auto costs = array::CalibratedPaperCosts();  // jitter ON: RNG draws matter
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  coalesce.chunk_tile_span = 2;

  SimClock clock_a, clock_b;
  SimulatedDbmsStore via_fetch(pyramid, array::QueryCostModel(costs, 11),
                               &clock_a);
  SimulatedDbmsStore via_batch(pyramid, array::QueryCostModel(costs, 11),
                               &clock_b, coalesce);

  const tiles::TileKey key{2, 1, 2};
  auto a = via_fetch.Fetch(key);
  auto b = via_batch.FetchBatch({key});
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(b.size(), 1u);
  ASSERT_TRUE(b[0].ok());
  ExpectTilesIdentical(*a, *b[0]);
  // Same chunks, same cells, same jitter draw: identical charge.
  EXPECT_DOUBLE_EQ(via_fetch.total_query_millis(),
                   via_batch.total_query_millis());
  EXPECT_DOUBLE_EQ(clock_a.NowMillis(), clock_b.NowMillis());
  EXPECT_EQ(via_fetch.chunk_scan_count(), 1u);
  EXPECT_EQ(via_batch.chunk_scan_count(), 1u);
}

TEST(DbmsCoalesceTest, QuadBatchPricesOneChunkPerRun) {
  auto pyramid = SmallPyramid();
  auto costs = array::CalibratedPaperCosts();
  costs.jitter_rel_stddev = 0.0;  // deterministic millis for the comparison
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  coalesce.chunk_tile_span = 2;

  SimClock clock_plain, clock_runs;
  SimulatedDbmsStore plain(pyramid, array::QueryCostModel(costs, 1),
                           &clock_plain);
  SimulatedDbmsStore runs(pyramid, array::QueryCostModel(costs, 1),
                          &clock_runs, coalesce);

  const std::vector<tiles::TileKey> quad = {
      {2, 0, 0}, {2, 1, 0}, {2, 0, 1}, {2, 1, 1}};
  auto from_plain = plain.FetchBatch(quad);
  auto from_runs = runs.FetchBatch(quad);
  for (std::size_t i = 0; i < quad.size(); ++i) {
    ASSERT_TRUE(from_plain[i].ok());
    ASSERT_TRUE(from_runs[i].ok());
    ExpectTilesIdentical(*from_plain[i], *from_runs[i]);
  }
  // Per-tile pricing scanned 4 chunks; the merged extent scans ONE (the
  // quad sits inside one 2x2-tile chunk), with zero waste.
  EXPECT_EQ(plain.chunk_scan_count(), 4u);
  EXPECT_EQ(runs.chunk_scan_count(), 1u);
  EXPECT_EQ(runs.run_count(), 1u);
  EXPECT_EQ(runs.waste_cell_count(), 0u);
  // Both are ONE round trip; fewer chunks means cheaper simulated millis.
  EXPECT_EQ(plain.query_count(), 1u);
  EXPECT_EQ(runs.query_count(), 1u);
  EXPECT_LT(runs.total_query_millis(), plain.total_query_millis());
}

TEST(DbmsCoalesceTest, JitterStreamStaysAlignedAcrossPricings) {
  auto pyramid = SmallPyramid();
  auto costs = array::CalibratedPaperCosts();  // jitter ON
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  coalesce.chunk_tile_span = 2;

  SimClock clock_plain, clock_runs;
  SimulatedDbmsStore plain(pyramid, array::QueryCostModel(costs, 23),
                           &clock_plain);
  SimulatedDbmsStore runs(pyramid, array::QueryCostModel(costs, 23),
                          &clock_runs, coalesce);

  // Same batch sequence through both pricings: each batch is one QueryMillis
  // call in both stores, so the jitter streams advance in lockstep.
  const std::vector<std::vector<tiles::TileKey>> batches = {
      {{2, 0, 0}, {2, 1, 0}, {2, 0, 1}, {2, 1, 1}},
      {{2, 2, 2}},
      {{1, 0, 0}, {1, 1, 0}, {2, 3, 3}},
  };
  for (const auto& batch : batches) {
    plain.FetchBatch(batch);
    runs.FetchBatch(batch);
  }
  // If the streams are aligned, the NEXT draw is the same jitter sample:
  // an identical single-tile fetch must charge bit-identical millis.
  const double plain_before = plain.total_query_millis();
  const double runs_before = runs.total_query_millis();
  ASSERT_TRUE(plain.Fetch({2, 3, 0}).ok());
  ASSERT_TRUE(runs.Fetch({2, 3, 0}).ok());
  EXPECT_DOUBLE_EQ(plain.total_query_millis() - plain_before,
                   runs.total_query_millis() - runs_before);
}

}  // namespace
}  // namespace fc::storage

namespace fc::storage {
namespace {

// ---------------------------------------------------------------------------
// DiskTileStore packed extent + vectored reads

TEST(DiskPackedTest, SavePyramidBuildsServableExtent) {
  auto pyramid = SmallPyramid();
  auto store = DiskTileStore::Open(ScratchDir("fc_rc_basic"),
                                    pyramid->spec()).value();
  EXPECT_FALSE(store->packed_loaded());
  ASSERT_TRUE(store->SavePyramid(*pyramid).ok());
  EXPECT_TRUE(store->packed_loaded());

  MemoryTileStore memory(pyramid);
  for (const auto& key : pyramid->spec().AllKeys()) {
    EXPECT_TRUE(store->Contains(key));
    const std::uint64_t syscalls_before = store->syscall_count();
    auto from_disk = store->Fetch(key);
    ASSERT_TRUE(from_disk.ok()) << key.ToString();
    // One pread through the cached fd — no per-call file open/slurp.
    EXPECT_EQ(store->syscall_count(), syscalls_before + 1);
    auto from_memory = memory.Fetch(key);
    ASSERT_TRUE(from_memory.ok());
    ExpectTilesIdentical(*from_disk, *from_memory);
  }
  EXPECT_GT(store->bytes_read(), 0u);
}

TEST(DiskPackedTest, ReopenLoadsExistingExtent) {
  auto pyramid = SmallPyramid();
  const std::string dir = ScratchDir("fc_rc_reopen");
  {
    auto writer = DiskTileStore::Open(dir, pyramid->spec()).value();
    ASSERT_TRUE(writer->SavePyramid(*pyramid).ok());
  }
  auto reader = DiskTileStore::Open(dir, pyramid->spec()).value();
  EXPECT_TRUE(reader->packed_loaded());
  auto tile = reader->Fetch({2, 3, 3});
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ((*tile)->key(), (tiles::TileKey{2, 3, 3}));
}

TEST(DiskPackedTest, VectoredBatchReadsOneRunPerQuad) {
  auto pyramid = SmallPyramid();
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto vectored = DiskTileStore::Open(ScratchDir("fc_rc_vec"),
                                       pyramid->spec(), {}, coalesce).value();
  auto per_key = DiskTileStore::Open(ScratchDir("fc_rc_perkey"),
                                      pyramid->spec()).value();
  ASSERT_TRUE(vectored->SavePyramid(*pyramid).ok());
  ASSERT_TRUE(per_key->SavePyramid(*pyramid).ok());

  // A Morton-aligned quad is contiguous in the packed file: ONE pread.
  const std::vector<tiles::TileKey> quad = {
      {2, 0, 0}, {2, 1, 0}, {2, 0, 1}, {2, 1, 1}};
  const std::uint64_t vec_before = vectored->syscall_count();
  const std::uint64_t per_before = per_key->syscall_count();
  auto from_vectored = vectored->FetchBatch(quad);
  auto from_per_key = per_key->FetchBatch(quad);
  EXPECT_EQ(vectored->syscall_count() - vec_before, 1u);
  EXPECT_EQ(vectored->vectored_run_count(), 1u);
  EXPECT_EQ(per_key->syscall_count() - per_before, 4u);
  for (std::size_t i = 0; i < quad.size(); ++i) {
    ASSERT_TRUE(from_vectored[i].ok());
    ASSERT_TRUE(from_per_key[i].ok());
    ExpectTilesIdentical(*from_vectored[i], *from_per_key[i]);
  }
}

TEST(DiskPackedTest, SaveDivertsStaleSlotToFreshFile) {
  auto pyramid = SmallPyramid();
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto store = DiskTileStore::Open(ScratchDir("fc_rc_stale"),
                                    pyramid->spec(), {}, coalesce).value();
  ASSERT_TRUE(store->SavePyramid(*pyramid).ok());

  // Overwrite one tile with recognizable data AFTER the extent was packed.
  const tiles::TileKey victim{2, 1, 1};
  auto fresh = *tiles::Tile::Make(victim, 8, 8, {"v"});
  for (std::int64_t y = 0; y < 8; ++y) {
    for (std::int64_t x = 0; x < 8; ++x) fresh.Set(0, x, y, -1.0);
  }
  ASSERT_TRUE(store->Save(fresh).ok());

  // Fetch and the vectored batch must both serve the NEW bytes (per-tile
  // file), while untouched neighbors still ride the packed extent.
  auto direct = store->Fetch(victim);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*direct)->At(0, 3, 3), -1.0);
  auto batch = store->FetchBatch({{2, 0, 1}, victim, {2, 0, 0}});
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ((*batch[1])->At(0, 3, 3), -1.0);
  ASSERT_TRUE(batch[0].ok());
  EXPECT_NE((*batch[0])->At(0, 3, 3), -1.0);

  // Rebuilding the extent re-packs the new bytes and clears the staleness.
  ASSERT_TRUE(store->SavePyramid(*pyramid).ok());
  auto repacked = store->Fetch(victim);
  ASSERT_TRUE(repacked.ok());
  EXPECT_NE((*repacked)->At(0, 3, 3), -1.0);
}

TEST(DiskPackedTest, DuplicateAndMissingKeysKeepSlotSemantics) {
  auto pyramid = SmallPyramid();
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto store = DiskTileStore::Open(ScratchDir("fc_rc_slots"),
                                    pyramid->spec(), {}, coalesce).value();
  ASSERT_TRUE(store->SavePyramid(*pyramid).ok());

  const tiles::TileKey dup{2, 2, 2};
  const tiles::TileKey missing{2, 99, 99};
  auto batch = store->FetchBatch({dup, missing, dup, dup});
  ASSERT_EQ(batch.size(), 4u);
  ASSERT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
  ASSERT_TRUE(batch[2].ok());
  ASSERT_TRUE(batch[3].ok());
  ExpectTilesIdentical(*batch[0], *batch[2]);
  ExpectTilesIdentical(*batch[0], *batch[3]);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: coalesced vs per-key produce bit-identical tiles
// with strictly fewer backend round trips / chunk scans / syscalls.

/// Random adjacency-heavy batch: an aligned quad plus a few random keys
/// (the shape a panning viewport's predictions take).
std::vector<tiles::TileKey> RandomBatch(Rng& rng,
                                        const tiles::PyramidSpec& spec) {
  std::vector<tiles::TileKey> batch;
  const int level = 2;  // 4x4 grid: room for aligned quads
  const std::int64_t qx = 2 * rng.UniformUint32(2);
  const std::int64_t qy = 2 * rng.UniformUint32(2);
  batch.push_back({level, qx, qy});
  batch.push_back({level, qx + 1, qy});
  batch.push_back({level, qx, qy + 1});
  batch.push_back({level, qx + 1, qy + 1});
  const std::size_t extras = rng.UniformUint32(3);
  for (std::size_t i = 0; i < extras; ++i) {
    batch.push_back({1, static_cast<std::int64_t>(rng.UniformUint32(2)),
                     static_cast<std::int64_t>(rng.UniformUint32(2))});
  }
  return batch;
}

TEST(EquivalencePropertyTest, DbmsCoalescedMatchesPerKeyWithFewerScans) {
  auto pyramid = SmallPyramid();
  auto costs = array::CalibratedPaperCosts();
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  coalesce.chunk_tile_span = 2;

  SimClock clock_coalesced, clock_per_key;
  SimulatedDbmsStore coalesced(pyramid, array::QueryCostModel(costs, 5),
                               &clock_coalesced, coalesce);
  SimulatedDbmsStore per_key(pyramid, array::QueryCostModel(costs, 5),
                             &clock_per_key);

  Rng rng(/*seed=*/802);
  std::size_t total_keys = 0;
  for (int round = 0; round < 50; ++round) {
    const auto batch = RandomBatch(rng, pyramid->spec());
    total_keys += batch.size();
    auto from_coalesced = coalesced.FetchBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto single = per_key.Fetch(batch[i]);
      ASSERT_TRUE(single.ok());
      ASSERT_TRUE(from_coalesced[i].ok());
      ExpectTilesIdentical(*from_coalesced[i], *single);
    }
  }
  EXPECT_EQ(coalesced.fetch_count(), per_key.fetch_count());
  // Strictly fewer round trips (one per batch, not per key) and strictly
  // fewer chunk scans (each quad collapses to one chunk-grid cell).
  EXPECT_EQ(coalesced.query_count(), 50u);
  EXPECT_EQ(per_key.query_count(), total_keys);
  EXPECT_LT(coalesced.chunk_scan_count(), per_key.chunk_scan_count());
}

TEST(EquivalencePropertyTest, DiskCoalescedMatchesPerKeyWithFewerSyscalls) {
  auto pyramid = SmallPyramid();
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto coalesced = DiskTileStore::Open(ScratchDir("fc_rc_eq_vec"),
                                        pyramid->spec(), {}, coalesce).value();
  auto per_key = DiskTileStore::Open(ScratchDir("fc_rc_eq_per"),
                                      pyramid->spec()).value();
  ASSERT_TRUE(coalesced->SavePyramid(*pyramid).ok());
  ASSERT_TRUE(per_key->SavePyramid(*pyramid).ok());

  Rng rng(/*seed=*/803);
  for (int round = 0; round < 50; ++round) {
    const auto batch = RandomBatch(rng, pyramid->spec());
    auto from_coalesced = coalesced->FetchBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto single = per_key->Fetch(batch[i]);
      ASSERT_TRUE(single.ok());
      ASSERT_TRUE(from_coalesced[i].ok());
      ExpectTilesIdentical(*from_coalesced[i], *single);
    }
  }
  EXPECT_EQ(coalesced->fetch_count(), per_key->fetch_count());
  EXPECT_LT(coalesced->query_count(), per_key->query_count());
  // Every quad rode one pread instead of four.
  EXPECT_LT(coalesced->syscall_count(), per_key->syscall_count());
  EXPECT_GT(coalesced->vectored_run_count(), 0u);
}

// ---------------------------------------------------------------------------
// TSan stress: concurrent vectored batches racing Save() overwrites and a
// packed-extent rebuild on one shared store.

TEST(DiskPackedTest, ConcurrentVectoredBatchesAndRepacksAreSafe) {
  auto pyramid = SmallPyramid();
  RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto store = DiskTileStore::Open(ScratchDir("fc_rc_tsan_store"),
                                    pyramid->spec(), {}, coalesce).value();
  ASSERT_TRUE(store->SavePyramid(*pyramid).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(/*seed=*/9000 + t);
      for (int round = 0; round < 60; ++round) {
        const auto batch = RandomBatch(rng, pyramid->spec());
        auto results = store->FetchBatch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          ASSERT_TRUE(results[i].ok()) << batch[i].ToString();
          EXPECT_EQ((*results[i])->key(), batch[i]);
        }
      }
    });
  }
  std::thread writer([&] {
    Rng rng(/*seed=*/9999);
    while (!stop.load()) {
      const tiles::TileKey key{2, static_cast<std::int64_t>(rng.UniformUint32(4)),
                               static_cast<std::int64_t>(rng.UniformUint32(4))};
      auto tile = pyramid->GetTile(key);
      ASSERT_TRUE(tile.ok());
      ASSERT_TRUE(store->Save(**tile).ok());
      if (rng.UniformUint32(8) == 0) {
        ASSERT_TRUE(store->SavePyramid(*pyramid).ok());
      }
    }
  });
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace fc::storage

namespace fc::core {
namespace {

// ---------------------------------------------------------------------------
// TSan stress: concurrent publishers + batched executor drains through the
// PACKED DISK STORE's vectored read path, with the accounting invariant
// checked after an abrupt teardown.

TEST(SchedulerBatchTest, ConcurrentBatchedDrainOverPackedDiskStore) {
  constexpr int kPublishers = 4;
  constexpr int kPublishesPerSession = 25;

  auto pyramid = SmallPyramid();
  storage::RangeCoalesceOptions coalesce;
  coalesce.enabled = true;
  auto disk = storage::DiskTileStore::Open(
      ScratchDir("fc_rc_tsan_sched"), pyramid->spec(), {}, coalesce).value();
  ASSERT_TRUE(disk->SavePyramid(*pyramid).ok());
  storage::SingleFlightTileStore single_flight(disk.get());

  SharedTileCacheOptions cache_options;
  cache_options.l1_bytes = 12 * 8 * 8 * sizeof(double);  // eviction churn
  cache_options.num_shards = 2;
  SharedTileCache shared(cache_options);
  Executor executor(4);
  PrefetchSchedulerOptions options;
  options.max_in_flight = 3;
  options.batch.max_batch_tiles = 4;
  PrefetchScheduler scheduler(&single_flight, &executor, &shared, options);

  const auto keys = pyramid->spec().AllKeys();
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::uint64_t> ids(kPublishers);
  for (int s = 0; s < kPublishers; ++s) {
    ids[s] = scheduler.RegisterSession(
        static_cast<std::uint64_t>(s) + 1,
        [&delivered](const tiles::TileKey&, const tiles::TilePtr& tile,
                     std::uint64_t) {
          EXPECT_NE(tile, nullptr);
          delivered.fetch_add(1);
        });
  }

  std::vector<std::thread> threads;
  for (int s = 0; s < kPublishers; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(/*seed=*/6400 + s);
      for (int p = 0; p < kPublishesPerSession; ++p) {
        std::vector<PrefetchCandidate> list;
        const std::size_t len = 1 + rng.UniformUint32(6);
        for (std::size_t i = 0; i < len; ++i) {
          const auto& key =
              keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
          list.push_back({key, 0.1 + 0.2 * rng.UniformUint32(5)});
        }
        scheduler.Publish(ids[s], static_cast<std::uint64_t>(p) + 1,
                          std::move(list));
        if (p % 9 == 8) scheduler.CancelSession(ids[s]);
      }
    });
  }
  for (auto& t : threads) t.join();
  scheduler.Shutdown();

  auto stats = scheduler.Stats();
  EXPECT_GT(stats.predictions_published, 0u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  EXPECT_EQ(stats.fill_failures, 0u);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(stats.deliveries, delivered.load());
}

}  // namespace
}  // namespace fc::core
