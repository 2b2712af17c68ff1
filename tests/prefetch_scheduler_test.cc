// PrefetchScheduler tests: deterministic goldens for the queue semantics
// (merge raises priority, generation invalidation, per-tile uniqueness),
// the CacheManager delivery gate, and a randomized concurrent-publishers
// property test for the accounting invariant
//   fills_issued + dedup_saved_fetches == predictions_published.
//
// The goldens run the scheduler in pull mode (null executor): Publish only
// queues, and the test drives fills one at a time with DrainOne(), so every
// assertion sees one well-defined queue state.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "core/cache_manager.h"
#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::core {
namespace {

std::shared_ptr<tiles::TilePyramid> SmallPyramid(int levels = 4) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
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

/// Per-session log of everything the scheduler delivered.
struct DeliveryLog {
  std::mutex mu;
  std::vector<std::pair<tiles::TileKey, std::uint64_t>> delivered;

  PrefetchScheduler::Delivery Sink() {
    return [this](const tiles::TileKey& key, const tiles::TilePtr& tile,
                  std::uint64_t generation, double, std::uint64_t) {
      ASSERT_NE(tile, nullptr);
      std::lock_guard<std::mutex> lock(mu);
      delivered.emplace_back(key, generation);
    };
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return delivered.size();
  }
};

/// A pull-mode scheduler over a big (no-eviction) shared cache.
struct PullModeHarness {
  std::shared_ptr<tiles::TilePyramid> pyramid = SmallPyramid();
  storage::MemoryTileStore store{pyramid};
  SharedTileCache shared{[] {
    SharedTileCacheOptions options;
    options.l1_bytes = 64ull << 20;
    options.num_shards = 2;
    return options;
  }()};
  PrefetchScheduler scheduler{&store, /*executor=*/nullptr, &shared};
};

TEST(PrefetchSchedulerTest, MergeRaisesPriorityAndFillsOnce) {
  PullModeHarness h;
  DeliveryLog log1, log2;
  const auto s1 = h.scheduler.RegisterSession(1, log1.Sink());
  const auto s2 = h.scheduler.RegisterSession(2, log2.Sink());

  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1};
  h.scheduler.Publish(s1, 1, {{a, 0.5}});
  h.scheduler.Publish(s2, 1, {{a, 0.4}, {b, 0.9}});

  // One pending entry per tile; the merged tile outranks the lone
  // higher-confidence one: (0.5 + 0.4) x 2 sessions = 1.8 > 0.9 x 1.
  auto queue = h.scheduler.SnapshotQueue();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].key, a);
  EXPECT_EQ(queue[0].sessions, 2u);
  EXPECT_DOUBLE_EQ(queue[0].aggregate_confidence, 0.9);
  EXPECT_DOUBLE_EQ(queue[0].priority, 1.8);
  EXPECT_EQ(queue[1].key, b);
  EXPECT_DOUBLE_EQ(queue[1].priority, 0.9);

  // The merged entry drains first — ONE fetch, a delivery to each session.
  ASSERT_TRUE(h.scheduler.DrainOne());
  EXPECT_EQ(h.store.fetch_count(), 1u);
  EXPECT_EQ(log1.count(), 1u);
  EXPECT_EQ(log2.count(), 1u);
  ASSERT_TRUE(h.scheduler.DrainOne());
  EXPECT_FALSE(h.scheduler.DrainOne());

  auto stats = h.scheduler.Stats();
  EXPECT_EQ(stats.predictions_published, 3u);
  EXPECT_EQ(stats.merged_predictions, 1u);
  EXPECT_EQ(stats.fills_issued, 2u);
  EXPECT_EQ(stats.dedup_saved_fetches, 1u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  EXPECT_EQ(stats.deliveries, 3u);
  EXPECT_EQ(h.scheduler.pending(), 0u);
}

TEST(PrefetchSchedulerTest, DeliveriesCarryTheirSubscriptionsConfidenceAndTrace) {
  PullModeHarness h;
  struct Received {
    tiles::TileKey key;
    double confidence;
    std::uint64_t trace_id;
  };
  std::vector<Received> got1, got2;
  auto sink = [](std::vector<Received>* out) {
    return [out](const tiles::TileKey& key, const tiles::TilePtr&,
                 std::uint64_t, double confidence, std::uint64_t trace_id) {
      out->push_back({key, confidence, trace_id});
    };
  };
  const auto s1 = h.scheduler.RegisterSession(1, sink(&got1));
  const auto s2 = h.scheduler.RegisterSession(2, sink(&got2));

  const tiles::TileKey a{1, 0, 0}, resident{1, 1, 1};
  auto tile = h.store.Fetch(resident);
  ASSERT_TRUE(tile.ok());
  h.shared.Insert(resident, *tile, {});
  h.scheduler.Publish(s1, 1, {{a, 0.5}, {resident, 0.3}}, 0.0,
                      /*trace_id=*/11);
  h.scheduler.Publish(s2, 1, {{a, 0.4}}, 0.0, /*trace_id=*/22);
  // The resident tile is delivered at Publish with its candidate's values.
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_EQ(got1[0].key, resident);
  EXPECT_DOUBLE_EQ(got1[0].confidence, 0.3);
  EXPECT_EQ(got1[0].trace_id, 11u);

  // One merged fill; each subscriber receives its own subscription's.
  ASSERT_TRUE(h.scheduler.DrainOne());
  ASSERT_EQ(got1.size(), 2u);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(got1[1].key, a);
  EXPECT_DOUBLE_EQ(got1[1].confidence, 0.5);
  EXPECT_EQ(got1[1].trace_id, 11u);
  EXPECT_EQ(got2[0].key, a);
  EXPECT_DOUBLE_EQ(got2[0].confidence, 0.4);
  EXPECT_EQ(got2[0].trace_id, 22u);
}

TEST(PrefetchSchedulerTest, GenerationBumpDropsStaleEntries) {
  PullModeHarness h;
  DeliveryLog log;
  const auto s1 = h.scheduler.RegisterSession(1, log.Sink());

  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1}, c{1, 1, 0};
  h.scheduler.Publish(s1, 1, {{a, 0.8}, {b, 0.6}});
  EXPECT_EQ(h.scheduler.pending(), 2u);

  // The next request supersedes the previous publication: a and b's gen-1
  // subscriptions decay out; b re-enters under gen 2.
  h.scheduler.Publish(s1, 2, {{b, 0.7}, {c, 0.5}});
  auto queue = h.scheduler.SnapshotQueue();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].key, b);
  EXPECT_DOUBLE_EQ(queue[0].priority, 0.7);  // gen-1 confidence is gone

  auto stats = h.scheduler.Stats();
  EXPECT_EQ(stats.stale_drops, 2u);

  while (h.scheduler.DrainOne()) {
  }
  stats = h.scheduler.Stats();
  EXPECT_EQ(stats.predictions_published, 4u);
  EXPECT_EQ(stats.fills_issued, 2u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  // Only current-generation subscriptions were delivered.
  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.delivered.size(), 2u);
  for (const auto& [key, generation] : log.delivered) {
    EXPECT_EQ(generation, 2u);
  }
}

TEST(PrefetchSchedulerTest, PerTileUniquenessAcrossManySessions) {
  PullModeHarness h;
  std::vector<std::unique_ptr<DeliveryLog>> logs;
  std::vector<std::uint64_t> ids;
  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1}, c{1, 1, 0}, d{1, 1, 1};
  for (int s = 0; s < 5; ++s) {
    logs.push_back(std::make_unique<DeliveryLog>());
    ids.push_back(h.scheduler.RegisterSession(0, logs.back()->Sink()));
  }
  // Heavily overlapping lists — including a duplicate within one list.
  h.scheduler.Publish(ids[0], 1, {{a, 0.5}, {b, 0.5}});
  h.scheduler.Publish(ids[1], 1, {{b, 0.5}, {c, 0.5}});
  h.scheduler.Publish(ids[2], 1, {{c, 0.5}, {a, 0.5}});
  h.scheduler.Publish(ids[3], 1, {{a, 0.5}, {a, 0.5}});  // duplicate key
  h.scheduler.Publish(ids[4], 1, {{d, 0.5}});

  // Uniqueness invariant: one pending entry per tile key, always.
  auto queue = h.scheduler.SnapshotQueue();
  ASSERT_EQ(queue.size(), 4u);
  std::map<std::string, std::size_t> sessions_by_tile;
  for (const auto& entry : queue) {
    EXPECT_TRUE(
        sessions_by_tile.emplace(entry.key.ToString(), entry.sessions).second)
        << "duplicate pending entry for " << entry.key.ToString();
  }
  EXPECT_EQ(sessions_by_tile[a.ToString()], 3u);  // the duplicate merged

  while (h.scheduler.DrainOne()) {
  }
  // Each unique tile crossed the store boundary exactly once.
  EXPECT_EQ(h.store.fetch_count(), 4u);
  auto stats = h.scheduler.Stats();
  EXPECT_EQ(stats.predictions_published, 9u);
  EXPECT_EQ(stats.fills_issued, 4u);
  EXPECT_EQ(stats.dedup_saved_fetches, 5u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

TEST(PrefetchSchedulerTest, AlreadyResidentDeliversWithoutScheduling) {
  PullModeHarness h;
  DeliveryLog log;
  const auto s1 = h.scheduler.RegisterSession(1, log.Sink());

  const tiles::TileKey a{1, 0, 0};
  auto tile = h.store.Fetch(a);
  ASSERT_TRUE(tile.ok());
  h.shared.Insert(a, *tile, {});
  const auto fetches_before = h.store.fetch_count();

  h.scheduler.Publish(s1, 1, {{a, 0.8}});
  // Nothing queued, nothing fetched — but the session's region still got
  // its tile, synchronously on the publishing thread.
  EXPECT_EQ(h.scheduler.pending(), 0u);
  EXPECT_EQ(h.store.fetch_count(), fetches_before);
  EXPECT_EQ(log.count(), 1u);
  auto stats = h.scheduler.Stats();
  EXPECT_EQ(stats.already_resident, 1u);
  EXPECT_EQ(stats.dedup_saved_fetches, 1u);
  EXPECT_EQ(stats.fills_issued, 0u);
}

TEST(PrefetchSchedulerTest, CancelSessionRetiresItsSubscriptionsOnly) {
  PullModeHarness h;
  DeliveryLog log1, log2;
  const auto s1 = h.scheduler.RegisterSession(1, log1.Sink());
  const auto s2 = h.scheduler.RegisterSession(2, log2.Sink());

  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1};
  h.scheduler.Publish(s1, 1, {{a, 0.5}, {b, 0.5}});
  h.scheduler.Publish(s2, 1, {{a, 0.5}});

  h.scheduler.CancelSession(s1);
  // b (s1-only) is gone; a survives with s2's subscription alone.
  auto queue = h.scheduler.SnapshotQueue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0].key, a);
  EXPECT_EQ(queue[0].sessions, 1u);
  EXPECT_DOUBLE_EQ(queue[0].priority, 0.5);

  while (h.scheduler.DrainOne()) {
  }
  EXPECT_EQ(log1.count(), 0u);
  EXPECT_EQ(log2.count(), 1u);
  auto stats = h.scheduler.Stats();
  EXPECT_EQ(stats.stale_drops, 2u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

// ---------------------------------------------------------------------------
// CacheManager delivery gate (scheduler-mode fill, steps 1 and 2)

TEST(CacheManagerPrefetchGateTest, StaleGenerationsAreRejected) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);

  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1};
  auto tile = store.Fetch(a);
  ASSERT_TRUE(tile.ok());

  auto plan = manager.BeginPrefetch({a, b}, {0.9, 0.8}, /*generation=*/7);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].key, a);
  EXPECT_DOUBLE_EQ(plan[0].confidence, 0.9);

  // Deliveries for an older fill bounce; the current one lands.
  EXPECT_FALSE(manager.AcceptPrefetched(a, *tile, /*generation=*/6));
  EXPECT_TRUE(manager.AcceptPrefetched(a, *tile, /*generation=*/7));
  EXPECT_TRUE(manager.Cached(a));

  // A newer fill supersedes: generation 7 stragglers bounce off.
  manager.BeginPrefetch({b}, {0.5}, /*generation=*/8);
  EXPECT_FALSE(manager.Cached(a));  // region was cleared by the re-plan
  EXPECT_FALSE(manager.AcceptPrefetched(a, *tile, /*generation=*/7));
  EXPECT_FALSE(manager.Cached(a));

  // Clear closes the gate entirely.
  manager.Clear();
  EXPECT_FALSE(manager.AcceptPrefetched(b, *tile, /*generation=*/8));
}

TEST(CacheManagerPrefetchGateTest, FullRegionKeepsWhatItHolds) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManagerOptions options;
  options.prefetch_bytes = 8 * 8 * sizeof(double);  // one 8x8 tile
  CacheManager manager(&store, options);

  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1};
  auto tile_a = store.Fetch(a);
  auto tile_b = store.Fetch(b);
  ASSERT_TRUE(tile_a.ok() && tile_b.ok());

  manager.BeginPrefetch({a, b}, {}, /*generation=*/1);
  EXPECT_TRUE(manager.AcceptPrefetched(a, *tile_a, 1));
  // Full: the later (lower-priority) delivery is turned away rather than
  // evicting the tile already held.
  EXPECT_FALSE(manager.AcceptPrefetched(b, *tile_b, 1));
  EXPECT_TRUE(manager.Cached(a));
  EXPECT_FALSE(manager.Cached(b));
  // A key the region already holds is replaced in place (a refinement).
  EXPECT_TRUE(manager.AcceptPrefetched(a, *tile_b, 1));
  EXPECT_TRUE(manager.Cached(a));

  // A lone tile larger than the whole budget still lands in an empty
  // region.
  CacheManagerOptions tiny;
  tiny.prefetch_bytes = 1;
  CacheManager small(&store, tiny);
  small.BeginPrefetch({a}, {}, /*generation=*/1);
  EXPECT_TRUE(small.AcceptPrefetched(a, *tile_a, 1));
  EXPECT_TRUE(small.Cached(a));
}

TEST(CacheManagerPrefetchGateTest, PlanSkipsHistoryResidentAndDuplicates) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  CacheManager manager(&store);

  const tiles::TileKey root{0, 0, 0}, a{1, 0, 0};
  ASSERT_TRUE(manager.Request(root).ok());  // root enters the history region

  auto plan = manager.BeginPrefetch({root, a, a}, {0.9, 0.8, 0.7}, 1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].key, a);
  EXPECT_DOUBLE_EQ(plan[0].confidence, 0.8);
}

// ---------------------------------------------------------------------------
// Batched drain (storage/batch_fetch.h): one drain round pops the top-k
// pending entries into a single backend round trip.

TEST(PrefetchSchedulerBatchTest, BatchedDrainPopsTopKInOneRoundTrip) {
  PullModeHarness h;
  PrefetchSchedulerOptions options;
  options.batch.max_batch_tiles = 3;
  PrefetchScheduler scheduler{&h.store, /*executor=*/nullptr, &h.shared,
                              options};
  DeliveryLog log1, log2;
  const auto s1 = scheduler.RegisterSession(1, log1.Sink());
  const auto s2 = scheduler.RegisterSession(2, log2.Sink());

  const tiles::TileKey a{1, 0, 0}, b{1, 0, 1}, c{1, 1, 0}, d{1, 1, 1};
  scheduler.Publish(s1, 1, {{a, 0.9}, {b, 0.8}, {c, 0.7}});
  scheduler.Publish(s2, 1, {{a, 0.6}, {d, 0.5}});

  // First round: the top 3 entries (a merged at (0.9+0.6)x2, then b, c)
  // travel in ONE backend round trip.
  ASSERT_TRUE(scheduler.DrainOne());
  EXPECT_EQ(h.store.query_count(), 1u);
  EXPECT_EQ(h.store.fetch_count(), 3u);
  EXPECT_EQ(log1.count(), 3u);  // a, b, c
  EXPECT_EQ(log2.count(), 1u);  // a
  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.fills_issued, 3u);
  EXPECT_EQ(stats.fetch_batches, 1u);
  EXPECT_EQ(stats.batched_fills, 3u);

  // Second round: only d remains — a partial, single-tile round trip.
  ASSERT_TRUE(scheduler.DrainOne());
  EXPECT_FALSE(scheduler.DrainOne());
  EXPECT_EQ(h.store.query_count(), 2u);
  stats = scheduler.Stats();
  EXPECT_EQ(stats.fills_issued, 4u);
  EXPECT_EQ(stats.fetch_batches, 2u);
  EXPECT_EQ(stats.batched_fills, 3u);  // the single-tile round is unbatched
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  EXPECT_EQ(stats.fills_issued - stats.fetch_batches, 2u);  // rounds saved
}

// ---------------------------------------------------------------------------
// Randomized equivalence property: a batched drain must be observationally
// identical to the per-tile drain — same cache contents, same hit stats,
// same per-session delivery sequences — differing only in how many backend
// round trips carried the fills. Both runs execute one scripted random
// sequence of publishes, cancels, and full drains in pull mode.

TEST(PrefetchSchedulerBatchTest, BatchedDrainEquivalentToPerTileDrain) {
  auto pyramid = SmallPyramid();
  const auto keys = pyramid->spec().AllKeys();
  constexpr int kSessions = 4;
  constexpr int kRounds = 60;

  struct Run {
    storage::MemoryTileStore store;
    SharedTileCache shared;
    PrefetchScheduler scheduler;
    std::vector<std::unique_ptr<DeliveryLog>> logs;
    std::vector<std::uint64_t> ids;

    Run(std::shared_ptr<tiles::TilePyramid> pyramid, std::size_t batch_tiles)
        : store(std::move(pyramid)),
          shared([] {
            SharedTileCacheOptions options;
            options.l1_bytes = 64ull << 20;  // no eviction: see note below
            options.num_shards = 2;
            return options;
          }()),
          scheduler(&store, /*executor=*/nullptr, &shared, [&] {
            PrefetchSchedulerOptions options;
            options.batch.max_batch_tiles = batch_tiles;
            return options;
          }()) {
      for (int s = 0; s < kSessions; ++s) {
        logs.push_back(std::make_unique<DeliveryLog>());
        ids.push_back(scheduler.RegisterSession(
            static_cast<std::uint64_t>(s) + 1, logs.back()->Sink()));
      }
    }
  };
  // Budget sized above the working set: batching reorders the
  // lookup/insert interleaving within a round, so eviction-timing effects
  // are out of scope here (the concurrent stress below covers them).
  Run per_tile(pyramid, 1), batched(pyramid, 4);

  Rng rng(/*seed=*/9021);
  std::vector<std::uint64_t> generations(kSessions, 0);
  for (int round = 0; round < kRounds; ++round) {
    // A burst of random publishes (some superseding, some cancelling),
    // applied identically to both runs...
    const int publishes = 1 + static_cast<int>(rng.UniformUint32(3));
    for (int p = 0; p < publishes; ++p) {
      const int s = static_cast<int>(rng.UniformUint32(kSessions));
      if (rng.UniformUint32(8) == 0) {
        per_tile.scheduler.CancelSession(per_tile.ids[s]);
        batched.scheduler.CancelSession(batched.ids[s]);
        continue;
      }
      std::vector<PrefetchCandidate> list;
      const std::size_t len = 1 + rng.UniformUint32(6);
      for (std::size_t i = 0; i < len; ++i) {
        const auto& key =
            keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
        list.push_back({key, 0.1 + 0.15 * rng.UniformUint32(6)});
      }
      const std::uint64_t generation = ++generations[s];
      per_tile.scheduler.Publish(per_tile.ids[s], generation, list);
      batched.scheduler.Publish(batched.ids[s], generation, list);
    }
    // ...then both drain fully, so the runs re-converge every round.
    while (per_tile.scheduler.DrainOne()) {
    }
    while (batched.scheduler.DrainOne()) {
    }
  }

  // Identical deliveries, per session, in order.
  for (int s = 0; s < kSessions; ++s) {
    std::lock_guard<std::mutex> lock_a(per_tile.logs[s]->mu);
    std::lock_guard<std::mutex> lock_b(batched.logs[s]->mu);
    EXPECT_EQ(per_tile.logs[s]->delivered, batched.logs[s]->delivered)
        << "session " << s << " diverged";
  }
  // Identical cache contents...
  for (const auto& key : keys) {
    EXPECT_EQ(per_tile.shared.Contains(key), batched.shared.Contains(key))
        << key.ToString();
  }
  // ...identical hit stats and scheduler accounting...
  auto stats_a = per_tile.shared.Stats();
  auto stats_b = batched.shared.Stats();
  EXPECT_EQ(stats_a.l1_hits, stats_b.l1_hits);
  EXPECT_EQ(stats_a.misses, stats_b.misses);
  EXPECT_EQ(stats_a.insertions, stats_b.insertions);
  EXPECT_EQ(stats_a.evictions, stats_b.evictions);
  auto sched_a = per_tile.scheduler.Stats();
  auto sched_b = batched.scheduler.Stats();
  EXPECT_EQ(sched_a.predictions_published, sched_b.predictions_published);
  EXPECT_EQ(sched_a.merged_predictions, sched_b.merged_predictions);
  EXPECT_EQ(sched_a.fills_issued, sched_b.fills_issued);
  EXPECT_EQ(sched_a.dedup_saved_fetches, sched_b.dedup_saved_fetches);
  EXPECT_EQ(sched_a.already_resident, sched_b.already_resident);
  EXPECT_EQ(sched_a.stale_drops, sched_b.stale_drops);
  EXPECT_EQ(sched_a.deliveries, sched_b.deliveries);
  EXPECT_EQ(sched_a.fills_issued + sched_a.dedup_saved_fetches,
            sched_a.predictions_published);
  EXPECT_EQ(sched_b.fills_issued + sched_b.dedup_saved_fetches,
            sched_b.predictions_published);
  // ...and the same tiles crossed the store boundary, in fewer round trips.
  EXPECT_EQ(per_tile.store.fetch_count(), batched.store.fetch_count());
  EXPECT_EQ(per_tile.store.query_count(), per_tile.store.fetch_count());
  if (sched_b.batched_fills > 0) {
    EXPECT_LT(batched.store.query_count(), per_tile.store.query_count());
  }
  EXPECT_GT(sched_b.fetch_batches, 0u);
}

// ---------------------------------------------------------------------------
// Randomized property: under concurrent publishers, cancellations, and a
// real executor, every published prediction retires exactly once —
//   fills_issued + dedup_saved_fetches == predictions_published
// once the queue has drained.

TEST(PrefetchSchedulerPropertyTest, AccountingBalancesUnderConcurrentPublishers) {
  constexpr int kPublishers = 6;
  constexpr int kPublishesPerSession = 40;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SharedTileCacheOptions cache_options;
  // Small, filtered cache: fills contend with evictions and admission
  // rejections, so "already resident" probes go both ways.
  cache_options.l1_bytes = 12 * 8 * 8 * sizeof(double);
  cache_options.num_shards = 2;
  cache_options.admission.policy = AdmissionPolicyKind::kTinyLfu;
  cache_options.admission.sketch_counters = 256;
  SharedTileCache shared(cache_options);
  Executor executor(4);
  PrefetchSchedulerOptions scheduler_options;
  scheduler_options.max_in_flight = 3;
  PrefetchScheduler scheduler(&store, &executor, &shared, scheduler_options);

  const auto keys = pyramid->spec().AllKeys();
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::uint64_t> ids(kPublishers);
  for (int s = 0; s < kPublishers; ++s) {
    ids[s] = scheduler.RegisterSession(
        static_cast<std::uint64_t>(s) + 1,
        [&delivered](const tiles::TileKey&, const tiles::TilePtr& tile,
                     std::uint64_t, double, std::uint64_t) {
          EXPECT_NE(tile, nullptr);
          delivered.fetch_add(1);
        });
  }

  std::vector<std::thread> threads;
  for (int s = 0; s < kPublishers; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(/*seed=*/4200 + s);
      for (int p = 0; p < kPublishesPerSession; ++p) {
        std::vector<PrefetchCandidate> list;
        const std::size_t len = 1 + rng.UniformUint32(5);
        for (std::size_t i = 0; i < len; ++i) {
          const auto& key =
              keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
          list.push_back({key, 0.1 + 0.2 * rng.UniformUint32(5)});
        }
        scheduler.Publish(ids[s], static_cast<std::uint64_t>(p) + 1,
                          std::move(list));
        if (p % 10 == 9) scheduler.CancelSession(ids[s]);
      }
      scheduler.WaitForSession(ids[s]);
    });
  }
  for (auto& t : threads) t.join();

  auto stats = scheduler.Stats();
  EXPECT_GT(stats.predictions_published, 0u);
  EXPECT_GT(stats.merged_predictions, 0u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  EXPECT_EQ(stats.fill_failures, 0u);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(stats.deliveries, delivered.load());

  // The shared cache's own books still balance after merged-fill traffic.
  auto cache_stats = shared.Stats();
  EXPECT_EQ(cache_stats.admission_attempts,
            cache_stats.insertions + cache_stats.admission_rejects);
  EXPECT_EQ(cache_stats.insertions - cache_stats.evictions,
            static_cast<std::uint64_t>(shared.size()));
}

// ---------------------------------------------------------------------------
// TSan stress: concurrent publishers + BATCHED executor drains +
// cancellations + shutdown while fills are in flight. Run in the CI TSan
// job; the accounting invariant must survive an abrupt teardown too.

TEST(PrefetchSchedulerBatchTest, ConcurrentBatchedDrainAndTeardownStress) {
  constexpr int kPublishers = 6;
  constexpr int kPublishesPerSession = 30;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  storage::SingleFlightTileStore single_flight(&store);
  SharedTileCacheOptions cache_options;
  cache_options.l1_bytes = 12 * 8 * 8 * sizeof(double);  // eviction churn
  cache_options.num_shards = 2;
  cache_options.admission.policy = AdmissionPolicyKind::kTinyLfu;
  cache_options.admission.sketch_counters = 256;
  SharedTileCache shared(cache_options);
  Executor executor(4);
  SimClock clock;
  PrefetchSchedulerOptions scheduler_options;
  scheduler_options.max_in_flight = 3;
  scheduler_options.batch.max_batch_tiles = 4;
  scheduler_options.clock = &clock;
  PrefetchScheduler scheduler(&single_flight, &executor, &shared,
                              scheduler_options);

  const auto keys = pyramid->spec().AllKeys();
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::uint64_t> ids(kPublishers);
  for (int s = 0; s < kPublishers; ++s) {
    ids[s] = scheduler.RegisterSession(
        static_cast<std::uint64_t>(s) + 1,
        [&delivered](const tiles::TileKey&, const tiles::TilePtr& tile,
                     std::uint64_t, double, std::uint64_t) {
          EXPECT_NE(tile, nullptr);
          delivered.fetch_add(1);
        });
  }

  std::vector<std::thread> threads;
  for (int s = 0; s < kPublishers; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(/*seed=*/7100 + s);
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
        clock.AdvanceMillis(1.0);  // ages pending entries
        if (p % 9 == 8) scheduler.CancelSession(ids[s]);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Abrupt teardown: shut down while the queue may still hold entries and
  // batched fills may be mid-flight. Shutdown must retire everything and
  // leave the books balanced.
  scheduler.Shutdown();
  auto stats = scheduler.Stats();
  EXPECT_GT(stats.predictions_published, 0u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  EXPECT_EQ(stats.fill_failures, 0u);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(stats.deliveries, delivered.load());
  EXPECT_LE(stats.fetch_batches, stats.fills_issued);

  auto cache_stats = shared.Stats();
  EXPECT_EQ(cache_stats.admission_attempts,
            cache_stats.insertions + cache_stats.admission_rejects);
}

// Teardown calls racing on one session: a cancel, a wait and two
// unregisters all wait out the same in-flight delivery. Whichever erases
// the session must not leave the others reading it (a use-after-free under
// ASan and TSan). Mirrors the stream scheduler's test of the same name.
TEST(PrefetchSchedulerStressTest, ConcurrentTeardownsOfOneSessionAllReturn) {
  PullModeHarness h;
  std::mutex mu;
  std::condition_variable cv;
  bool in_delivery = false;
  bool release = false;
  const auto session = h.scheduler.RegisterSession(
      1, [&](const tiles::TileKey&, const tiles::TilePtr&, std::uint64_t,
             double, std::uint64_t) {
        std::unique_lock<std::mutex> lock(mu);
        in_delivery = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      });
  h.scheduler.Publish(session, 1, {{{1, 0, 0}, 0.5}});
  std::thread drain([&] { h.scheduler.DrainOne(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_delivery; });
  }
  std::vector<std::thread> teardowns;
  teardowns.emplace_back([&] { h.scheduler.CancelSession(session); });
  teardowns.emplace_back([&] { h.scheduler.WaitForSession(session); });
  teardowns.emplace_back([&] { h.scheduler.UnregisterSession(session); });
  teardowns.emplace_back([&] { h.scheduler.UnregisterSession(session); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all waiting
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  drain.join();
  for (auto& t : teardowns) t.join();

  // The session is gone: a later publication publishes nothing.
  h.scheduler.Publish(session, 2, {{{1, 1, 0}, 0.5}});
  EXPECT_EQ(h.scheduler.pending(), 0u);
  const auto stats = h.scheduler.Stats();
  EXPECT_EQ(stats.predictions_published, 1u);
  EXPECT_EQ(stats.deliveries, 1u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

}  // namespace
}  // namespace fc::core
