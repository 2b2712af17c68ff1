// Per-session fairness share tests: deterministic DRR goldens (an outvoted
// session below the deadline utility bar still drains through its
// guaranteed slice; weights split slots proportionally), the defaults-off
// bit-identity guarantee, the deadline_ms snapshot default and SimClock
// rounding regressions, a randomized long-run share property under
// permanent saturation, a TSan stress with session churn, and the
// wall-clock (SteadyClock) deadline adapter.
//
// Goldens run in pull mode (null executor): Publish only queues, DrainOne
// drives one well-defined drain round at a time, and virtual time moves
// only when the test advances the SimClock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/rng.h"
#include "common/sim_clock.h"
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

/// Pull-mode scheduler with a SimClock wired and knobs configurable.
struct FairnessHarness {
  explicit FairnessHarness(double fairness_share, bool deadline_aware = false,
                           double deadline_utility_bar = 0.0) {
    PrefetchSchedulerOptions options;
    options.clock = &clock;
    options.fairness_share = fairness_share;
    options.deadline_aware = deadline_aware;
    options.deadline_utility_bar = deadline_utility_bar;
    scheduler.emplace(&store, /*executor=*/nullptr, /*shared=*/nullptr,
                      options);
  }

  std::shared_ptr<tiles::TilePyramid> pyramid = SmallPyramid();
  storage::MemoryTileStore store{pyramid};
  SimClock clock;
  std::optional<PrefetchScheduler> scheduler;
};

/// Registers a session whose deliveries append to `out`.
std::uint64_t Register(PrefetchScheduler& scheduler, std::uint64_t id,
                       std::vector<tiles::TileKey>* out) {
  return scheduler.RegisterSession(
      id, [out](const tiles::TileKey& key, const tiles::TilePtr& tile,
                std::uint64_t, double, std::uint64_t) {
        ASSERT_NE(tile, nullptr);
        out->push_back(key);
      });
}

// ---------------------------------------------------------------------------
// DRR goldens

TEST(FairnessShareTest, OutvotedSessionDrainsThroughItsShare) {
  // Utility order alone would drain the merged 3.6-priority Y first and X
  // last every time; with the whole budget reserved for the fairness
  // slice, the outvoted session (smallest id wins the all-equal-deficit
  // tie) is served FIRST, through a pick counted as a promotion.
  FairnessHarness h(/*fairness_share=*/1.0);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(*h.scheduler, 1, &delivered);
  const auto hot_a = Register(*h.scheduler, 2, &delivered);
  const auto hot_b = Register(*h.scheduler, 3, &delivered);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  h.scheduler->Publish(hot_a, 1, {{y, 0.9}});
  h.scheduler->Publish(hot_b, 1, {{y, 0.9}});
  h.scheduler->Publish(outvoted, 1, {{x, 0.4}});

  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], x);

  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 3u);  // Y fans out to both hot sessions
  EXPECT_FALSE(h.scheduler->DrainOne());

  auto stats = h.scheduler->Stats();
  EXPECT_EQ(stats.fairness_picks, 2u);
  EXPECT_EQ(stats.fairness_promotions, 1u);  // only X jumped the queue
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

TEST(FairnessShareTest, RescuesSessionBelowDeadlineUtilityBar) {
  // The ISSUE's motivating hole: deadline mode with an absolute bar the
  // outvoted session's 0.4-priority entries never clear. EDF cannot rescue
  // X (below the bar), so without shares it waits out every hot drain;
  // the fairness slice serves it in round one regardless.
  FairnessHarness h(/*fairness_share=*/0.5, /*deadline_aware=*/true,
                    /*deadline_utility_bar=*/1.0);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(*h.scheduler, 1, &delivered);
  const auto hot_a = Register(*h.scheduler, 2, &delivered);
  const auto hot_b = Register(*h.scheduler, 3, &delivered);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  // X's deadline (100 ms) is nearer than Y's (500 ms) — yet the bar keeps
  // it out of the EDF pass, so only the fairness floor can serve it early.
  h.scheduler->Publish(hot_a, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(hot_b, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(outvoted, 1, {{x, 0.4}}, /*think_ms=*/100.0);

  // Budget 1, share 0.5: the first round banks half a slot (no pop yet)
  // and EDF drains Y; the second round's accrual tops the bank up to a
  // full slot and the slice pops X.
  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], y);
  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered.back(), x);

  auto stats = h.scheduler->Stats();
  EXPECT_EQ(stats.fairness_picks, 1u);
  EXPECT_EQ(stats.deadline_promotions, 0u);  // the bar held
}

TEST(FairnessShareTest, WeightsSplitSlotsProportionally) {
  // A (weight 1) publishes higher-utility keys than B (weight 3). Pure
  // utility order would drain all of A first; with the full budget in the
  // DRR slice, B earns three slots for every one of A's.
  FairnessHarness h(/*fairness_share=*/1.0);
  std::vector<tiles::TileKey> a_fills, b_fills;
  const auto a = Register(*h.scheduler, 1, &a_fills);
  const auto b = Register(*h.scheduler, 2, &b_fills);
  h.scheduler->SetSessionWeight(b, 3.0);

  std::vector<PrefetchCandidate> a_wave, b_wave;
  for (std::int64_t i = 0; i < 8; ++i) {
    a_wave.push_back({{3, i, 0}, 0.9});
    b_wave.push_back({{3, i, 1}, 0.5});
  }
  h.scheduler->Publish(a, 1, std::move(a_wave));
  h.scheduler->Publish(b, 1, std::move(b_wave));

  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(h.scheduler->DrainOne());
  }
  // Deterministic DRR sequence: 2 of A's 8 drained vs 6 of B's.
  EXPECT_EQ(a_fills.size(), 2u);
  EXPECT_EQ(b_fills.size(), 6u);
  // The very first slot goes to B (largest deficit), despite A's
  // strictly higher utility.
  EXPECT_GT(h.scheduler->Stats().fairness_promotions, 0u);
}

TEST(FairnessShareTest, DefaultsKeepDrainOrderBitIdentical) {
  // fairness_share = 0 (the default): same publishes as the first golden,
  // but the drain is plain utility order and the fairness counters never
  // move — weights may be set, they are simply never consulted.
  FairnessHarness h(/*fairness_share=*/0.0);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(*h.scheduler, 1, &delivered);
  const auto hot_a = Register(*h.scheduler, 2, &delivered);
  const auto hot_b = Register(*h.scheduler, 3, &delivered);
  h.scheduler->SetSessionWeight(outvoted, 100.0);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  h.scheduler->Publish(hot_a, 1, {{y, 0.9}});
  h.scheduler->Publish(hot_b, 1, {{y, 0.9}});
  h.scheduler->Publish(outvoted, 1, {{x, 0.4}});

  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], y);  // utility winner, weight notwithstanding
  ASSERT_TRUE(h.scheduler->DrainOne());
  EXPECT_EQ(delivered.back(), x);

  auto stats = h.scheduler->Stats();
  EXPECT_EQ(stats.fairness_picks, 0u);
  EXPECT_EQ(stats.fairness_promotions, 0u);
}

// ---------------------------------------------------------------------------
// Satellite regressions

TEST(FairnessShareTest, SnapshotEntryDefaultsToNoDeadline) {
  // A default-constructed snapshot entry must never read as already
  // expired: deadline 0.0 is the virtual epoch, i.e. the distant past.
  PrefetchQueueEntry entry;
  EXPECT_TRUE(std::isinf(entry.deadline_ms));
  EXPECT_DOUBLE_EQ(entry.deadline_ms, PrefetchScheduler::kNoDeadline);
  EXPECT_GT(entry.deadline_ms, 1e18);  // later than any conceivable now
}

TEST(SimClockTest, AdvanceMillisRoundsToNearestMicrosecond) {
  SimClock clock;
  // Truncation regression: 1000 sub-microsecond advances used to move the
  // clock by exactly nothing.
  for (int i = 0; i < 1000; ++i) clock.AdvanceMillis(0.0009);
  EXPECT_EQ(clock.NowMicros(), 1000);  // 0.9 us rounds to 1 us per call

  clock.Reset();
  clock.AdvanceMillis(0.0004);  // 0.4 us rounds down
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.AdvanceMillis(0.0006);  // 0.6 us rounds up
  EXPECT_EQ(clock.NowMicros(), 1);
  clock.AdvanceMillis(19.5);  // integral-microsecond charges are exact
  EXPECT_EQ(clock.NowMicros(), 19501);
}

// ---------------------------------------------------------------------------
// Randomized long-run share property: under permanent saturation with the
// whole budget in the DRR slice, every session's drained-fill fraction
// converges to (at least) its weight share, regardless of how lopsided
// the utility priorities are — and the books still balance.

TEST(FairnessSharePropertyTest, LongRunFillFractionsMatchWeightShares) {
  constexpr int kSessions = 8;
  constexpr int kRounds = 2000;
  constexpr double kEpsilon = 0.05;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SimClock clock;
  PrefetchSchedulerOptions options;
  options.clock = &clock;
  options.fairness_share = 1.0;
  options.batch.max_batch_tiles = 2;
  PrefetchScheduler scheduler(&store, nullptr, nullptr, options);

  const auto keys = pyramid->spec().AllKeys();
  Rng rng(/*seed=*/808);
  struct Session {
    std::uint64_t id = 0;
    double weight = 1.0;
    std::uint64_t fills = 0;
    std::uint64_t generation = 0;
    std::size_t cursor = 0;  // rotates through a private key range
  };
  std::vector<Session> sessions(kSessions);
  double total_weight = 0.0;
  for (int s = 0; s < kSessions; ++s) {
    auto& session = sessions[s];
    session.id = scheduler.RegisterSession(
        static_cast<std::uint64_t>(s) + 1,
        [&session](const tiles::TileKey&, const tiles::TilePtr& tile,
                   std::uint64_t, double, std::uint64_t) {
          ASSERT_NE(tile, nullptr);
          ++session.fills;
        });
    session.weight = 1.0 + static_cast<double>(s % 3);  // weights 1..3
    scheduler.SetSessionWeight(session.id, session.weight);
    total_weight += session.weight;
  }

  // Private, disjoint key sets (8 keys each out of the level-3 grid of
  // 64): no merging, so each fill serves exactly one session. Confidence
  // grows with the session index — utility order alone would all but
  // starve session 0.
  auto publish = [&](Session& session, int index) {
    std::vector<PrefetchCandidate> wave;
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t slot = index * 8 + (session.cursor + j) % 8;
      wave.push_back({tiles::TileKey{3, static_cast<std::int64_t>(slot % 8),
                                     static_cast<std::int64_t>(slot / 8)},
                      0.1 + 0.1 * index + 0.01 * rng.UniformDouble()});
    }
    session.cursor = (session.cursor + 1) % 8;
    scheduler.Publish(session.id, ++session.generation, std::move(wave));
  };

  for (int round = 0; round < kRounds; ++round) {
    // Permanent saturation: every session re-publishes a fresh wave each
    // round (superseding its last), so everyone always has pending work.
    for (int s = 0; s < kSessions; ++s) publish(sessions[s], s);
    ASSERT_TRUE(scheduler.DrainOne());
    clock.AdvanceMillis(10.0);
  }

  std::uint64_t total_fills = 0;
  for (const auto& session : sessions) total_fills += session.fills;
  ASSERT_GT(total_fills, 0u);
  for (int s = 0; s < kSessions; ++s) {
    const double fraction = static_cast<double>(sessions[s].fills) /
                            static_cast<double>(total_fills);
    const double share = sessions[s].weight / total_weight;
    EXPECT_GE(fraction, share - kEpsilon)
        << "session " << s << " (weight " << sessions[s].weight
        << ") drained fraction " << fraction << " < share " << share;
  }

  scheduler.Shutdown();
  auto stats = scheduler.Stats();
  EXPECT_GT(stats.fairness_picks, 0u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

// ---------------------------------------------------------------------------
// TSan stress: fairness-share batched drains racing publishers, weight
// updates, cancellations, and session churn (unregister + fresh register
// mid-saturation). Run in the CI TSan job.

TEST(FairnessShareStressTest, ConcurrentDrainsWithSessionChurn) {
  constexpr int kPublishers = 6;
  constexpr int kPublishesPerSession = 30;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  storage::SingleFlightTileStore single_flight(&store);
  SharedTileCacheOptions cache_options;
  cache_options.l1_bytes = 12 * 8 * 8 * sizeof(double);  // eviction churn
  cache_options.num_shards = 2;
  SharedTileCache shared(cache_options);
  Executor executor(4);
  SimClock clock;
  PrefetchSchedulerOptions scheduler_options;
  scheduler_options.max_in_flight = 3;
  scheduler_options.batch.max_batch_tiles = 4;
  scheduler_options.clock = &clock;
  scheduler_options.deadline_aware = true;
  scheduler_options.fairness_share = 0.25;
  PrefetchScheduler scheduler(&single_flight, &executor, &shared,
                              scheduler_options);

  const auto keys = pyramid->spec().AllKeys();
  std::atomic<std::uint64_t> delivered{0};
  const auto deliver = [&delivered](const tiles::TileKey&,
                                    const tiles::TilePtr& tile, std::uint64_t,
                                    double, std::uint64_t) {
    EXPECT_NE(tile, nullptr);
    delivered.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (int s = 0; s < kPublishers; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(/*seed=*/8800 + s);
      std::uint64_t id = scheduler.RegisterSession(
          static_cast<std::uint64_t>(s) * 1000 + 1, deliver);
      scheduler.SetSessionWeight(id, 1.0 + (s % 3));
      for (int p = 0; p < kPublishesPerSession; ++p) {
        std::vector<PrefetchCandidate> list;
        const std::size_t len = 1 + rng.UniformUint32(6);
        for (std::size_t i = 0; i < len; ++i) {
          const auto& key =
              keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
          list.push_back({key, 0.1 + 0.2 * rng.UniformUint32(5)});
        }
        const double think = rng.UniformUint32(3) == 0
                                 ? 0.0
                                 : 1.0 + rng.UniformDouble() * 20.0;
        scheduler.Publish(id, static_cast<std::uint64_t>(p) + 1,
                          std::move(list), think);
        clock.AdvanceMillis(1.0);  // ages deadlines
        if (p % 9 == 8) scheduler.CancelSession(id);
        if (p % 11 == 10) {
          // Session churn mid-saturation: this user leaves (retiring its
          // queue and joining its in-flight deliveries) and a new one
          // takes over the thread, with generations restarting at 1.
          const std::uint64_t dead = id;
          scheduler.UnregisterSession(dead);
          // Weight updates on a dead id must be ignored, not crash.
          scheduler.SetSessionWeight(dead, 7.0);
          id = scheduler.RegisterSession(
              static_cast<std::uint64_t>(s) * 1000 +
                  static_cast<std::uint64_t>(p) + 2,
              deliver);
          scheduler.SetSessionWeight(id, 1.0 + rng.UniformDouble() * 3.0);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Abrupt teardown with entries pending and batched fills mid-flight.
  scheduler.Shutdown();
  auto stats = scheduler.Stats();
  EXPECT_GT(stats.predictions_published, 0u);
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  EXPECT_EQ(stats.fill_failures, 0u);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(stats.deliveries, delivered.load());
}

// ---------------------------------------------------------------------------
// Wall-clock adapter: the deadline machinery must behave identically on
// the monotonic SteadyClock — EDF ordering needs no time passage at all
// (a nearer think estimate IS a nearer deadline), and expiry needs only a
// few real milliseconds to elapse.

TEST(WallClockTest, SteadyClockIsMonotonic) {
  SteadyClock clock;
  const double t0 = clock.NowMillis();
  EXPECT_GE(t0, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double t1 = clock.NowMillis();
  EXPECT_GE(t1 - t0, 1.0);  // at least ~the sleep elapsed
  EXPECT_GE(clock.NowMillis(), t1);
}

TEST(WallClockTest, EdfDrainsNearestDeadlineOnSteadyClock) {
  // The EDF golden from deadline_scheduler_test, time base swapped: the
  // outvoted session's 100 ms think window beats the hot pair's 500 ms
  // regardless of which clock stamps "now".
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SteadyClock clock;
  PrefetchSchedulerOptions options;
  options.clock = &clock;
  options.deadline_aware = true;
  PrefetchScheduler scheduler(&store, nullptr, nullptr, options);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(scheduler, 1, &delivered);
  const auto hot_a = Register(scheduler, 2, &delivered);
  const auto hot_b = Register(scheduler, 3, &delivered);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  scheduler.Publish(hot_a, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  scheduler.Publish(hot_b, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  scheduler.Publish(outvoted, 1, {{x, 0.4}}, /*think_ms=*/100.0);

  ASSERT_TRUE(scheduler.DrainOne());
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], x);
  EXPECT_EQ(scheduler.Stats().deadline_promotions, 1u);

  ASSERT_TRUE(scheduler.DrainOne());
  ASSERT_EQ(delivered.size(), 3u);
  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
  scheduler.Shutdown();
}

TEST(WallClockTest, DeadlinesExpireAgainstRealTime) {
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SteadyClock clock;
  PrefetchSchedulerOptions options;
  options.clock = &clock;
  options.deadline_aware = true;
  PrefetchScheduler scheduler(&store, nullptr, nullptr, options);
  std::vector<tiles::TileKey> delivered;
  const auto id = Register(scheduler, 1, &delivered);

  scheduler.Publish(id, 1, {{{1, 0, 0}, 0.8}}, /*think_ms=*/1.0);
  // The user has statistically moved on — in real elapsed time.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(scheduler.DrainOne());

  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(delivered.size(), 1u);  // still delivered: miss, not drop
  scheduler.Shutdown();
}

}  // namespace
}  // namespace fc::core
