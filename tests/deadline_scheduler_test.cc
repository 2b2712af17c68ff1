// Deadline-aware prefetch scheduling tests: deterministic EDF goldens (an
// outvoted session's entry drains before higher-utility work once its
// deadline is nearer), the absolute utility bar, expiry accounting, the
// clockless enqueue-stamp sentinel, a randomized no-starvation property
// against the utility-only baseline, and a TSan stress mixing publishes,
// deadline expiries, cancellations, and batched executor drains.
//
// Goldens run in pull mode (null executor): Publish only queues, DrainOne
// drives one well-defined drain round at a time, and virtual time moves
// only when the test advances the SimClock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/prefetch_scheduler.h"
#include "core/shared_tile_cache.h"
#include "sim/think_time.h"
#include "server/think_time.h"
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

/// Pull-mode scheduler with a SimClock wired, deadline mode configurable.
struct DeadlineHarness {
  explicit DeadlineHarness(bool deadline_aware,
                           double deadline_utility_bar = 0.0) {
    PrefetchSchedulerOptions options;
    options.clock = &clock;
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
// EDF goldens

TEST(DeadlineSchedulerTest, EdfDrainsNearestDeadlineBeforeHigherUtility) {
  DeadlineHarness h(/*deadline_aware=*/true);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(*h.scheduler, 1, &delivered);
  const auto hot_a = Register(*h.scheduler, 2, &delivered);
  const auto hot_b = Register(*h.scheduler, 3, &delivered);

  // Two sessions merge on Y (priority (0.9 + 0.9) x 2 = 3.6) with a lazy
  // 500 ms think window; the outvoted session's X is worth only 0.4 but
  // its user moves again in 100 ms.
  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  h.scheduler->Publish(hot_a, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(hot_b, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(outvoted, 1, {{x, 0.4}}, /*think_ms=*/100.0);

  // Pure utility order would drain Y first; EDF serves the nearer
  // deadline.
  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], x);
  EXPECT_EQ(h.scheduler->Stats().deadline_promotions, 1u);

  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 3u);  // Y fans out to both hot sessions
  EXPECT_FALSE(h.scheduler->DrainOne());

  auto stats = h.scheduler->Stats();
  EXPECT_EQ(stats.deadline_promotions, 1u);  // Y was the top: no promotion
  EXPECT_EQ(stats.deadline_misses, 0u);      // clock never moved
  EXPECT_EQ(stats.fills_issued + stats.dedup_saved_fetches,
            stats.predictions_published);
}

TEST(DeadlineSchedulerTest, UtilityOrderUnchangedWhenDeadlineModeOff) {
  // Identical publishes, deadline mode off: think estimates ride along but
  // the drain is bit-identical to the utility-only scheduler.
  DeadlineHarness h(/*deadline_aware=*/false);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(*h.scheduler, 1, &delivered);
  const auto hot_a = Register(*h.scheduler, 2, &delivered);
  const auto hot_b = Register(*h.scheduler, 3, &delivered);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  h.scheduler->Publish(hot_a, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(hot_b, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(outvoted, 1, {{x, 0.4}}, /*think_ms=*/100.0);

  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], y);

  auto stats = h.scheduler->Stats();
  EXPECT_EQ(stats.deadline_promotions, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
}

TEST(DeadlineSchedulerTest, AbsoluteUtilityBarGatesPromotion) {
  // Same scenario, but the bar (1.0) excludes the 0.4-priority entry from
  // EDF: it cannot jump the queue and drains second through the utility
  // backfill.
  DeadlineHarness h(/*deadline_aware=*/true, /*deadline_utility_bar=*/1.0);
  std::vector<tiles::TileKey> delivered;
  const auto outvoted = Register(*h.scheduler, 1, &delivered);
  const auto hot_a = Register(*h.scheduler, 2, &delivered);
  const auto hot_b = Register(*h.scheduler, 3, &delivered);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  h.scheduler->Publish(hot_a, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(hot_b, 1, {{y, 0.9}}, /*think_ms=*/500.0);
  h.scheduler->Publish(outvoted, 1, {{x, 0.4}}, /*think_ms=*/100.0);

  ASSERT_TRUE(h.scheduler->DrainOne());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], y);  // above the bar AND earliest eligible
  ASSERT_TRUE(h.scheduler->DrainOne());
  EXPECT_EQ(delivered.back(), x);
  EXPECT_EQ(h.scheduler->Stats().deadline_promotions, 0u);
}

TEST(DeadlineSchedulerTest, ExpiredEntriesCountAsMisses) {
  DeadlineHarness h(/*deadline_aware=*/true);
  std::vector<tiles::TileKey> delivered;
  const auto id = Register(*h.scheduler, 1, &delivered);

  h.scheduler->Publish(id, 1, {{{1, 0, 0}, 0.8}}, /*think_ms=*/10.0);
  h.clock.AdvanceMillis(50.0);  // the user has statistically moved on
  ASSERT_TRUE(h.scheduler->DrainOne());

  auto stats = h.scheduler->Stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(delivered.size(), 1u);  // still delivered: miss, not drop
}

TEST(DeadlineSchedulerTest, NoEstimateDrainsInUtilityOrder) {
  // think_ms <= 0: the entry is deadline-free and drains via utility order
  // even in deadline mode.
  DeadlineHarness h(/*deadline_aware=*/true);
  std::vector<tiles::TileKey> delivered;
  const auto s1 = Register(*h.scheduler, 1, &delivered);
  const auto s2 = Register(*h.scheduler, 2, &delivered);

  const tiles::TileKey x{1, 0, 0}, y{1, 1, 1};
  h.scheduler->Publish(s1, 1, {{x, 0.4}});  // no estimate
  h.scheduler->Publish(s2, 1, {{y, 0.9}});  // no estimate
  auto queue = h.scheduler->SnapshotQueue();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_TRUE(std::isinf(queue[0].deadline_ms));
  EXPECT_TRUE(std::isinf(queue[1].deadline_ms));

  ASSERT_TRUE(h.scheduler->DrainOne());
  EXPECT_EQ(delivered[0], y);  // plain utility order
  EXPECT_EQ(h.scheduler->Stats().deadline_promotions, 0u);
}

// ---------------------------------------------------------------------------
// Clockless sentinel (the force-flush regression)

TEST(DeadlineSchedulerTest, ClocklessPublishCarriesSentinelNotZeroAge) {
  // Without a clock the entry must NOT claim enqueue time 0, which reads
  // as a real (and the oldest possible) virtual time. The sentinel is
  // negative.
  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  PrefetchSchedulerOptions options;  // no clock
  options.deadline_aware = true;     // ignored without a clock
  PrefetchScheduler scheduler(&store, nullptr, nullptr, options);
  std::vector<tiles::TileKey> delivered;
  const auto id = Register(scheduler, 1, &delivered);

  scheduler.Publish(id, 1, {{{1, 0, 0}, 0.4}, {{1, 1, 1}, 0.9}},
                    /*think_ms=*/100.0);
  auto queue = scheduler.SnapshotQueue();
  ASSERT_EQ(queue.size(), 2u);
  for (const auto& entry : queue) {
    EXPECT_LT(entry.enqueue_ms, 0.0);
    EXPECT_DOUBLE_EQ(entry.enqueue_ms, PrefetchScheduler::kNoEnqueueStamp);
    EXPECT_TRUE(std::isinf(entry.deadline_ms));  // no clock, no deadlines
  }

  // Deadline mode without a clock degrades to plain utility order.
  ASSERT_TRUE(scheduler.DrainOne());
  EXPECT_EQ(delivered[0], (tiles::TileKey{1, 1, 1}));
  EXPECT_EQ(scheduler.Stats().deadline_promotions, 0u);
  scheduler.Shutdown();
}

TEST(DeadlineSchedulerTest, ClockedPublishStampsCurrentVirtualTime) {
  DeadlineHarness h(/*deadline_aware=*/true);
  std::vector<tiles::TileKey> delivered;
  const auto id = Register(*h.scheduler, 1, &delivered);

  h.clock.AdvanceMillis(1234.0);
  h.scheduler->Publish(id, 1, {{{1, 0, 0}, 0.5}}, /*think_ms=*/200.0);
  auto queue = h.scheduler->SnapshotQueue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue[0].enqueue_ms, 1234.0);
  EXPECT_DOUBLE_EQ(queue[0].deadline_ms, 1434.0);
}

// ---------------------------------------------------------------------------
// Think-time estimation (server layer) and the sim phase model

TEST(ThinkTimeEstimatorTest, PhasePriorAnswersUntilWarmupThenEwma) {
  server::ThinkTimeOptions options;
  options.ewma_alpha = 0.5;
  options.warmup_samples = 2;
  options.phase_prior_ms = sim::PhasePriorMs(sim::PhaseThinkTimeModel{});
  server::ThinkTimeEstimator estimator(options);

  // Before any gap: the phase priors answer, and they differ by phase.
  const double forage0 = estimator.EstimateMs(AnalysisPhase::kForaging);
  const double sense0 = estimator.EstimateMs(AnalysisPhase::kSensemaking);
  EXPECT_LT(forage0, sense0);
  EXPECT_DOUBLE_EQ(forage0, sim::PhaseThinkTimeModel{}.foraging_mean_ms);

  estimator.Observe(0.0);     // anchors the gap measurement
  estimator.Observe(400.0);   // gap 400
  EXPECT_EQ(estimator.samples(), 1u);
  EXPECT_DOUBLE_EQ(estimator.EstimateMs(AnalysisPhase::kForaging), forage0);

  estimator.Observe(1000.0);  // gap 600: warmup reached, EWMA takes over
  EXPECT_EQ(estimator.samples(), 2u);
  // EWMA = 0.5 x 600 + 0.5 x 400 = 500, regardless of phase.
  EXPECT_DOUBLE_EQ(estimator.EstimateMs(AnalysisPhase::kForaging), 500.0);
  EXPECT_DOUBLE_EQ(estimator.EstimateMs(AnalysisPhase::kSensemaking), 500.0);

  estimator.Reset();
  EXPECT_EQ(estimator.samples(), 0u);
  EXPECT_DOUBLE_EQ(estimator.EstimateMs(AnalysisPhase::kForaging), forage0);
}

TEST(ThinkTimeEstimatorTest, GapsAndEstimatesAreClamped) {
  server::ThinkTimeOptions options;
  options.min_ms = 50.0;
  options.max_ms = 1000.0;
  options.warmup_samples = 1;
  server::ThinkTimeEstimator estimator(options);
  estimator.Observe(0.0);
  estimator.Observe(1.0);  // 1 ms burst clamps up to min_ms
  EXPECT_DOUBLE_EQ(estimator.EstimateMs(AnalysisPhase::kForaging), 50.0);
  estimator.Observe(100000.0);  // coffee break clamps down to max_ms
  EXPECT_LE(estimator.EstimateMs(AnalysisPhase::kForaging), 1000.0);
}

TEST(SimThinkTimeTest, SamplesFollowPhaseMeansAndFloor) {
  const sim::PhaseThinkTimeModel model;
  EXPECT_LT(sim::MeanThinkMs(model, AnalysisPhase::kForaging),
            sim::MeanThinkMs(model, AnalysisPhase::kNavigation));
  EXPECT_LT(sim::MeanThinkMs(model, AnalysisPhase::kNavigation),
            sim::MeanThinkMs(model, AnalysisPhase::kSensemaking));

  Rng rng(/*seed=*/77);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double sample =
        sim::SampleThinkMs(model, AnalysisPhase::kSensemaking, rng);
    EXPECT_GE(sample, model.min_ms);
    sum += sample;
  }
  // The truncated-Gaussian mean stays near the phase mean.
  EXPECT_NEAR(sum / 2000.0, model.sensemaking_mean_ms,
              0.1 * model.sensemaking_mean_ms);
}

// ---------------------------------------------------------------------------
// Randomized no-starvation property: one outvoted session against four
// groups of hot sessions that merge into much higher-priority entries,
// under a saturated drain budget. Deadline mode must bound the outvoted
// session's max fill wait; utility-only demonstrably does not. The books
// must balance either way.

struct StarvationResult {
  double outvoted_max_wait_ms = 0.0;
  std::uint64_t deadline_promotions = 0;
  bool books_balance = false;
};

StarvationResult RunStarvationSim(bool deadline_aware) {
  constexpr int kHotGroups = 4;
  constexpr int kHotPerGroup = 4;
  constexpr double kHotThinkMs = 400.0;
  constexpr double kOutvotedThinkMs = 250.0;
  constexpr double kServiceMs = 120.0;  // per drain round: saturates
  constexpr double kEndMs = 8000.0;

  auto pyramid = SmallPyramid();
  storage::MemoryTileStore store(pyramid);
  SimClock clock;
  PrefetchSchedulerOptions options;
  options.clock = &clock;
  options.batch.max_batch_tiles = 4;
  options.deadline_aware = deadline_aware;
  PrefetchScheduler scheduler(&store, nullptr, nullptr, options);

  // Level-3 keys (8x8): hot groups rotate over rows 0-5, the outvoted
  // session owns rows 6-7.
  auto level3 = [](std::size_t index) {
    return tiles::TileKey{3, static_cast<std::int64_t>(index % 8),
                          static_cast<std::int64_t>(index / 8)};
  };

  struct Hot {
    std::uint64_t id = 0;
    int group = 0;
    double next_move_ms = 0.0;
    std::uint64_t generation = 0;
  };
  std::vector<Hot> hot;
  Rng rng(/*seed=*/515);
  for (int g = 0; g < kHotGroups; ++g) {
    for (int m = 0; m < kHotPerGroup; ++m) {
      Hot session;
      session.id = scheduler.RegisterSession(
          static_cast<std::uint64_t>(hot.size()) + 10,
          [](const tiles::TileKey&, const tiles::TilePtr&, std::uint64_t,
             double, std::uint64_t) {});
      session.group = g;
      session.next_move_ms = rng.UniformDouble() * kHotThinkMs;
      hot.push_back(session);
    }
  }

  // The outvoted session hovers: it re-publishes the same private keys
  // every move until they are delivered, then advances. first_publish
  // survives re-publishes, so waits accumulate across supersessions.
  std::unordered_map<tiles::TileKey, double, tiles::TileKeyHash> outstanding;
  double outvoted_max_wait = 0.0;
  std::size_t cursor = 0;
  std::uint64_t outvoted_generation = 0;
  double outvoted_next_move = 0.0;
  const auto outvoted_id = scheduler.RegisterSession(
      1, [&](const tiles::TileKey& key, const tiles::TilePtr& tile,
             std::uint64_t, double, std::uint64_t) {
        ASSERT_NE(tile, nullptr);
        auto it = outstanding.find(key);
        if (it == outstanding.end()) return;
        outvoted_max_wait =
            std::max(outvoted_max_wait, clock.NowMillis() - it->second);
        outstanding.erase(it);
      });

  while (clock.NowMillis() < kEndMs) {
    const double now = clock.NowMillis();
    for (auto& session : hot) {
      if (session.next_move_ms > now) continue;
      // Sessions of one group publishing inside the same 400 ms window
      // share keys, so their entries merge into (0.9 x 4) x 4 = 14.4
      // priority monsters.
      const auto window = static_cast<std::size_t>(now / kHotThinkMs);
      std::vector<PrefetchCandidate> wave;
      for (std::size_t j = 0; j < 4; ++j) {
        wave.push_back(
            {level3((session.group * 16 + window * 4 + j) % 48), 0.9});
      }
      scheduler.Publish(session.id, ++session.generation, std::move(wave),
                        kHotThinkMs);
      session.next_move_ms = now + kHotThinkMs;
    }
    if (outvoted_next_move <= now) {
      if (outstanding.empty()) {
        for (std::size_t j = 0; j < 3; ++j) {
          outstanding.emplace(level3(48 + (cursor + j) % 16), now);
        }
        cursor = (cursor + 3) % 16;
      }
      std::vector<PrefetchCandidate> wave;
      for (const auto& [key, first_publish] : outstanding) {
        wave.push_back({key, 0.4});
      }
      scheduler.Publish(outvoted_id, ++outvoted_generation, std::move(wave),
                        kOutvotedThinkMs);
      outvoted_next_move = now + kOutvotedThinkMs;
    }
    if (scheduler.pending() > 0) {
      scheduler.DrainOne();
      clock.AdvanceMillis(kServiceMs);
    } else {
      double next_due = outvoted_next_move;
      for (const auto& session : hot) {
        next_due = std::min(next_due, session.next_move_ms);
      }
      clock.AdvanceMillis(std::max(1.0, next_due - now));
    }
  }
  // Keys never delivered starved for the rest of the run.
  for (const auto& [key, first_publish] : outstanding) {
    outvoted_max_wait =
        std::max(outvoted_max_wait, clock.NowMillis() - first_publish);
  }

  scheduler.Shutdown();
  auto stats = scheduler.Stats();
  StarvationResult result;
  result.outvoted_max_wait_ms = outvoted_max_wait;
  result.deadline_promotions = stats.deadline_promotions;
  result.books_balance = stats.fills_issued + stats.dedup_saved_fetches ==
                         stats.predictions_published;
  return result;
}

TEST(DeadlineSchedulerPropertyTest, DeadlineModeBoundsOutvotedSessionWait) {
  const StarvationResult utility = RunStarvationSim(false);
  const StarvationResult deadline = RunStarvationSim(true);

  EXPECT_TRUE(utility.books_balance);
  EXPECT_TRUE(deadline.books_balance);
  EXPECT_EQ(utility.deadline_promotions, 0u);
  EXPECT_GT(deadline.deadline_promotions, 0u);

  // Utility-only starves the outvoted session for most of the run;
  // deadline mode keeps its wait within a couple of think windows.
  EXPECT_GE(utility.outvoted_max_wait_ms, 3000.0);
  EXPECT_LE(deadline.outvoted_max_wait_ms, 2000.0);
  EXPECT_GE(utility.outvoted_max_wait_ms,
            2.0 * deadline.outvoted_max_wait_ms);
}

// ---------------------------------------------------------------------------
// TSan stress: deadline-aware batched drains racing publishers with mixed
// think estimates, a ticking clock (deadline expiries), cancellations, and
// an abrupt shutdown. Run in the CI TSan job.

TEST(DeadlineSchedulerStressTest, ConcurrentDeadlineDrainsAndTeardown) {
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
  scheduler_options.deadline_aware = true;
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
      Rng rng(/*seed=*/6100 + s);
      for (int p = 0; p < kPublishesPerSession; ++p) {
        std::vector<PrefetchCandidate> list;
        const std::size_t len = 1 + rng.UniformUint32(6);
        for (std::size_t i = 0; i < len; ++i) {
          const auto& key =
              keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
          list.push_back({key, 0.1 + 0.2 * rng.UniformUint32(5)});
        }
        // Mixed urgency: some publishes carry tight deadlines (already
        // expired after a few clock ticks), some none at all.
        const double think = rng.UniformUint32(3) == 0
                                 ? 0.0
                                 : 1.0 + rng.UniformDouble() * 20.0;
        scheduler.Publish(ids[s], static_cast<std::uint64_t>(p) + 1,
                          std::move(list), think);
        clock.AdvanceMillis(1.0);  // ages deadlines
        if (p % 9 == 8) scheduler.CancelSession(ids[s]);
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

}  // namespace
}  // namespace fc::core
