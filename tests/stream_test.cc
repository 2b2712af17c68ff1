// Stream-conformance harness for the continuous push channel
// (core/stream_scheduler.h, fed by server/forecache_server.h).
//
// Deterministic pull-mode goldens pin the scheduling order (class before
// utility, byte budgets, supersession, expiry) and the chunk books on a
// SimClock; randomized properties check that Flush is a stable sort by
// class then utility per byte, that budgeted pumps push the best eligible
// chunk round by round, and that the progressive schedule is
// observationally equivalent to the all-or-nothing one (same final tile
// bits, first-usable chunk never later); and executor-mode stress tests
// (session churn mid-stream, manager teardown under in-flight pushes) run
// under TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "core/stream_scheduler.h"
#include "server/session.h"
#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"
#include "tiles/tile.h"

namespace fc {
namespace {

using core::StreamScheduler;
using core::StreamSchedulerOptions;

// One delivered chunk, as a test sink records it.
struct Delivery {
  std::uint64_t session = 0;
  tiles::TileKey key;
  bool exact = false;
  std::uint64_t generation = 0;
  double at_ms = 0.0;  ///< Clock reading at delivery (when a clock exists).
};

/// A sink appending to `log` tagged with `session` (single-threaded pull
/// mode only — pull-mode pumps deliver on the calling thread).
StreamScheduler::ChunkSink Record(std::vector<Delivery>* log,
                                  std::uint64_t session,
                                  const SimClock* clock = nullptr) {
  return [log, session, clock](const tiles::TileKey& key,
                               const tiles::TilePtr& tile, bool exact,
                               std::uint64_t generation) {
    ASSERT_NE(tile, nullptr);
    log->push_back({session, key, exact, generation,
                    clock != nullptr ? clock->NowMillis() : 0.0});
  };
}

/// A single-attribute tile with Gaussian cells (seeded, reproducible),
/// 8x8 unless shaped otherwise.
tiles::TilePtr GaussianTile(const tiles::TileKey& key, std::uint64_t seed,
                            double sigma = 100.0, std::int64_t width = 8,
                            std::int64_t height = 8) {
  auto tile = tiles::Tile::Make(key, width, height, {"v"});
  EXPECT_TRUE(tile.ok());
  Rng rng(seed);
  for (auto& v : tile->MutableAttrData(0)) v = rng.Gaussian(0, sigma);
  return std::make_shared<const tiles::Tile>(std::move(*tile));
}

std::vector<std::uint64_t> CellBits(const tiles::Tile& tile) {
  std::vector<std::uint64_t> bits;
  for (std::size_t a = 0; a < tile.attr_names().size(); ++a) {
    for (double v : tile.AttrData(a)) {
      std::uint64_t b = 0;
      std::memcpy(&b, &v, sizeof(b));
      bits.push_back(b);
    }
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Scheduling-order goldens (pull mode, deterministic)

// Progressive mode: every usable base outranks every refinement, bases go
// in confidence order (equal sizes), refinements follow in their own
// utility order, and the base payload is lossy while the refinement
// delivery carries the exact tile.
TEST(StreamSchedulerTest, BasesBeforeRefinementsInUtilityOrder) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(/*executor=*/nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(7, Record(&log, 7));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 2, 0};
  scheduler.SubmitTile(session, b, GaussianTile(b, 2), 1, 0.5);
  scheduler.SubmitTile(session, a, GaussianTile(a, 1), 1, 0.9);
  scheduler.SubmitTile(session, c, GaussianTile(c, 3), 1, 0.1);
  EXPECT_EQ(scheduler.queued(), 6u);  // base + refinement per tile

  EXPECT_EQ(scheduler.Flush(), 6u);
  ASSERT_EQ(log.size(), 6u);
  // Class 0 in confidence order (identical dims -> identical blob sizes).
  EXPECT_EQ(log[0].key, a);
  EXPECT_FALSE(log[0].exact);
  EXPECT_EQ(log[1].key, b);
  EXPECT_FALSE(log[1].exact);
  EXPECT_EQ(log[2].key, c);
  EXPECT_FALSE(log[2].exact);
  // Then class 1, same order (refinement rank is also confidence-driven).
  EXPECT_EQ(log[3].key, a);
  EXPECT_TRUE(log[3].exact);
  EXPECT_EQ(log[4].key, b);
  EXPECT_TRUE(log[4].exact);
  EXPECT_EQ(log[5].key, c);
  EXPECT_TRUE(log[5].exact);

  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.tiles_submitted, 3u);
  EXPECT_EQ(stats.chunks_pushed, 6u);
  EXPECT_EQ(stats.base_chunks_pushed, 3u);
  EXPECT_EQ(stats.exact_chunks_pushed, 3u);
  EXPECT_EQ(stats.first_usable_pushes, 3u);
}

// All-or-nothing mode: one exact chunk per tile, in confidence order —
// the request-triggered baseline the equivalence property compares with.
TEST(StreamSchedulerTest, AllOrNothingPushesWholeTilesOnce) {
  StreamSchedulerOptions options;
  options.progressive = false;
  StreamScheduler scheduler(/*executor=*/nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(7, Record(&log, 7));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  scheduler.SubmitTile(session, b, GaussianTile(b, 2), 1, 0.4);
  scheduler.SubmitTile(session, a, GaussianTile(a, 1), 1, 0.8);
  EXPECT_EQ(scheduler.queued(), 2u);
  EXPECT_EQ(scheduler.Flush(), 2u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].key, a);
  EXPECT_TRUE(log[0].exact);
  EXPECT_EQ(log[1].key, b);
  EXPECT_TRUE(log[1].exact);
  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.base_chunks_pushed, 0u);
  EXPECT_EQ(stats.first_usable_pushes, 2u);
}

// Byte budgets pace the stream on the clock: a burst-sized bucket releases
// exactly one base per refill window, oversized refinements go out at a
// full bucket (driving it negative), and a starved round counts a stall.
TEST(StreamSchedulerTest, ByteBudgetPacesChunksOnTheClock) {
  // Probe the chunk sizes first (clockless twin with the same codec).
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  std::size_t base_bytes = 0, refine_bytes = 0;
  {
    StreamScheduler probe(nullptr, options);
    std::vector<Delivery> sink;
    auto id = probe.RegisterSession(1, Record(&sink, 1));
    probe.SubmitTile(id, {1, 0, 0}, GaussianTile({1, 0, 0}, 11), 1, 0.9);
    for (const auto& chunk : probe.SnapshotQueue()) {
      (chunk.exact ? refine_bytes : base_bytes) = chunk.bytes;
    }
  }
  ASSERT_GT(base_bytes, 0u);
  ASSERT_GT(refine_bytes, base_bytes);  // residuals outweigh the coarse base

  SimClock clock;
  options.clock = &clock;
  options.total_bytes_per_ms = 1.0;
  options.total_burst_bytes = base_bytes;  // bucket fits exactly one base
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(1, Record(&log, 1, &clock));

  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0};
  scheduler.SubmitTile(session, a, GaussianTile(a, 11), 1, 0.9);
  scheduler.SubmitTile(session, b, GaussianTile(b, 12), 1, 0.8);

  // t=0: the bucket starts full — one base goes, the second is starved.
  EXPECT_EQ(scheduler.Pump(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].key, a);
  EXPECT_FALSE(log[0].exact);
  EXPECT_EQ(scheduler.Pump(), 0u);  // no time passed, no tokens earned
  EXPECT_GE(scheduler.Stats().budget_stalls, 1u);

  // One refill window releases exactly the second base.
  clock.AdvanceMillis(static_cast<double>(base_bytes));
  EXPECT_EQ(scheduler.Pump(), 1u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].key, b);
  EXPECT_FALSE(log[1].exact);

  // Refinements exceed the burst: they go out only at a FULL bucket, one
  // per bucket-recovery window (the balance goes negative in between).
  clock.AdvanceMillis(static_cast<double>(refine_bytes));
  EXPECT_EQ(scheduler.Pump(), 1u);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].key, a);
  EXPECT_TRUE(log[2].exact);
  EXPECT_EQ(scheduler.Pump(), 0u);  // bucket is negative now

  clock.AdvanceMillis(static_cast<double>(2 * refine_bytes));
  EXPECT_EQ(scheduler.Flush(), 1u);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[3].key, b);
  EXPECT_TRUE(log[3].exact);
  EXPECT_EQ(scheduler.queued(), 0u);
}

// A new publication sheds the previous generation's queued chunks —
// including the gated refinement of a dropped base — without touching the
// live generation.
TEST(StreamSchedulerTest, StaleGenerationsShedQueuedPairs) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(4, Record(&log, 4));

  scheduler.SubmitTile(session, {1, 0, 0}, GaussianTile({1, 0, 0}, 1), 1, 0.9);
  scheduler.SubmitTile(session, {1, 1, 0}, GaussianTile({1, 1, 0}, 2), 1, 0.8);
  scheduler.SubmitTile(session, {1, 2, 0}, GaussianTile({1, 2, 0}, 3), 2, 0.7);
  EXPECT_EQ(scheduler.queued(), 6u);

  scheduler.CancelStaleGenerations(session, /*live_generation=*/2);
  EXPECT_EQ(scheduler.queued(), 2u);
  EXPECT_EQ(scheduler.Stats().stale_chunks_dropped, 4u);

  EXPECT_EQ(scheduler.Flush(), 2u);
  ASSERT_EQ(log.size(), 2u);
  for (const auto& delivery : log) {
    EXPECT_EQ(delivery.generation, 2u);
    EXPECT_EQ(delivery.key, (tiles::TileKey{1, 2, 0}));
  }
}

// A submission from a generation the session has moved past — a fill the
// prefetch scheduler delivered just before CancelStaleGenerations
// superseded it — retires on arrival instead of queueing chunks that would
// spend the budget and then be rejected at the region's generation gate.
TEST(StreamSchedulerTest, SupersededGenerationRetiresOnArrival) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(3, Record(&log, 3));

  scheduler.CancelStaleGenerations(session, /*live_generation=*/2);
  scheduler.SubmitTile(session, {1, 0, 0}, GaussianTile({1, 0, 0}, 1), 1, 0.9);
  EXPECT_EQ(scheduler.queued(), 0u);
  // The live generation still queues.
  scheduler.SubmitTile(session, {1, 1, 0}, GaussianTile({1, 1, 0}, 2), 2, 0.5);
  EXPECT_EQ(scheduler.queued(), 2u);
  EXPECT_EQ(scheduler.Flush(), 2u);

  const auto stats = scheduler.Stats();
  EXPECT_EQ(stats.tiles_submitted, 2u);
  EXPECT_EQ(stats.chunks_enqueued, 4u);
  EXPECT_EQ(stats.stale_chunks_dropped, 2u);
  EXPECT_EQ(stats.chunks_pushed + stats.stale_chunks_dropped +
                stats.expired_chunks_dropped,
            stats.chunks_enqueued);
  ASSERT_EQ(log.size(), 2u);
  for (const auto& delivery : log) EXPECT_EQ(delivery.generation, 2u);
}

// Submissions the scheduler cannot take — to an unknown session, or after
// Shutdown — are retired on arrival: counted as submitted and enqueued and
// dropped as stale, so chunks_pushed + stale + expired == chunks_enqueued
// still holds (the PrefetchScheduler::Publish rule).
TEST(StreamSchedulerTest, RejectedSubmissionsKeepTheBooksBalanced) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(5, Record(&log, 5));

  scheduler.SubmitTile(session, {1, 0, 0}, GaussianTile({1, 0, 0}, 1), 1, 0.9);
  EXPECT_EQ(scheduler.Flush(), 2u);
  scheduler.SubmitTile(session + 1, {1, 1, 0}, GaussianTile({1, 1, 0}, 2), 1,
                       0.9);  // never registered
  scheduler.Shutdown();
  scheduler.SubmitTile(session, {1, 2, 0}, GaussianTile({1, 2, 0}, 3), 1, 0.9);

  const auto stats = scheduler.Stats();
  EXPECT_EQ(stats.tiles_submitted, 3u);
  EXPECT_EQ(stats.chunks_enqueued, 6u);  // base + refinement per tile
  EXPECT_EQ(stats.chunks_pushed, 2u);
  EXPECT_EQ(stats.stale_chunks_dropped, 4u);
  EXPECT_EQ(stats.chunks_pushed + stats.stale_chunks_dropped +
                stats.expired_chunks_dropped,
            stats.chunks_enqueued);
  EXPECT_EQ(scheduler.queued(), 0u);
  EXPECT_EQ(log.size(), 2u);
}

// A confidence that is not a number ranks like a confidence of 0: its tile
// pushes after every tile with a positive confidence, and every chunk is
// still pushed and counted. (A NaN rank compares equal to every other
// rank, so ordered by it the queue would have no order at all.)
TEST(StreamSchedulerTest, NanConfidenceRanksAsZero) {
  const tiles::TileKey a{1, 0, 0}, b{1, 1, 0}, c{1, 0, 1};
  for (const bool progressive : {false, true}) {
    for (const double odd : {std::nan(""), 0.0}) {
      StreamSchedulerOptions options;
      options.progressive = progressive;
      options.codec.progressive_base_step = 8.0;
      StreamScheduler scheduler(nullptr, options);
      std::vector<Delivery> log;
      const std::uint64_t session =
          scheduler.RegisterSession(2, Record(&log, 2));
      // Equal cells under one-byte keys: equal chunk sizes, so only the
      // confidences rank the tiles.
      scheduler.SubmitTile(session, a, GaussianTile(a, 1), 1, odd);
      scheduler.SubmitTile(session, b, GaussianTile(b, 1), 1, 0.5);
      scheduler.SubmitTile(session, c, GaussianTile(c, 1), 1, 0.9);
      const std::size_t chunks = progressive ? 6 : 3;
      const auto queue = scheduler.SnapshotQueue();
      ASSERT_EQ(queue.size(), chunks);
      std::size_t bytes[2] = {0, 0};  // per chunk kind: base, exact
      for (const auto& chunk : queue) {
        EXPECT_FALSE(std::isnan(chunk.utility_per_byte));
        if (bytes[chunk.exact] == 0) bytes[chunk.exact] = chunk.bytes;
        EXPECT_EQ(chunk.bytes, bytes[chunk.exact]);
      }

      EXPECT_EQ(scheduler.Flush(), chunks);
      ASSERT_EQ(log.size(), chunks);
      const tiles::TileKey order[] = {c, b, a};
      for (std::size_t i = 0; i < chunks; ++i) {
        EXPECT_EQ(log[i].key, order[i % 3]) << "confidence " << odd
                                            << " pick " << i;
        EXPECT_EQ(log[i].exact, !progressive || i >= 3);
      }
      const auto stats = scheduler.Stats();
      EXPECT_EQ(stats.chunks_enqueued, chunks);
      EXPECT_EQ(stats.chunks_pushed, chunks);
      EXPECT_EQ(stats.first_usable_pushes, 3u);
      EXPECT_EQ(stats.chunks_pushed + stats.stale_chunks_dropped +
                    stats.expired_chunks_dropped,
                stats.chunks_enqueued);
      EXPECT_EQ(scheduler.queued(), 0u);
    }
  }
}

// Expiry: a chunk queued longer than max_chunk_age_ms is dropped at pump
// time, and the refinement gated on it goes with it.

TEST(StreamSchedulerTest, ClockStampedBaseExpiresWithItsRefinement) {
  SimClock clock;
  clock.AdvanceMillis(10'000.0);
  StreamSchedulerOptions options;
  options.clock = &clock;
  options.codec.progressive_base_step = 8.0;
  options.max_chunk_age_ms = 50.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<Delivery> log;
  const std::uint64_t session =
      scheduler.RegisterSession(9, Record(&log, 9));

  // At the age cap, not past it: both chunks still push.
  scheduler.SubmitTile(session, {1, 0, 0}, GaussianTile({1, 0, 0}, 5), 1, 0.9);
  for (const auto& chunk : scheduler.SnapshotQueue()) {
    EXPECT_EQ(chunk.enqueue_ms, 10'000.0);
  }
  clock.AdvanceMillis(50.0);
  EXPECT_EQ(scheduler.Flush(), 2u);
  EXPECT_EQ(scheduler.Stats().expired_chunks_dropped, 0u);
  EXPECT_EQ(log.size(), 2u);

  // Past the cap: the base expires and its gated refinement with it.
  scheduler.SubmitTile(session, {1, 1, 0}, GaussianTile({1, 1, 0}, 6), 1, 0.9);
  clock.AdvanceMillis(51.0);
  EXPECT_EQ(scheduler.Flush(), 0u);
  EXPECT_EQ(scheduler.Stats().expired_chunks_dropped, 2u);
  EXPECT_EQ(scheduler.queued(), 0u);
  EXPECT_EQ(log.size(), 2u);
}

// ---------------------------------------------------------------------------
// The pick order as a property: with unlimited budgets, Flush delivers a
// stable sort of the submissions — every usable chunk before every
// refinement, each class by confidence per byte of its chunk, ties in
// submission order — whichever sessions submitted them. Chunk sizes come
// from the codec's byte path, so the ranks are checked against the wire
// format, not against the scheduler's own plan.

TEST(StreamSchedulerPropertyTest, FlushIsAStableSortByClassThenUtilityPerByte) {
  constexpr std::uint64_t kSessions = 4;
  constexpr int kTiles = 48;
  // A few shapes and cell seeds: byte sizes differ between tiles, and
  // repeat often enough (with the coarse confidences) to produce ties.
  constexpr std::int64_t kShapes[][2] = {{8, 8}, {4, 8}, {8, 2}};
  for (const bool progressive : {true, false}) {
    for (std::uint64_t seed : {911u, 912u, 913u, 914u}) {
      Rng rng(seed);
      StreamSchedulerOptions options;
      options.progressive = progressive;
      options.codec.progressive_base_step = 8.0;
      StreamScheduler scheduler(nullptr, options);
      const storage::TileCodec codec(options.codec);
      std::vector<Delivery> log;
      std::uint64_t ids[kSessions];
      for (std::uint64_t s = 0; s < kSessions; ++s) {
        ids[s] = scheduler.RegisterSession(s + 1, Record(&log, s + 1));
      }

      struct Chunk {
        double rank = 0.0;
        std::uint64_t session = 0;
        tiles::TileKey key;
        bool exact = false;
      };
      std::vector<Chunk> usable, refinements;
      for (int i = 0; i < kTiles; ++i) {
        const tiles::TileKey key{3, i % 8, i / 8};
        const auto& shape = kShapes[rng.UniformUint32(3)];
        const auto tile = GaussianTile(key, 1 + rng.UniformUint32(2), 100.0,
                                       shape[0], shape[1]);
        const double confidence = 0.2 * rng.UniformInt(1, 4);
        const std::uint64_t s = rng.UniformUint32(kSessions);
        scheduler.SubmitTile(ids[s], key, tile, 1, confidence);

        const std::string refinement =
            progressive ? codec.EncodeProgressive(*tile).refinement : "";
        usable.push_back(
            {confidence / static_cast<double>(codec.Encode(*tile).size()),
             s + 1, key, refinement.empty()});
        if (!refinement.empty()) {
          refinements.push_back(
              {confidence / static_cast<double>(refinement.size()), s + 1,
               key, true});
        }
      }
      const auto by_rank = [](const Chunk& a, const Chunk& b) {
        return a.rank > b.rank;
      };
      std::stable_sort(usable.begin(), usable.end(), by_rank);
      std::stable_sort(refinements.begin(), refinements.end(), by_rank);
      std::vector<Chunk> expected = usable;
      expected.insert(expected.end(), refinements.begin(), refinements.end());
      if (progressive) {
        ASSERT_FALSE(refinements.empty());
      }

      EXPECT_EQ(scheduler.Flush(), expected.size());
      ASSERT_EQ(log.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(log[i].session, expected[i].session)
            << "seed " << seed << " pick " << i;
        EXPECT_EQ(log[i].key, expected[i].key)
            << "seed " << seed << " pick " << i;
        EXPECT_EQ(log[i].exact, expected[i].exact)
            << "seed " << seed << " pick " << i;
      }
    }
  }
}

// The same pick rule pump by pump under a byte budget: submissions from
// four sessions interleave with Pump() calls and clock advances, over a
// metered bucket smaller than the larger chunks. Every round must push
// what a reference applying the rule directly pushes: the best eligible
// chunk by class, then utility per byte, then submission order; a
// refinement only once its base went out; a chunk larger than the bucket
// only at a full bucket; at most kMaxPumpChunks per round. Chunk sizes come
// from the codec's byte path, as above.
TEST(StreamSchedulerPropertyTest, BudgetedPumpsPushTheBestEligibleChunk) {
  constexpr std::uint64_t kSessions = 4;
  constexpr int kSteps = 300;
  constexpr double kRate = 16.0;      // bytes per virtual ms
  constexpr std::size_t kBurst = 700;  // between small and large chunks
  constexpr std::int64_t kShapes[][2] = {{8, 8}, {4, 8}, {8, 2}, {16, 8}};

  struct RefChunk {
    bool usable = false;
    double rank = 0.0;
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
    bool awaiting_base = false;
    std::uint64_t session = 0;
    tiles::TileKey key;
    bool exact = false;
  };
  // Cells far apart on the base's grid (multiples of its step): the
  // refinement is smaller than the base, so it could fit a bucket the base
  // does not — only the gate keeps it waiting.
  const auto on_grid_tile = [](const tiles::TileKey& key, std::uint64_t seed,
                             std::int64_t width, std::int64_t height) {
    auto tile = tiles::Tile::Make(key, width, height, {"v"});
    EXPECT_TRUE(tile.ok());
    Rng cells(seed);
    for (auto& v : tile->MutableAttrData(0)) {
      v = 8.0 * cells.UniformInt(-1'000'000, 1'000'000);
    }
    return std::make_shared<const tiles::Tile>(std::move(*tile));
  };
  const auto better = [](const RefChunk& a, const RefChunk& b) {
    if (a.usable != b.usable) return a.usable;
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.seq < b.seq;
  };

  for (const bool progressive : {true, false}) {
    for (std::uint64_t seed : {921u, 922u, 923u, 924u}) {
      Rng rng(seed);
      SimClock clock;
      StreamSchedulerOptions options;
      options.clock = &clock;
      options.progressive = progressive;
      options.codec.progressive_base_step = 8.0;
      options.total_bytes_per_ms = kRate;
      options.total_burst_bytes = kBurst;
      StreamScheduler scheduler(nullptr, options);
      const storage::TileCodec codec(options.codec);
      std::vector<Delivery> log;
      std::uint64_t ids[kSessions];
      for (std::uint64_t s = 0; s < kSessions; ++s) {
        ids[s] = scheduler.RegisterSession(s + 1, Record(&log, s + 1));
      }

      // The reference: a linear scan over every queued chunk per pick.
      std::vector<RefChunk> queue;
      std::vector<Delivery> expected;
      double tokens = static_cast<double>(kBurst);
      double last_refill_ms = -1.0;
      std::uint64_t seq = 0;
      std::size_t oversized = 0;
      const auto reference_pump = [&] {
        const double now = clock.NowMillis();
        if (last_refill_ms < 0.0) last_refill_ms = now;
        const double earned = (now - last_refill_ms) * kRate;
        if (earned > 0.0) {
          tokens = std::min(static_cast<double>(kBurst), tokens + earned);
        }
        last_refill_ms = now;
        std::size_t pushed = 0;
        while (pushed < StreamScheduler::kMaxPumpChunks) {
          auto best = queue.end();
          for (auto it = queue.begin(); it != queue.end(); ++it) {
            const double bytes = static_cast<double>(it->bytes);
            const bool fits =
                tokens >= bytes ||
                (it->bytes > kBurst && tokens >= static_cast<double>(kBurst));
            if (it->awaiting_base || !fits) continue;
            if (best == queue.end() || better(*it, *best)) best = it;
          }
          if (best == queue.end()) break;
          tokens -= static_cast<double>(best->bytes);
          if (best->bytes > kBurst) ++oversized;
          if (best->usable && !best->exact) {
            for (auto& chunk : queue) {
              if (chunk.seq == best->seq + 1) chunk.awaiting_base = false;
            }
          }
          expected.push_back({best->session, best->key, best->exact, 1});
          queue.erase(best);
          ++pushed;
        }
        return pushed;
      };
      const auto pump_both = [&] {
        const std::size_t want = reference_pump();
        ASSERT_EQ(scheduler.Pump(), want) << "seed " << seed;
        ASSERT_EQ(log.size(), expected.size()) << "seed " << seed;
        for (std::size_t i = 0; i < log.size(); ++i) {
          ASSERT_EQ(log[i].session, expected[i].session)
              << "seed " << seed << " pick " << i;
          ASSERT_EQ(log[i].key, expected[i].key)
              << "seed " << seed << " pick " << i;
          ASSERT_EQ(log[i].exact, expected[i].exact)
              << "seed " << seed << " pick " << i;
        }
      };

      int submitted = 0;
      for (int step = 0; step < kSteps; ++step) {
        const std::uint32_t action = rng.UniformUint32(4);
        if (action < 2) {
          // One key per submission, so a refinement's base is unambiguous.
          const tiles::TileKey key{5, submitted % 32, submitted / 32};
          ++submitted;
          const auto& shape = kShapes[rng.UniformUint32(4)];
          const auto tile = rng.Bernoulli(0.25)
                                ? on_grid_tile(key, rng.NextUint64(),
                                               shape[0], shape[1])
                                : GaussianTile(key, 1 + rng.UniformUint32(2),
                                               100.0, shape[0], shape[1]);
          const double confidence = 0.2 * rng.UniformInt(1, 4);
          const std::uint64_t s = rng.UniformUint32(kSessions);
          scheduler.SubmitTile(ids[s], key, tile, 1, confidence);

          const std::size_t full = codec.Encode(*tile).size();
          const auto pair = codec.EncodeProgressive(*tile);
          const bool two_chunks = progressive && !pair.refinement.empty();
          queue.push_back({true,
                           confidence / static_cast<double>(full), ++seq,
                           two_chunks ? pair.base.size() : full, false, s + 1,
                           key, !two_chunks});
          if (two_chunks) {
            queue.push_back(
                {false,
                 confidence / static_cast<double>(pair.refinement.size()),
                 ++seq, pair.refinement.size(), true, s + 1, key, true});
          }
        } else if (action == 2) {
          pump_both();
        } else {
          clock.AdvanceMicros(rng.UniformInt(0, 60'000));
        }
        if (HasFatalFailure()) return;
      }
      // Drain what is left, one full bucket per round at most.
      while (!queue.empty()) {
        clock.AdvanceMicros(static_cast<std::int64_t>(kBurst / kRate) * 1000);
        pump_both();
        if (HasFatalFailure()) return;
      }
      EXPECT_EQ(scheduler.queued(), 0u);
      EXPECT_GT(oversized, 0u) << "seed " << seed;
      const auto stats = scheduler.Stats();
      EXPECT_EQ(stats.chunks_pushed, stats.chunks_enqueued);
      EXPECT_GT(stats.budget_stalls, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Plan memo: each live tile object is planned once, whatever the number of
// submissions and sessions, and identity never outlives the tile.

/// GaussianTile allocated apart from its control block (not make_shared),
/// so freeing it hands its address back to the allocator even while a
/// weak_ptr to it survives.
tiles::TilePtr SeparatelyAllocatedTile(const tiles::TileKey& key,
                                       std::uint64_t seed) {
  return tiles::TilePtr(new tiles::Tile(*GaussianTile(key, seed)));
}

/// Decode(EncodeProgressive(tile).base): what a client decodes from the
/// tile's first chunk.
tiles::TilePtr DecodedBase(const storage::TileCodecOptions& codec,
                           const tiles::Tile& tile) {
  auto base = storage::TileCodec::Decode(
      storage::TileCodec(codec).EncodeProgressive(tile).base);
  EXPECT_TRUE(base.ok());
  return std::make_shared<const tiles::Tile>(std::move(*base));
}

TEST(StreamSchedulerMemoTest, OneLiveTileIsPlannedOnceForEverySession) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<tiles::TilePtr> coarse;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t tag = 1; tag <= 4; ++tag) {
    ids.push_back(scheduler.RegisterSession(
        tag,
        [&coarse](const tiles::TileKey&, const tiles::TilePtr& tile,
                  bool exact, std::uint64_t) {
          if (!exact) coarse.push_back(tile);
        }));
  }
  const tiles::TileKey key{2, 1, 1};
  auto tile = GaussianTile(key, 41);
  for (std::uint64_t id : ids) scheduler.SubmitTile(id, key, tile, 1, 0.5);
  scheduler.SubmitTile(ids[0], key, tile, 2, 0.5);
  EXPECT_EQ(scheduler.Flush(), 10u);

  const auto stats = scheduler.Stats();
  EXPECT_EQ(stats.tiles_submitted, 5u);
  EXPECT_EQ(stats.plans_computed, 1u);
  ASSERT_EQ(coarse.size(), 5u);
  for (const auto& payload : coarse) EXPECT_EQ(payload, coarse[0]);
  EXPECT_EQ(CellBits(*coarse[0]), CellBits(*DecodedBase(options.codec, *tile)));
}

// The memo holds submitted tiles only weakly: with kRawF64 the tile IS the
// exact payload (and, for a one-chunk plan, the coarse one too), so a
// strong reference would keep every tile ever streamed alive.
TEST(StreamSchedulerMemoTest, MemoNeverKeepsTheSubmittedTileAlive) {
  for (bool progressive : {true, false}) {
    StreamSchedulerOptions options;
    options.progressive = progressive;
    options.codec.progressive_base_step = 8.0;
    StreamScheduler scheduler(nullptr, options);
    const std::uint64_t session = scheduler.RegisterSession(
        1, [](const tiles::TileKey&, const tiles::TilePtr&, bool,
              std::uint64_t) {});
    const tiles::TileKey key{2, 0, 1};
    auto tile = GaussianTile(key, 43);
    std::weak_ptr<const tiles::Tile> watch = tile;
    scheduler.SubmitTile(session, key, tile, 1, 0.5);
    scheduler.SubmitTile(session, key, tile, 1, 0.5);  // a memo hit
    EXPECT_EQ(scheduler.Stats().plans_computed, 1u);
    tile.reset();
    EXPECT_FALSE(watch.expired()) << "queued exact chunks hold the tile";
    scheduler.Flush();
    EXPECT_TRUE(watch.expired()) << "progressive " << progressive;
  }
}

// A tile freed while its memo entry survives may hand its address to the
// next tile allocated: that tile must be planned afresh, never served the
// dead tile's chunks.
TEST(StreamSchedulerMemoTest, FreedTileAddressNeverAliasesANewTile) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  std::vector<std::uint64_t> coarse_bits;
  const std::uint64_t session = scheduler.RegisterSession(
      1,
      [&coarse_bits](const tiles::TileKey&, const tiles::TilePtr& tile,
                     bool exact, std::uint64_t) {
        if (!exact) coarse_bits = CellBits(*tile);
      });
  const tiles::TileKey key{2, 2, 2};
  std::set<const tiles::Tile*> freed;
  bool reused = false;
  int tries = 0;
  for (; tries < 64 && !reused; ++tries) {
    auto tile = SeparatelyAllocatedTile(key, 500 + tries);
    reused = freed.count(tile.get()) > 0;
    scheduler.SubmitTile(session, key, tile, 1, 0.5);
    scheduler.Flush();
    EXPECT_EQ(coarse_bits, CellBits(*DecodedBase(options.codec, *tile)))
        << "try " << tries;
    freed.insert(tile.get());
  }
  EXPECT_EQ(scheduler.Stats().plans_computed,
            static_cast<std::uint64_t>(tries));
  if (!reused) GTEST_SKIP() << "the allocator never reused a freed address";
}

// With a lossy final encoding the memo holds the computed exact payload:
// a hit delivers the very tile the miss computed, bit-equal to
// Decode(Encode(tile)).
TEST(StreamSchedulerMemoTest, LossyExactPayloadIsReusedBitForBit) {
  StreamSchedulerOptions options;
  options.codec = {storage::TileEncoding::kDeltaVarint, 1e-2, 8.0};
  StreamScheduler scheduler(nullptr, options);
  std::vector<tiles::TilePtr> exact_payloads;
  const std::uint64_t session = scheduler.RegisterSession(
      1,
      [&exact_payloads](const tiles::TileKey&, const tiles::TilePtr& tile,
                        bool exact, std::uint64_t) {
        if (exact) exact_payloads.push_back(tile);
      });
  const tiles::TileKey key{2, 3, 0};
  auto tile = GaussianTile(key, 47);
  scheduler.SubmitTile(session, key, tile, 1, 0.5);
  scheduler.SubmitTile(session, key, tile, 2, 0.5);
  scheduler.Flush();

  EXPECT_EQ(scheduler.Stats().plans_computed, 1u);
  ASSERT_EQ(exact_payloads.size(), 2u);
  EXPECT_EQ(exact_payloads[0], exact_payloads[1]);
  EXPECT_NE(exact_payloads[0], tile);
  auto want = storage::TileCodec::Decode(
      storage::TileCodec(options.codec).Encode(*tile));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(CellBits(*exact_payloads[1]), CellBits(*want));
}

// A plan whose payloads alone exceed the memo's byte cap is never memoized
// (it is re-planned on every submission, correctly), and memoizing it does
// not flush the smaller entries.
TEST(StreamSchedulerMemoTest, PlansBeyondTheCapStillPlanCorrectly) {
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(nullptr, options);
  // Square tile whose cells alone outweigh the cap.
  const auto side = static_cast<std::int64_t>(
      std::sqrt(StreamScheduler::kPlanMemoBytes / sizeof(double)) + 1);
  auto made = tiles::Tile::Make({0, 0, 0}, side, side, {"v"});
  ASSERT_TRUE(made.ok());
  Rng rng(53);
  for (auto& v : made->MutableAttrData(0)) v = rng.Gaussian(0, 100);
  auto big = std::make_shared<const tiles::Tile>(std::move(*made));
  ASSERT_GT(big->SizeBytes(), StreamScheduler::kPlanMemoBytes);
  auto small = GaussianTile({2, 0, 0}, 59);
  const auto big_base = DecodedBase(options.codec, *big);
  const auto small_base = DecodedBase(options.codec, *small);

  std::vector<bool> matches;
  const std::uint64_t session = scheduler.RegisterSession(
      1,
      [&](const tiles::TileKey& key, const tiles::TilePtr& tile, bool exact,
          std::uint64_t) {
        if (exact) return;
        const auto& want = key == big->key() ? *big_base : *small_base;
        const auto& cells = tile->AttrData(0);
        matches.push_back(cells.size() == want.AttrData(0).size() &&
                          std::memcmp(cells.data(), want.AttrData(0).data(),
                                      cells.size() * sizeof(double)) == 0);
      });
  for (const auto& tile : {small, big, big, small}) {
    scheduler.SubmitTile(session, tile->key(), tile, 1, 0.5);
    scheduler.Flush();  // one big plan alive at a time
  }

  EXPECT_EQ(scheduler.Stats().plans_computed, 3u);  // big twice, small once
  EXPECT_EQ(matches, std::vector<bool>(4, true));
}

// The conformance property: under identical byte budgets on one clock, the
// progressive schedule delivers every tile's final payload bit-identically
// to the all-or-nothing schedule, and makes each tile usable NO LATER.

TEST(StreamSchedulerTest, ProgressiveEquivalentToAllOrNothingNeverLater) {
  for (std::uint64_t seed : {501u, 502u, 503u}) {
    Rng rng(seed);
    SimClock clock;  // one clock: both schedulers see identical time

    StreamSchedulerOptions base_options;
    base_options.clock = &clock;
    base_options.codec.progressive_base_step = 8.0;
    base_options.total_bytes_per_ms = 100.0;
    base_options.total_burst_bytes = 4096;

    StreamSchedulerOptions progressive_options = base_options;
    progressive_options.progressive = true;
    StreamSchedulerOptions aon_options = base_options;
    aon_options.progressive = false;

    StreamScheduler progressive(nullptr, progressive_options);
    StreamScheduler aon(nullptr, aon_options);

    struct PerKey {
      double first_usable_p = -1.0, first_usable_a = -1.0;
      tiles::TilePtr final_p, final_a;
    };
    std::map<std::pair<std::uint64_t, tiles::TileKey>, PerKey> outcomes;

    constexpr std::size_t kSessions = 3;
    std::uint64_t p_ids[kSessions], a_ids[kSessions];
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::uint64_t tag = s + 1;
      p_ids[s] = progressive.RegisterSession(
          tag,
          [&outcomes, tag, &clock](const tiles::TileKey& key,
                                   const tiles::TilePtr& tile, bool exact,
                                   std::uint64_t) {
            auto& out = outcomes[{tag, key}];
            if (out.first_usable_p < 0.0) out.first_usable_p = clock.NowMillis();
            if (exact) out.final_p = tile;
          });
      a_ids[s] = aon.RegisterSession(
          tag,
          [&outcomes, tag, &clock](const tiles::TileKey& key,
                                   const tiles::TilePtr& tile, bool exact,
                                   std::uint64_t) {
            auto& out = outcomes[{tag, key}];
            if (out.first_usable_a < 0.0) out.first_usable_a = clock.NowMillis();
            if (exact) out.final_a = tile;
          });
    }

    // One up-front wave of identical submissions to both schedulers (the
    // regime the never-later guarantee covers; see the scheduler header).
    std::map<std::pair<std::uint64_t, tiles::TileKey>, tiles::TilePtr> truth;
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (int i = 0; i < 8; ++i) {
        tiles::TileKey key{2, i, static_cast<int>(s)};
        auto tile = GaussianTile(key, seed * 1000 + s * 100 + i);
        double confidence = rng.UniformInt(1, 100) / 100.0;
        progressive.SubmitTile(p_ids[s], key, tile, 1, confidence);
        aon.SubmitTile(a_ids[s], key, tile, 1, confidence);
        truth[{s + 1, key}] = tile;
      }
    }

    // Drive both in lockstep, 1 virtual ms per step.
    for (int step = 0; step < 5000; ++step) {
      progressive.Pump();
      aon.Pump();
      if (progressive.queued() == 0 && aon.queued() == 0) break;
      clock.AdvanceMillis(1.0);
    }
    ASSERT_EQ(progressive.queued(), 0u);
    ASSERT_EQ(aon.queued(), 0u);

    ASSERT_EQ(outcomes.size(), truth.size());
    for (auto& [id, out] : outcomes) {
      // Same final bytes: both schedules converge on the exact payload of
      // the configured encoding, bit for bit.
      ASSERT_NE(out.final_p, nullptr);
      ASSERT_NE(out.final_a, nullptr);
      EXPECT_EQ(CellBits(*out.final_p), CellBits(*out.final_a));
      EXPECT_EQ(CellBits(*out.final_p), CellBits(*truth[id]));
      // Never later: the coarse base (a fraction of the full blob) makes
      // the tile usable at or before the all-or-nothing push.
      ASSERT_GE(out.first_usable_p, 0.0);
      ASSERT_GE(out.first_usable_a, 0.0);
      EXPECT_LE(out.first_usable_p, out.first_usable_a)
          << "seed " << seed << " session " << id.first << " tile "
          << id.second.ToString();
    }
    // And strictly earlier in aggregate — otherwise streaming buys nothing.
    double sum_p = 0.0, sum_a = 0.0;
    for (auto& [id, out] : outcomes) {
      sum_p += out.first_usable_p;
      sum_a += out.first_usable_a;
    }
    EXPECT_LT(sum_p, sum_a);
  }
}

// ---------------------------------------------------------------------------
// TSan stress: session churn racing submissions, cancellations, and the
// executor self-pump mid-stream, while submitters share a pool of tiles a
// replacer thread keeps freeing and reallocating — plan memo hits, inserts,
// sweeps and address reuse race too. Run under TSan and ASan in CI.

TEST(StreamSchedulerStressTest, SessionChurnUnderConcurrentSubmitAndPump) {
  constexpr std::size_t kSlots = 8;
  constexpr int kSubmittersPerSlot = 2;
  constexpr int kSubmissions = 150;
  constexpr std::size_t kPoolTiles = 24;

  Executor executor(4);
  StreamSchedulerOptions options;
  options.codec.progressive_base_step = 8.0;
  StreamScheduler scheduler(&executor, options);

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> slots[kSlots];
  auto register_slot = [&] {
    return scheduler.RegisterSession(
        0,
        [&delivered](const tiles::TileKey& key, const tiles::TilePtr& tile,
                     bool, std::uint64_t) {
          ASSERT_NE(tile, nullptr);
          EXPECT_EQ(tile->key(), key);  // never another tile's plan
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
  };
  for (std::size_t s = 0; s < kSlots; ++s) slots[s].store(register_slot());

  // Shared tile pool, each pool tile under its own key.
  std::mutex pool_mu;
  std::vector<tiles::TilePtr> pool;
  auto pool_tile = [](std::size_t i, std::uint64_t seed) {
    return SeparatelyAllocatedTile(
        {2, static_cast<int>(i % 5), static_cast<int>(i / 5)}, seed);
  };
  for (std::size_t i = 0; i < kPoolTiles; ++i) pool.push_back(pool_tile(i, i));

  std::vector<std::thread> threads;
  // Submitters target whatever session currently occupies their slot;
  // stale ids (the slot churned underneath them) drop as stale.
  for (std::size_t s = 0; s < kSlots; ++s) {
    for (int w = 0; w < kSubmittersPerSlot; ++w) {
      threads.emplace_back([&, s, w] {
        Rng rng(7000 + s * 10 + w);
        for (int i = 0; i < kSubmissions; ++i) {
          tiles::TilePtr tile;
          {
            std::lock_guard<std::mutex> lock(pool_mu);
            tile = pool[rng.UniformUint32(kPoolTiles)];
          }
          scheduler.SubmitTile(slots[s].load(std::memory_order_relaxed),
                               tile->key(), tile, 1 + i % 3,
                               rng.UniformInt(0, 100) / 100.0);
        }
      });
    }
  }
  // Replacer: frees pool tiles mid-run (their memo entries go stale, their
  // addresses return to the allocator) and puts fresh tiles in their place.
  threads.emplace_back([&] {
    Rng rng(7100);
    for (int round = 0; round < 400; ++round) {
      const std::size_t i = rng.UniformUint32(kPoolTiles);
      tiles::TilePtr old;
      {
        std::lock_guard<std::mutex> lock(pool_mu);
        old = std::exchange(pool[i], pool_tile(i, kPoolTiles + round));
      }
      old.reset();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  // Churn: repeatedly tear a slot's session down mid-stream (waits out its
  // in-flight pushes) and replace it.
  threads.emplace_back([&] {
    for (int round = 0; round < 30; ++round) {
      std::size_t slot = static_cast<std::size_t>(round) % kSlots;
      std::uint64_t old_id = slots[slot].load(std::memory_order_relaxed);
      std::uint64_t fresh = register_slot();
      slots[slot].store(fresh, std::memory_order_relaxed);
      scheduler.UnregisterSession(old_id);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Canceller: generation supersession and full cancels race the pump.
  threads.emplace_back([&] {
    Rng rng(7777);
    for (int round = 0; round < 60; ++round) {
      std::size_t slot = rng.UniformUint32(kSlots);
      std::uint64_t id = slots[slot].load(std::memory_order_relaxed);
      if (round % 4 == 0) {
        scheduler.CancelSession(id);
      } else {
        scheduler.CancelStaleGenerations(id, 1 + round % 3);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (auto& t : threads) t.join();
  scheduler.Flush();  // settle anything the parked self-pump left behind
  executor.Wait();
  scheduler.Shutdown();

  auto stats = scheduler.Stats();
  EXPECT_EQ(stats.chunks_pushed,
            stats.base_chunks_pushed + stats.exact_chunks_pushed);
  EXPECT_EQ(stats.chunks_pushed, delivered.load());
  // Every enqueued chunk was either pushed or accounted as dropped —
  // submissions that raced a churned slot's teardown included.
  EXPECT_EQ(stats.chunks_pushed + stats.stale_chunks_dropped +
                stats.expired_chunks_dropped,
            stats.chunks_enqueued);
  EXPECT_EQ(scheduler.queued(), 0u);
}

// Teardown calls racing on one session: a cancel and two unregisters all
// wait out the same in-flight push. Whichever erases the session must not
// leave the others reading it (a use-after-free under ASan and TSan, and a
// hang when the freed count reads nonzero).
TEST(StreamSchedulerStressTest, ConcurrentTeardownsOfOneSessionAllReturn) {
  StreamScheduler scheduler(nullptr, {});
  std::mutex mu;
  std::condition_variable cv;
  bool in_sink = false;
  bool release = false;
  const std::uint64_t session = scheduler.RegisterSession(
      1,
      [&](const tiles::TileKey&, const tiles::TilePtr&, bool, std::uint64_t) {
        std::unique_lock<std::mutex> lock(mu);
        in_sink = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      });
  scheduler.SubmitTile(session, {1, 0, 0}, GaussianTile({1, 0, 0}, 3), 1, 0.5);
  std::thread pump([&] { scheduler.Pump(); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_sink; });
  }
  std::vector<std::thread> teardowns;
  teardowns.emplace_back([&] { scheduler.CancelSession(session); });
  teardowns.emplace_back([&] { scheduler.UnregisterSession(session); });
  teardowns.emplace_back([&] { scheduler.UnregisterSession(session); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all waiting
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pump.join();
  for (auto& t : teardowns) t.join();

  // The session is gone: a new submission retires on arrival.
  scheduler.SubmitTile(session, {1, 1, 0}, GaussianTile({1, 1, 0}, 4), 1, 0.5);
  EXPECT_EQ(scheduler.queued(), 0u);
  const auto stats = scheduler.Stats();
  EXPECT_EQ(stats.chunks_pushed + stats.stale_chunks_dropped,
            stats.chunks_enqueued);
}

// ---------------------------------------------------------------------------
// End-to-end through the serving stack: streaming on delivers the same
// tiles to the same caches, so a deterministic replay sees identical hit
// sequences with the channel on or off.

std::shared_ptr<tiles::TilePyramid> StreamTestPyramid(int levels = 4) {
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

struct StreamEngineParts {
  core::AbRecommender ab;
  core::FixedAllocationStrategy strategy{"all-ab", 1.0};

  static StreamEngineParts Make() {
    auto ab = core::AbRecommender::Make();
    EXPECT_TRUE(ab.ok());
    EXPECT_TRUE(ab->Train({}).ok());
    return StreamEngineParts{std::move(*ab)};
  }
};

std::vector<core::Move> StreamMoveTape(std::uint64_t seed, std::size_t length) {
  Rng rng(seed, /*stream=*/17);
  std::vector<core::Move> tape;
  tape.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    tape.push_back(
        static_cast<core::Move>(rng.UniformInt(0, core::kNumMoves - 1)));
  }
  return tape;
}

TEST(PushStreamIntegrationTest, StreamingPreservesReplayHitSequence) {
  auto pyramid = StreamTestPyramid();
  auto parts = StreamEngineParts::Make();
  server::SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 4;

  const auto tape = StreamMoveTape(/*seed=*/4200, /*length=*/40);
  auto replay = [&](bool streaming) {
    storage::MemoryTileStore store(pyramid);
    SimClock clock;
    server::SessionManagerOptions options;
    options.executor_threads = 2;
    options.use_push_streaming = streaming;
    options.stream_scheduler.codec.progressive_base_step = 8.0;
    server::SessionManager manager(&store, &clock, shared, options);
    server::BrowserSession* session = manager.GetOrCreate("u1");
    std::vector<bool> hits;
    auto opened = session->Open();
    EXPECT_TRUE(opened.ok());
    session->WaitForPrefetch();
    manager.executor()->Wait();  // settle self-pumped stream deliveries
    for (core::Move move : tape) {
      auto served = session->ApplyMove(move);
      if (!served.ok()) {
        EXPECT_TRUE(served.status().IsInvalidArgument());
        continue;
      }
      hits.push_back(served->cache_hit);
      session->WaitForPrefetch();
      manager.executor()->Wait();
    }
    if (streaming) {
      EXPECT_NE(manager.stream_scheduler(), nullptr);
      if (manager.stream_scheduler() != nullptr) {
        auto stats = manager.stream_scheduler()->Stats();
        EXPECT_GT(stats.tiles_submitted, 0u);
        EXPECT_EQ(stats.first_usable_pushes, stats.tiles_submitted);
        // The one session's stream pushed both fidelities.
        EXPECT_GT(stats.base_chunks_pushed, 0u);
        EXPECT_GT(stats.exact_chunks_pushed, 0u);
      }
    } else {
      EXPECT_EQ(manager.stream_scheduler(), nullptr);
    }
    return hits;
  };

  auto without = replay(false);
  auto with = replay(true);
  EXPECT_FALSE(without.empty());
  EXPECT_EQ(without, with);
}

// ---------------------------------------------------------------------------
// Teardown regression, streaming edition: destroying the SessionManager
// while merged fills are still in flight AND the push channel holds queued
// chunks must be clean — the manager shuts the fetch queue down first,
// then the stream, before any session (and its delivery target) dies.
// Mirrors TeardownUnderInFlightMergedFills; run under TSan in CI.

class StreamSlowStore : public storage::TileStore {
 public:
  explicit StreamSlowStore(std::shared_ptr<const tiles::TilePyramid> pyramid)
      : inner_(std::move(pyramid)) {}

  Result<tiles::TilePtr> Fetch(const tiles::TileKey& key) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_.Fetch(key);
  }
  bool Contains(const tiles::TileKey& key) const override {
    return inner_.Contains(key);
  }
  const tiles::PyramidSpec& spec() const override { return inner_.spec(); }
  std::uint64_t fetch_count() const override { return inner_.fetch_count(); }

 private:
  storage::MemoryTileStore inner_;
};

TEST(StreamSchedulerStressTest, TeardownUnderInFlightStreamPushes) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kMovesPerSession = 6;

  auto pyramid = StreamTestPyramid();
  auto parts = StreamEngineParts::Make();
  server::SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;
  shared.engine_options.prefetch_k = 5;

  StreamSlowStore store(pyramid);
  SimClock clock;
  server::SessionManagerOptions options;
  options.executor_threads = 4;
  options.use_shared_cache = true;
  options.shared_cache.l1_bytes = 64ull << 20;
  options.single_flight = true;
  options.prefetch_scheduler.max_in_flight = 4;
  options.use_push_streaming = true;
  options.stream_scheduler.codec.progressive_base_step = 8.0;

  core::StreamSchedulerStats stream_stats;
  core::PrefetchSchedulerStats fetch_stats;
  {
    server::SessionManager manager(&store, &clock, shared, options);
    // Sessions share one tape (maximal merge overlap) and never wait for
    // their fills, so both the fetch queue and the push channel are busy
    // the moment the workloads return.
    const auto tape = StreamMoveTape(/*seed=*/6000, kMovesPerSession);
    std::vector<server::SessionManager::SessionWorkload> workloads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      workloads.push_back({"user" + std::to_string(s),
                           [&tape](server::BrowserSession* session) {
                             FC_RETURN_IF_ERROR(session->Open().status());
                             for (core::Move move : tape) {
                               auto served = session->ApplyMove(move);
                               if (!served.ok() &&
                                   !served.status().IsInvalidArgument()) {
                                 return served.status();
                               }
                             }
                             return Status::OK();
                           }});
    }
    ASSERT_TRUE(manager.RunSessions(std::move(workloads), 4).ok());
    ASSERT_NE(manager.prefetch_scheduler(), nullptr);
    ASSERT_NE(manager.stream_scheduler(), nullptr);
    fetch_stats = manager.prefetch_scheduler()->Stats();
    stream_stats = manager.stream_scheduler()->Stats();
    // The manager dies here with fills typically still in flight and
    // chunks still queued; shutdown order must retire both cleanly.
  }

  EXPECT_GT(fetch_stats.predictions_published, 0u);
  // Push-side accounting stays consistent mid-flight.
  EXPECT_EQ(stream_stats.chunks_pushed,
            stream_stats.base_chunks_pushed + stream_stats.exact_chunks_pushed);
  EXPECT_LE(stream_stats.first_usable_pushes, stream_stats.tiles_submitted);
}

}  // namespace
}  // namespace fc
