// Unit tests for the middleware server, browser sessions, and the
// multi-user session manager.

#include <gtest/gtest.h>

#include "core/ab_recommender.h"
#include "core/allocation.h"
#include "server/forecache_server.h"
#include "server/session.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::server {
namespace {

/// Payload bytes of one 8x8 single-attribute test tile.
constexpr std::size_t kTileBytes = 8 * 8 * sizeof(double);

std::shared_ptr<tiles::TilePyramid> SmallPyramid(int levels = 3) {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 8 << (levels - 1), 8},
       array::Dimension{"x", 0, 8 << (levels - 1), 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < base.schema().dims()[0].length; ++y) {
    for (std::int64_t x = 0; x < base.schema().dims()[1].length; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0, static_cast<double>(x));
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

struct EngineParts {
  core::AbRecommender ab;
  core::FixedAllocationStrategy strategy{"all-ab", 1.0};

  static EngineParts Make() {
    auto ab = core::AbRecommender::Make();
    EXPECT_TRUE(ab.ok());
    EXPECT_TRUE(ab->Train({}).ok());
    return EngineParts{std::move(*ab)};
  }
};

core::TileRequest Req(tiles::TileKey tile, std::optional<core::Move> move) {
  core::TileRequest r;
  r.tile = tile;
  r.move = move;
  return r;
}

array::QueryCostModel NoJitterCosts() {
  auto costs = array::CalibratedPaperCosts();
  costs.jitter_rel_stddev = 0.0;
  return array::QueryCostModel(costs, 1);
}

TEST(ForeCacheServerTest, MissChargesDbmsHitChargesMiddleware) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  auto parts = EngineParts::Make();
  core::PredictionEngineOptions engine_options;
  engine_options.prefetch_k = 4;
  core::PredictionEngine engine(&pyramid->spec(), nullptr, &parts.ab, nullptr,
                                &parts.strategy, engine_options);
  ServerOptions options;
  ForeCacheServer server(&store, &engine, &clock, options);
  server.StartSession();

  // First request: cold cache -> DBMS query (8x8 tile ≈ 984 ms).
  auto first = server.HandleRequest(Req({0, 0, 0}, std::nullopt));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_NEAR(first->latency_ms, 984.0, 2.0);

  // Re-request: history cache -> 19.5 ms middleware service.
  auto again = server.HandleRequest(Req({0, 0, 0}, std::nullopt));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_NEAR(again->latency_ms, 19.5, 0.1);
}

TEST(ForeCacheServerTest, PrefetchingMakesPredictedMovesFast) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  auto parts = EngineParts::Make();
  core::PredictionEngineOptions engine_options;
  engine_options.prefetch_k = 9;  // prefetch every neighbor
  core::PredictionEngine engine(&pyramid->spec(), nullptr, &parts.ab, nullptr,
                                &parts.strategy, engine_options);
  ServerOptions options;
  options.cache.prefetch_bytes = 9 * kTileBytes;  // room for every neighbor
  ForeCacheServer server(&store, &engine, &clock, options);
  server.StartSession();

  ASSERT_TRUE(server.HandleRequest(Req({0, 0, 0}, std::nullopt)).ok());
  // Every possible next move was prefetched: the zoom-in must be a hit.
  auto zoomed = server.HandleRequest(Req({1, 0, 0}, core::Move::kZoomInNW));
  ASSERT_TRUE(zoomed.ok());
  EXPECT_TRUE(zoomed->cache_hit);
  EXPECT_NEAR(zoomed->latency_ms, 19.5, 0.1);
}

TEST(ForeCacheServerTest, NoPrefetchBaselineAlwaysSlow) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  ServerOptions options;
  options.prefetching_enabled = false;
  options.cache.history_bytes = kTileBytes;  // just the tile being viewed
  ForeCacheServer server(&store, nullptr, &clock, options);
  server.StartSession();

  ASSERT_TRUE(server.HandleRequest(Req({0, 0, 0}, std::nullopt)).ok());
  ASSERT_TRUE(server.HandleRequest(Req({1, 0, 0}, core::Move::kZoomInNW)).ok());
  ASSERT_TRUE(server.HandleRequest(Req({1, 1, 0}, core::Move::kPanRight)).ok());
  EXPECT_NEAR(server.AverageLatencyMs(), 984.0, 2.0);
}

TEST(ForeCacheServerTest, LatencyLogAccumulates) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  ServerOptions options;
  options.prefetching_enabled = false;
  ForeCacheServer server(&store, nullptr, &clock, options);
  server.StartSession();
  ASSERT_TRUE(server.HandleRequest(Req({0, 0, 0}, std::nullopt)).ok());
  ASSERT_TRUE(server.HandleRequest(Req({0, 0, 0}, std::nullopt)).ok());
  EXPECT_EQ(server.latency_log().size(), 2u);
  EXPECT_GT(server.latency_log()[0], server.latency_log()[1]);
}

TEST(ForeCacheServerTest, MissingTileIsError) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  ServerOptions options;
  options.prefetching_enabled = false;
  ForeCacheServer server(&store, nullptr, &clock, options);
  EXPECT_TRUE(server.HandleRequest(Req({9, 9, 9}, std::nullopt))
                  .status()
                  .IsNotFound());
}

TEST(ForeCacheServerTest, AsyncPrefetchFillsDuringThinkTime) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  auto parts = EngineParts::Make();
  core::PredictionEngineOptions engine_options;
  engine_options.prefetch_k = 9;  // prefetch every neighbor
  core::PredictionEngine engine(&pyramid->spec(), nullptr, &parts.ab, nullptr,
                                &parts.strategy, engine_options);
  ServerOptions options;
  options.cache.prefetch_bytes = 9 * kTileBytes;  // room for every neighbor
  Executor executor(2);  // outlives the server (joined prefetch tasks)
  ForeCacheServer server(&store, &engine, &clock, options, &executor);
  server.StartSession();

  ASSERT_TRUE(server.HandleRequest(Req({0, 0, 0}, std::nullopt)).ok());
  // Think time: the background fill completes before the next move.
  server.WaitForPrefetch();
  auto zoomed = server.HandleRequest(Req({1, 0, 0}, core::Move::kZoomInNW));
  ASSERT_TRUE(zoomed.ok());
  EXPECT_TRUE(zoomed->cache_hit);
  EXPECT_NEAR(zoomed->latency_ms, 19.5, 0.1);
}

TEST(ForeCacheServerTest, SharedCacheHitCostsMiddlewareTime) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  core::SharedTileCache shared_cache;
  ServerOptions options;
  options.prefetching_enabled = false;
  ForeCacheServer warmer(&store, nullptr, &clock, options, nullptr,
                         &shared_cache);
  ForeCacheServer server(&store, nullptr, &clock, options, nullptr,
                         &shared_cache);
  warmer.StartSession();
  server.StartSession();

  // The first session's miss publishes the tile to the shared cache; the
  // second session's request is then a (fast) middleware hit.
  ASSERT_TRUE(warmer.HandleRequest(Req({0, 0, 0}, std::nullopt)).ok());
  auto served = server.HandleRequest(Req({0, 0, 0}, std::nullopt));
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->cache_hit);
  EXPECT_NEAR(served->latency_ms, 19.5, 0.1);
  EXPECT_EQ(server.cache_manager().shared_hits(), 1u);
}

// ---------------------------------------------------------------------------
// BrowserSession

TEST(BrowserSessionTest, OpenThenMove) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  auto parts = EngineParts::Make();
  core::PredictionEngine engine(&pyramid->spec(), nullptr, &parts.ab, nullptr,
                                &parts.strategy);
  ForeCacheServer server(&store, &engine, &clock);
  BrowserSession browser(&server);

  EXPECT_TRUE(browser.ApplyMove(core::Move::kZoomInNW).status()
                  .IsFailedPrecondition());  // must open first
  ASSERT_TRUE(browser.Open().ok());
  EXPECT_EQ(browser.current_tile(), (tiles::TileKey{0, 0, 0}));
  EXPECT_FALSE(browser.Open().ok());  // double-open rejected

  auto served = browser.ApplyMove(core::Move::kZoomInSE);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(browser.current_tile(), (tiles::TileKey{1, 1, 1}));
  EXPECT_EQ(browser.requests_made(), 2u);

  // Border move rejected without changing position.
  EXPECT_FALSE(browser.ApplyMove(core::Move::kPanRight).ok());
  EXPECT_EQ(browser.current_tile(), (tiles::TileKey{1, 1, 1}));
}

// ---------------------------------------------------------------------------
// SessionManager

TEST(SessionManagerTest, IndependentSessions) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  storage::SimulatedDbmsStore store(pyramid, NoJitterCosts(), &clock);
  auto parts = EngineParts::Make();
  SharedPredictionComponents shared;
  shared.ab = &parts.ab;
  shared.strategy = &parts.strategy;

  SessionManager manager(&store, &clock, shared);
  auto* alice = manager.GetOrCreate("alice");
  auto* bob = manager.GetOrCreate("bob");
  EXPECT_NE(alice, bob);
  EXPECT_EQ(manager.GetOrCreate("alice"), alice);
  EXPECT_EQ(manager.active_sessions(), 2u);

  ASSERT_TRUE(alice->Open().ok());
  ASSERT_TRUE(bob->Open().ok());
  ASSERT_TRUE(alice->ApplyMove(core::Move::kZoomInNW).ok());
  ASSERT_TRUE(bob->ApplyMove(core::Move::kZoomInSE).ok());
  EXPECT_EQ(alice->current_tile(), (tiles::TileKey{1, 0, 0}));
  EXPECT_EQ(bob->current_tile(), (tiles::TileKey{1, 1, 1}));

  auto alice_server = manager.ServerFor("alice");
  ASSERT_TRUE(alice_server.ok());
  EXPECT_EQ((*alice_server)->latency_log().size(), 2u);

  ASSERT_TRUE(manager.Close("alice").ok());
  EXPECT_TRUE(manager.Close("alice").IsNotFound());
  EXPECT_EQ(manager.active_sessions(), 1u);
  EXPECT_FALSE(manager.ServerFor("alice").ok());
}

}  // namespace
}  // namespace fc::server
