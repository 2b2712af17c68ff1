// Unit tests for moves, requests/history/traces, and the ROI tracker
// (Algorithm 1).

#include <gtest/gtest.h>

#include <set>

#include "core/move.h"
#include "core/recommender.h"
#include "core/request.h"
#include "core/roi_tracker.h"

namespace fc::core {
namespace {

tiles::PyramidSpec Spec(int levels = 4) {
  tiles::PyramidSpec spec;
  spec.num_levels = levels;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 8 << (levels - 1);
  spec.base_height = 8 << (levels - 1);
  return spec;
}

// ---------------------------------------------------------------------------
// Move basics

TEST(MoveTest, NineMoves) {
  EXPECT_EQ(AllMoves().size(), static_cast<std::size_t>(kNumMoves));
}

TEST(MoveTest, Classification) {
  EXPECT_TRUE(IsPan(Move::kPanLeft));
  EXPECT_TRUE(IsPan(Move::kPanDown));
  EXPECT_TRUE(IsZoomOut(Move::kZoomOut));
  EXPECT_TRUE(IsZoomIn(Move::kZoomInSE));
  EXPECT_FALSE(IsPan(Move::kZoomInNW));
  EXPECT_EQ(ZoomQuadrant(Move::kZoomInNW), 0);
  EXPECT_EQ(ZoomQuadrant(Move::kZoomInSE), 3);
}

TEST(MoveTest, StringRoundTrip) {
  for (Move m : AllMoves()) {
    auto back = MoveFromString(MoveToString(m));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(MoveFromString("sideways").ok());
}

// ---------------------------------------------------------------------------
// ApplyMove / MoveBetween

TEST(ApplyMoveTest, PansShiftWithinLevel) {
  auto spec = Spec();
  tiles::TileKey key{2, 1, 1};
  EXPECT_EQ(*ApplyMove(key, Move::kPanLeft, spec), (tiles::TileKey{2, 0, 1}));
  EXPECT_EQ(*ApplyMove(key, Move::kPanRight, spec), (tiles::TileKey{2, 2, 1}));
  EXPECT_EQ(*ApplyMove(key, Move::kPanUp, spec), (tiles::TileKey{2, 1, 0}));
  EXPECT_EQ(*ApplyMove(key, Move::kPanDown, spec), (tiles::TileKey{2, 1, 2}));
}

TEST(ApplyMoveTest, BordersRejected) {
  auto spec = Spec();
  EXPECT_FALSE(ApplyMove({0, 0, 0}, Move::kPanLeft, spec).has_value());
  EXPECT_FALSE(ApplyMove({0, 0, 0}, Move::kPanUp, spec).has_value());
  EXPECT_FALSE(ApplyMove({0, 0, 0}, Move::kZoomOut, spec).has_value());
  EXPECT_FALSE(ApplyMove({3, 0, 0}, Move::kZoomInNW, spec).has_value());
  EXPECT_FALSE(ApplyMove({1, 1, 1}, Move::kPanRight, spec).has_value());
}

TEST(ApplyMoveTest, ZoomRoundTrip) {
  auto spec = Spec();
  tiles::TileKey key{1, 1, 0};
  for (Move zoom : {Move::kZoomInNW, Move::kZoomInNE, Move::kZoomInSW,
                    Move::kZoomInSE}) {
    auto child = ApplyMove(key, zoom, spec);
    ASSERT_TRUE(child.has_value());
    auto back = ApplyMove(*child, Move::kZoomOut, spec);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, key);
  }
}

TEST(MoveBetweenTest, InverseOfApply) {
  auto spec = Spec();
  tiles::TileKey from{1, 1, 1};
  for (Move m : ValidMoves(from, spec)) {
    auto to = ApplyMove(from, m, spec);
    ASSERT_TRUE(to.has_value());
    auto back = MoveBetween(from, *to);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
}

TEST(MoveBetweenTest, RejectsNonAdjacent) {
  EXPECT_FALSE(MoveBetween({1, 0, 0}, {1, 2, 0}).has_value());
  EXPECT_FALSE(MoveBetween({1, 0, 0}, {1, 1, 1}).has_value());
  EXPECT_FALSE(MoveBetween({0, 0, 0}, {2, 0, 0}).has_value());
  EXPECT_FALSE(MoveBetween({1, 1, 1}, {1, 1, 1}).has_value());
  // Child of a *different* parent.
  EXPECT_FALSE(MoveBetween({1, 0, 0}, {2, 2, 2}).has_value());
}

TEST(ValidMovesTest, InteriorTileHasAllNine) {
  auto spec = Spec();
  EXPECT_EQ(ValidMoves({2, 1, 1}, spec).size(), 9u);
  // Root: no zoom-out, no pans (1x1 grid), only 4 zoom-ins.
  EXPECT_EQ(ValidMoves({0, 0, 0}, spec).size(), 4u);
  // Finest-level corner: no zoom-ins, 2 pans, 1 zoom-out.
  EXPECT_EQ(ValidMoves({3, 0, 0}, spec).size(), 3u);
}

// ---------------------------------------------------------------------------
// Candidate tiles

TEST(CandidateTilesTest, InteriorHasNineNeighbors) {
  auto spec = Spec();
  auto candidates = CandidateTiles({2, 1, 1}, spec);
  EXPECT_EQ(candidates.size(), 9u);
  for (const auto& c : candidates) {
    EXPECT_NE(c, (tiles::TileKey{2, 1, 1}));
    EXPECT_TRUE(MoveBetween({2, 1, 1}, c).has_value());
  }
}

TEST(CandidateTilesTest, BordersShrinkSet) {
  auto spec = Spec();
  EXPECT_EQ(CandidateTiles({0, 0, 0}, spec).size(), 4u);
}

TEST(CandidateTilesTest, DepthTwoGrows) {
  auto spec = Spec();
  auto d1 = CandidateTiles({2, 1, 1}, spec, 1);
  auto d2 = CandidateTiles({2, 1, 1}, spec, 2);
  EXPECT_GT(d2.size(), d1.size());
  // d1 is a prefix of d2 (BFS order).
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_EQ(d1[i], d2[i]);
  EXPECT_TRUE(CandidateTiles({2, 1, 1}, spec, 0).empty());
}

// The breadth-first search CandidateTiles ran with a std::set of seen
// tiles.
std::vector<tiles::TileKey> ReferenceCandidates(const tiles::TileKey& from,
                                                const tiles::PyramidSpec& spec, int d) {
  std::vector<tiles::TileKey> result;
  if (d <= 0) return result;
  std::set<tiles::TileKey> seen = {from};
  std::vector<tiles::TileKey> frontier{from};
  for (int depth = 0; depth < d; ++depth) {
    std::vector<tiles::TileKey> next;
    for (const auto& key : frontier) {
      for (Move m : AllMoves()) {
        auto to = ApplyMove(key, m, spec);
        if (to.has_value() && seen.insert(*to).second) {
          next.push_back(*to);
          result.push_back(*to);
        }
      }
    }
    frontier = std::move(next);
  }
  return result;
}

// Same tiles in the same order as the set-based search for every tile of a
// 5-level pyramid at d = 0 to 3, through both overloads (the second
// reusing one vector).
TEST(CandidateTilesTest, MatchesSetBasedSearch) {
  auto spec = Spec(5);
  std::vector<tiles::TileKey> reused = {{9, 9, 9}};
  for (const auto& key : spec.AllKeys()) {
    for (int d = 0; d <= 3; ++d) {
      const auto want = ReferenceCandidates(key, spec, d);
      ASSERT_EQ(CandidateTiles(key, spec, d), want) << key.ToString() << " d " << d;
      CandidateTiles(key, spec, d, &reused);
      ASSERT_EQ(reused, want) << key.ToString() << " d " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// SessionHistory

TEST(SessionHistoryTest, RingBufferSemantics) {
  SessionHistory history(3);
  for (int i = 0; i < 5; ++i) {
    TileRequest r;
    r.tile = {0, i, 0};
    r.move = Move::kPanRight;
    history.Add(r);
  }
  EXPECT_EQ(history.size(), 3u);
  EXPECT_EQ(history.entries().front().tile.x, 2);
  EXPECT_EQ(history.Last()->tile.x, 4);
  history.Clear();
  EXPECT_TRUE(history.empty());
  EXPECT_FALSE(history.Last().has_value());
}

TEST(SessionHistoryTest, MoveSymbolsSkipInitial) {
  SessionHistory history(8);
  TileRequest first;
  first.tile = {0, 0, 0};
  history.Add(first);  // no move
  TileRequest second;
  second.tile = {1, 0, 0};
  second.move = Move::kZoomInNW;
  history.Add(second);
  auto symbols = history.MoveSymbols();
  ASSERT_EQ(symbols.size(), 1u);
  EXPECT_EQ(symbols[0], static_cast<int>(Move::kZoomInNW));
}

// ---------------------------------------------------------------------------
// Phase strings

TEST(PhaseTest, StringRoundTrip) {
  for (auto phase : {AnalysisPhase::kForaging, AnalysisPhase::kSensemaking,
                     AnalysisPhase::kNavigation}) {
    auto back = AnalysisPhaseFromString(AnalysisPhaseToString(phase));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, phase);
  }
  EXPECT_FALSE(AnalysisPhaseFromString("pondering").ok());
}

// ---------------------------------------------------------------------------
// Trace CSV round trip

TEST(TraceCsvTest, RoundTrip) {
  Trace t1;
  t1.user_id = "user01";
  t1.task_id = 2;
  TraceRecord r1;
  r1.request.tile = {0, 0, 0};
  r1.phase = AnalysisPhase::kForaging;
  t1.records.push_back(r1);
  TraceRecord r2;
  r2.request.tile = {1, 1, 0};
  r2.request.move = Move::kZoomInNE;
  r2.phase = AnalysisPhase::kNavigation;
  t1.records.push_back(r2);

  Trace t2 = t1;
  t2.user_id = "user02";
  t2.task_id = 3;

  std::string path = testing::TempDir() + "/fc_traces_test.csv";
  ASSERT_TRUE(WriteTracesCsv(path, {t1, t2}).ok());
  auto back = ReadTracesCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].user_id, "user01");
  EXPECT_EQ((*back)[0].task_id, 2);
  ASSERT_EQ((*back)[0].records.size(), 2u);
  EXPECT_FALSE((*back)[0].records[0].request.move.has_value());
  EXPECT_EQ((*back)[0].records[1].request.move, Move::kZoomInNE);
  EXPECT_EQ((*back)[0].records[1].phase, AnalysisPhase::kNavigation);
  EXPECT_EQ((*back)[1].user_id, "user02");
}

TEST(TraceTest, MoveSymbols) {
  Trace t;
  TraceRecord r0;
  r0.request.tile = {0, 0, 0};
  t.records.push_back(r0);
  TraceRecord r1;
  r1.request.tile = {1, 0, 0};
  r1.request.move = Move::kZoomInNW;
  t.records.push_back(r1);
  TraceRecord r2;
  r2.request.tile = {1, 1, 0};
  r2.request.move = Move::kPanRight;
  t.records.push_back(r2);
  auto symbols = t.MoveSymbols();
  ASSERT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols[0], static_cast<int>(Move::kZoomInNW));
  EXPECT_EQ(symbols[1], static_cast<int>(Move::kPanRight));
}

// ---------------------------------------------------------------------------
// RoiTracker: Algorithm 1

TileRequest Req(tiles::TileKey tile, std::optional<Move> move) {
  TileRequest r;
  r.tile = tile;
  r.move = move;
  return r;
}

TEST(RoiTrackerTest, EmptyUntilZoomOutCommits) {
  RoiTracker tracker;
  EXPECT_TRUE(tracker.roi().empty());
  tracker.Update(Req({1, 0, 0}, Move::kZoomInNW));
  EXPECT_TRUE(tracker.collecting());
  EXPECT_TRUE(tracker.roi().empty());  // not committed yet
  tracker.Update(Req({1, 1, 0}, Move::kPanRight));
  tracker.Update(Req({0, 0, 0}, Move::kZoomOut));
  EXPECT_FALSE(tracker.collecting());
  ASSERT_EQ(tracker.roi().size(), 2u);
  EXPECT_EQ(tracker.roi()[0], (tiles::TileKey{1, 0, 0}));
  EXPECT_EQ(tracker.roi()[1], (tiles::TileKey{1, 1, 0}));
}

TEST(RoiTrackerTest, ZoomInRestartsCollection) {
  RoiTracker tracker;
  tracker.Update(Req({1, 0, 0}, Move::kZoomInNW));
  tracker.Update(Req({2, 0, 0}, Move::kZoomInNW));  // deeper zoom: new temp
  tracker.Update(Req({1, 0, 0}, Move::kZoomOut));
  ASSERT_EQ(tracker.roi().size(), 1u);
  EXPECT_EQ(tracker.roi()[0], (tiles::TileKey{2, 0, 0}));
}

TEST(RoiTrackerTest, ZoomOutWithoutZoomInIsIgnored) {
  RoiTracker tracker;
  tracker.Update(Req({1, 0, 0}, Move::kZoomOut));
  EXPECT_TRUE(tracker.roi().empty());
  // Pans outside a collection window are ignored too (lines 13-14 guard).
  tracker.Update(Req({1, 1, 0}, Move::kPanRight));
  EXPECT_TRUE(tracker.roi().empty());
  EXPECT_TRUE(tracker.temp_roi().empty());
}

TEST(RoiTrackerTest, OldRoiReplacedByNewCycle) {
  RoiTracker tracker;
  tracker.Update(Req({1, 0, 0}, Move::kZoomInNW));
  tracker.Update(Req({0, 0, 0}, Move::kZoomOut));
  ASSERT_EQ(tracker.roi().size(), 1u);

  tracker.Update(Req({1, 1, 1}, Move::kZoomInSE));
  tracker.Update(Req({1, 0, 1}, Move::kPanLeft));
  tracker.Update(Req({0, 0, 0}, Move::kZoomOut));
  ASSERT_EQ(tracker.roi().size(), 2u);
  EXPECT_EQ(tracker.roi()[0], (tiles::TileKey{1, 1, 1}));
}

TEST(RoiTrackerTest, DuplicatePansNotDoubleCounted) {
  RoiTracker tracker;
  tracker.Update(Req({1, 0, 0}, Move::kZoomInNW));
  tracker.Update(Req({1, 1, 0}, Move::kPanRight));
  tracker.Update(Req({1, 0, 0}, Move::kPanLeft));  // revisits the seed tile
  tracker.Update(Req({0, 0, 0}, Move::kZoomOut));
  EXPECT_EQ(tracker.roi().size(), 2u);
}

TEST(RoiTrackerTest, InitialRequestIgnored) {
  RoiTracker tracker;
  tracker.Update(Req({0, 0, 0}, std::nullopt));
  EXPECT_TRUE(tracker.roi().empty());
  EXPECT_FALSE(tracker.collecting());
}

TEST(RoiTrackerTest, ResetClearsEverything) {
  RoiTracker tracker;
  tracker.Update(Req({1, 0, 0}, Move::kZoomInNW));
  tracker.Update(Req({0, 0, 0}, Move::kZoomOut));
  ASSERT_FALSE(tracker.roi().empty());
  tracker.Reset();
  EXPECT_TRUE(tracker.roi().empty());
  EXPECT_FALSE(tracker.collecting());
}

}  // namespace
}  // namespace fc::core
