// Unit tests for the recommenders (AB, SB, Momentum, Hotspot) and the phase
// classifier.

#include <gtest/gtest.h>

#include "core/ab_recommender.h"
#include "core/baseline_recommenders.h"
#include "core/phase_classifier.h"
#include "core/sb_recommender.h"

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

TileRequest Req(tiles::TileKey tile, std::optional<Move> move) {
  TileRequest r;
  r.tile = tile;
  r.move = move;
  return r;
}

// A trace that repeats one move from a starting tile.
Trace RepeatTrace(const tiles::PyramidSpec& spec, tiles::TileKey start,
                  Move move, int count) {
  Trace t;
  t.user_id = "u";
  t.task_id = 1;
  TraceRecord first;
  first.request = Req(start, std::nullopt);
  t.records.push_back(first);
  tiles::TileKey current = start;
  for (int i = 0; i < count; ++i) {
    auto next = ApplyMove(current, move, spec);
    if (!next.has_value()) break;
    TraceRecord rec;
    rec.request = Req(*next, move);
    t.records.push_back(rec);
    current = *next;
  }
  return t;
}

PredictionContext MakeContext(const tiles::PyramidSpec& spec,
                              const SessionHistory& history,
                              const TileRequest& request) {
  PredictionContext ctx;
  ctx.request = request;
  ctx.history = &history;
  ctx.spec = &spec;
  ctx.candidates = CandidateTiles(request.tile, spec);
  return ctx;
}

// ---------------------------------------------------------------------------
// AB recommender

TEST(AbRecommenderTest, LearnsRepetition) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  // Train on traces that always pan right along row 0 of level 2.
  std::vector<Trace> traces = {
      RepeatTrace(spec, {2, 0, 0}, Move::kPanRight, 3),
      RepeatTrace(spec, {2, 0, 1}, Move::kPanRight, 3),
      RepeatTrace(spec, {2, 0, 2}, Move::kPanRight, 3),
  };
  ASSERT_TRUE(ab->Train(traces).ok());

  SessionHistory history(8);
  history.Add(Req({2, 0, 1}, std::nullopt));
  history.Add(Req({2, 1, 1}, Move::kPanRight));
  history.Add(Req({2, 2, 1}, Move::kPanRight));
  auto request = Req({2, 2, 1}, Move::kPanRight);
  auto ctx = MakeContext(spec, history, request);
  auto ranked = ab->Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  ASSERT_FALSE(ranked->empty());
  // Top prediction continues panning right.
  EXPECT_EQ((*ranked)[0], (tiles::TileKey{2, 3, 1}));
  // Permutation completeness.
  EXPECT_EQ(ranked->size(), ctx.candidates.size());
}

TEST(AbRecommenderTest, MoveProbabilityMatchesChain) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  // Level 3 is 8 tiles wide, so 6 consecutive right-pans fit.
  ASSERT_TRUE(ab->Train({RepeatTrace(spec, {3, 0, 0}, Move::kPanRight, 6)}).ok());
  SessionHistory history(8);
  history.Add(Req({3, 1, 0}, Move::kPanRight));
  history.Add(Req({3, 2, 0}, Move::kPanRight));
  history.Add(Req({3, 3, 0}, Move::kPanRight));
  EXPECT_GT(ab->MoveProbability(history, Move::kPanRight), 0.5);
  EXPECT_LT(ab->MoveProbability(history, Move::kZoomOut),
            ab->MoveProbability(history, Move::kPanRight));
}

TEST(AbRecommenderTest, UntrainedStillRanksCompletely) {
  auto spec = Spec();
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ab->Train({}).ok());
  SessionHistory history(8);
  auto request = Req({2, 1, 1}, std::nullopt);
  history.Add(request);
  auto ctx = MakeContext(spec, history, request);
  auto ranked = ab->Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), ctx.candidates.size());
}

TEST(AbRecommenderTest, MissingContextRejected) {
  auto ab = AbRecommender::Make();
  ASSERT_TRUE(ab.ok());
  PredictionContext ctx;
  EXPECT_FALSE(ab->Recommend(ctx).ok());
}

// ---------------------------------------------------------------------------
// Momentum

TEST(MomentumTest, RepeatsPreviousMove) {
  auto spec = Spec();
  MomentumRecommender momentum;
  SessionHistory history(8);
  auto request = Req({2, 1, 1}, Move::kPanDown);
  history.Add(request);
  auto ctx = MakeContext(spec, history, request);
  auto ranked = momentum.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ((*ranked)[0], (tiles::TileKey{2, 1, 2}));  // continue panning down
}

TEST(MomentumTest, NoPreviousMoveFallsBackToCandidateOrder) {
  auto spec = Spec();
  MomentumRecommender momentum;
  SessionHistory history(8);
  auto request = Req({2, 1, 1}, std::nullopt);
  history.Add(request);
  auto ctx = MakeContext(spec, history, request);
  auto ranked = momentum.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), ctx.candidates.size());
  EXPECT_EQ((*ranked)[0], ctx.candidates[0]);  // uniform scores, stable order
}

TEST(MomentumTest, BorderRepeatFallsThrough) {
  auto spec = Spec();
  MomentumRecommender momentum;
  SessionHistory history(8);
  // Panning left from the left edge cannot repeat.
  auto request = Req({2, 0, 0}, Move::kPanLeft);
  history.Add(request);
  auto ctx = MakeContext(spec, history, request);
  auto ranked = momentum.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), ctx.candidates.size());
}

// ---------------------------------------------------------------------------
// Hotspot

TEST(HotspotTest, TrainsOnPopularTiles) {
  HotspotRecommenderOptions options;
  options.num_hotspots = 2;
  HotspotRecommender hotspot(options);
  // Build traces where tile {2,3,3} is requested repeatedly.
  std::vector<Trace> traces;
  for (int i = 0; i < 3; ++i) {
    Trace t;
    t.user_id = "u";
    for (int j = 0; j < 5; ++j) {
      TraceRecord rec;
      rec.request = Req({2, 3, 3}, Move::kPanRight);
      t.records.push_back(rec);
    }
    TraceRecord other;
    other.request = Req({2, 0, 0}, Move::kPanLeft);
    t.records.push_back(other);
    traces.push_back(t);
  }
  ASSERT_TRUE(hotspot.Train(traces).ok());
  ASSERT_EQ(hotspot.hotspots().size(), 2u);
  EXPECT_EQ(hotspot.hotspots()[0], (tiles::TileKey{2, 3, 3}));
}

TEST(HotspotTest, BoostsTowardNearbyHotspot) {
  auto spec = Spec();
  HotspotRecommender hotspot;
  Trace t;
  t.user_id = "u";
  for (int j = 0; j < 5; ++j) {
    TraceRecord rec;
    rec.request = Req({2, 3, 1}, Move::kPanRight);
    t.records.push_back(rec);
  }
  ASSERT_TRUE(hotspot.Train({t}).ok());

  // User at (1,1), previous move pan-up; hotspot at (3,1) is 2 away.
  SessionHistory history(8);
  auto request = Req({2, 1, 1}, Move::kPanUp);
  history.Add(request);
  auto ctx = MakeContext(spec, history, request);
  auto ranked = hotspot.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  // Panning right (toward the hotspot) outranks momentum's pan-up repeat.
  EXPECT_EQ((*ranked)[0], (tiles::TileKey{2, 2, 1}));
}

TEST(HotspotTest, FarFromHotspotsActsLikeMomentum) {
  auto spec = Spec(5);
  HotspotRecommenderOptions options;
  options.nearby_distance = 1;
  HotspotRecommender hotspot(options);
  Trace t;
  t.user_id = "u";
  TraceRecord rec;
  rec.request = Req({4, 15, 15}, Move::kPanRight);
  t.records.push_back(rec);
  ASSERT_TRUE(hotspot.Train({t}).ok());

  MomentumRecommender momentum;
  SessionHistory history(8);
  auto request = Req({4, 2, 2}, Move::kPanDown);
  history.Add(request);
  auto ctx = MakeContext(spec, history, request);
  auto from_hotspot = hotspot.Recommend(ctx);
  auto from_momentum = momentum.Recommend(ctx);
  ASSERT_TRUE(from_hotspot.ok() && from_momentum.ok());
  EXPECT_EQ(*from_hotspot, *from_momentum);
}

// ---------------------------------------------------------------------------
// SB recommender (histogram signature: no training required)

struct SbFixture {
  tiles::PyramidSpec spec = Spec(3);
  tiles::TileMetadataStore metadata;
  vision::SignatureToolbox toolbox;

  SbFixture() {
    vision::SignatureToolboxOptions options;
    toolbox = vision::SignatureToolbox::MakeDefault(options);
    // Populate histogram signatures: "snowy" tiles peak in the top bin,
    // "bare" tiles in the bottom bin.
    for (const auto& key : spec.AllKeys()) {
      tiles::TileMetadata md;
      bool snowy = Snowy(key);
      std::vector<double> sig(32, 0.0);
      sig[snowy ? 31 : 0] = 1.0;
      md.signatures[vision::SignatureKind::kHistogram] = sig;
      md.max = snowy ? 0.9 : -0.5;
      metadata.Put(key, md);
    }
  }

  // Tiles in the left half of level 2 are snowy.
  static bool Snowy(const tiles::TileKey& key) {
    return key.level == 2 && key.x <= 1;
  }
};

TEST(SbRecommenderTest, RanksVisuallySimilarFirst) {
  SbFixture f;
  SbRecommenderOptions options;
  options.signature_weights = {{vision::SignatureKind::kHistogram, 1.0}};
  SbRecommender sb(&f.metadata, &f.toolbox, options);

  // ROI: snowy tiles. Current position: (2, 1, 1) — its left neighbors are
  // snowy, right neighbors bare.
  SessionHistory history(8);
  auto request = Req({2, 1, 1}, Move::kPanLeft);
  history.Add(request);
  auto ctx = MakeContext(f.spec, history, request);
  ctx.roi = {tiles::TileKey{2, 0, 0}, tiles::TileKey{2, 1, 0}};
  auto ranked = sb.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), ctx.candidates.size());
  // The top candidate must be snowy (matches the ROI signature).
  EXPECT_TRUE(SbFixture::Snowy((*ranked)[0]))
      << "top was " << (*ranked)[0].ToString();
  // The last candidate must not be snowy.
  EXPECT_FALSE(SbFixture::Snowy(ranked->back()));
}

TEST(SbRecommenderTest, FallsBackToHistoryWhenNoRoi) {
  SbFixture f;
  SbRecommenderOptions options;
  options.signature_weights = {{vision::SignatureKind::kHistogram, 1.0}};
  SbRecommender sb(&f.metadata, &f.toolbox, options);

  SessionHistory history(8);
  history.Add(Req({2, 0, 0}, std::nullopt));  // snowy reference in history
  auto request = Req({2, 1, 1}, Move::kPanDown);
  history.Add(request);
  auto ctx = MakeContext(f.spec, history, request);
  ASSERT_TRUE(ctx.roi.empty());
  auto ranked = sb.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), ctx.candidates.size());
}

TEST(SbRecommenderTest, PhysicalDistancePenaltyApplies) {
  SbFixture f;
  SbRecommenderOptions options;
  options.signature_weights = {{vision::SignatureKind::kHistogram, 1.0}};
  SbRecommender sb(&f.metadata, &f.toolbox, options);
  // Two identical-signature references at different physical distances from
  // a candidate: the farther pair has the larger penalized distance.
  std::map<vision::SignatureKind, double> max_map = {
      {vision::SignatureKind::kHistogram, 1.0}};
  auto near = sb.PairDistance({2, 1, 1}, {2, 3, 1}, max_map);
  auto far = sb.PairDistance({2, 1, 1}, {2, 3, 3}, max_map);
  ASSERT_TRUE(near.ok() && far.ok());
  // Both references are bare (same signature); distance grows with the
  // 2^(manhattan-1) penalty faster than /physical shrinks it.
  EXPECT_GT(*far, *near);
}

// Two signature kinds with unequal weights: the normal signature weighted
// 3 and a 4-bin histogram weighted 1. Tile (2, 2, 1) lacks the normal
// signature.
struct TwoKindSbFixture {
  tiles::PyramidSpec spec = Spec(4);
  tiles::TileMetadataStore metadata;
  vision::SignatureToolbox toolbox = vision::SignatureToolbox::MakeDefault({});

  TwoKindSbFixture() {
    for (const auto& key : spec.AllKeys()) {
      tiles::TileMetadata md;
      md.signatures[vision::SignatureKind::kHistogram] = {
          1.0 + key.x % 3, 1.0 + key.y % 2, 0.5 * key.level,
          0.25 * ((key.x * key.y) % 4)};
      if (!(key == tiles::TileKey{2, 2, 1})) {
        md.signatures[vision::SignatureKind::kNormalDist] = {
            0.1 * key.x + 0.05 * key.level, 0.2 * key.y};
      }
      metadata.Put(key, md);
    }
  }

  SbRecommender Make() const {
    SbRecommenderOptions options;
    options.signature_weights = {{vision::SignatureKind::kNormalDist, 3.0},
                                 {vision::SignatureKind::kHistogram, 1.0}};
    return SbRecommender(&metadata, &toolbox, options);
  }
};

// Pinned rankings and distance: a change to how Algorithm 3's distances
// are computed must not move them.
TEST(SbRecommenderTest, TwoKindRankingGolden) {
  TwoKindSbFixture f;
  SbRecommender sb = f.Make();
  {
    // The ROI holds candidate (2, 1, 2); history holds candidate (2, 0, 1).
    SessionHistory history(8);
    history.Add(Req({2, 0, 1}, std::nullopt));
    auto request = Req({2, 1, 1}, Move::kPanRight);
    history.Add(request);
    auto ctx = MakeContext(f.spec, history, request);
    ctx.roi = {tiles::TileKey{2, 1, 2}, tiles::TileKey{2, 3, 0},
               tiles::TileKey{1, 1, 1}};
    auto ranked = sb.Recommend(ctx);
    ASSERT_TRUE(ranked.ok());
    const RankedTiles expected = {{2, 1, 0}, {2, 1, 2}, {1, 0, 0},
                                  {3, 3, 2}, {3, 2, 2}, {3, 3, 3},
                                  {3, 2, 3}, {2, 2, 1}, {2, 0, 1}};
    EXPECT_EQ(*ranked, expected);
  }
  {
    // Empty ROI: the history is the reference set.
    SessionHistory history(8);
    history.Add(Req({2, 3, 3}, std::nullopt));
    history.Add(Req({2, 0, 2}, Move::kPanLeft));
    history.Add(Req({2, 1, 2}, Move::kPanRight));
    auto request = Req({2, 2, 2}, Move::kPanRight);
    history.Add(request);
    auto ctx = MakeContext(f.spec, history, request);
    ASSERT_TRUE(ctx.roi.empty());
    auto ranked = sb.Recommend(ctx);
    ASSERT_TRUE(ranked.ok());
    const RankedTiles expected = {{2, 3, 2}, {2, 2, 3}, {1, 1, 1},
                                  {3, 4, 4}, {3, 4, 5}, {3, 5, 4},
                                  {3, 5, 5}, {2, 2, 1}, {2, 1, 2}};
    EXPECT_EQ(*ranked, expected);
  }
  // A pair missing one kind's signature has no distance.
  std::map<vision::SignatureKind, double> max_map = {
      {vision::SignatureKind::kHistogram, 2.0}};
  EXPECT_FALSE(sb.PairDistance({2, 1, 1}, {2, 2, 1}, max_map).ok());
  auto full = sb.PairDistance({2, 1, 1}, {2, 3, 3}, max_map);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, 0x1.f6d0bdec03989p-2);
}

TEST(SbRecommenderTest, DefaultsToSiftWeights) {
  SbFixture f;
  SbRecommender sb(&f.metadata, &f.toolbox);
  EXPECT_EQ(sb.options().signature_weights.size(), 1u);
  EXPECT_TRUE(sb.options().signature_weights.count(vision::SignatureKind::kSift) >
              0);
}

// ---------------------------------------------------------------------------
// Phase classifier

std::vector<Trace> PhaseTraces() {
  // Synthetic but separable: Foraging at level 0-1 panning, Navigation
  // zooming at mid levels, Sensemaking panning at level 3.
  std::vector<Trace> traces;
  for (int u = 0; u < 4; ++u) {
    Trace t;
    t.user_id = "u" + std::to_string(u);
    auto add = [&](tiles::TileKey key, std::optional<Move> move,
                   AnalysisPhase phase) {
      TraceRecord rec;
      rec.request = Req(key, move);
      rec.phase = phase;
      t.records.push_back(rec);
    };
    add({1, 0, 0}, Move::kPanRight, AnalysisPhase::kForaging);
    add({1, 1, 0}, Move::kPanRight, AnalysisPhase::kForaging);
    add({2, 2, 0}, Move::kZoomInNW, AnalysisPhase::kNavigation);
    add({3, 4, 0}, Move::kZoomInNW, AnalysisPhase::kNavigation);
    add({3, 5, 0}, Move::kPanRight, AnalysisPhase::kSensemaking);
    add({3, 5, 1}, Move::kPanDown, AnalysisPhase::kSensemaking);
    add({2, 2, 0}, Move::kZoomOut, AnalysisPhase::kNavigation);
    traces.push_back(t);
  }
  return traces;
}

TEST(PhaseClassifierTest, FeatureExtraction) {
  auto f = ExtractPhaseFeatures(Req({3, 5, 2}, Move::kPanRight));
  ASSERT_EQ(f.size(), kNumPhaseFeatures);
  EXPECT_DOUBLE_EQ(f[0], 5.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
  EXPECT_DOUBLE_EQ(f[3], 1.0);  // pan
  EXPECT_DOUBLE_EQ(f[4], 0.0);
  EXPECT_DOUBLE_EQ(f[5], 0.0);
  auto g = ExtractPhaseFeatures(Req({0, 0, 0}, std::nullopt));
  EXPECT_DOUBLE_EQ(g[3] + g[4] + g[5], 0.0);
}

TEST(PhaseClassifierTest, LearnsSeparablePhases) {
  auto classifier = PhaseClassifier::Train(PhaseTraces());
  ASSERT_TRUE(classifier.ok());
  EXPECT_GT(classifier->EvaluateAccuracy(PhaseTraces()), 0.8);
  EXPECT_EQ(classifier->Predict(Req({3, 5, 0}, Move::kPanRight)),
            AnalysisPhase::kSensemaking);
  EXPECT_EQ(classifier->Predict(Req({2, 2, 0}, Move::kZoomInNW)),
            AnalysisPhase::kNavigation);
}

TEST(PhaseClassifierTest, FeatureSubset) {
  PhaseClassifierOptions options;
  options.feature_subset = {PhaseFeature::kZoomLevel};
  auto classifier = PhaseClassifier::Train(PhaseTraces(), options);
  ASSERT_TRUE(classifier.ok());
  // Zoom level alone separates much of this toy data.
  EXPECT_GT(classifier->EvaluateAccuracy(PhaseTraces()), 0.5);
}

TEST(PhaseClassifierTest, SubsamplingBoundsRows) {
  PhaseClassifierOptions options;
  options.max_training_rows = 10;
  auto classifier = PhaseClassifier::Train(PhaseTraces(), options);
  ASSERT_TRUE(classifier.ok());  // trains despite subsampling
}

TEST(PhaseClassifierTest, RejectsEmptyTraining) {
  EXPECT_FALSE(PhaseClassifier::Train({}).ok());
}

TEST(PhaseFeatureTest, Names) {
  EXPECT_EQ(PhaseFeatureToString(PhaseFeature::kX), "x_position");
  EXPECT_EQ(PhaseFeatureToString(PhaseFeature::kZoomOutFlag), "zoom_out_flag");
}

}  // namespace
}  // namespace fc::core
