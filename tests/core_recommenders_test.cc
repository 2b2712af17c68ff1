// Unit tests for the recommenders (AB, SB, Momentum, Hotspot) and the phase
// classifier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>

#include "common/rng.h"
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

// With more than 4 distinct tiles in the history and an empty ROI, the
// fallback references are the last 4 distinct tiles deduplicated by first
// occurrence, so a current tile the user had visited before is dropped
// from them. Here the user leaves (2, 1, 1) and circles back to it through
// five other tiles; the references are (2, 3, 1), (2, 3, 2), (2, 2, 2) and
// (2, 1, 2), without the current (2, 1, 1). Pinned as today's ranking.
TEST(SbRecommenderTest, FallbackReferencesDropARevisitedCurrentTile) {
  TwoKindSbFixture f;
  SbRecommender sb = f.Make();
  SessionHistory history(8);
  history.Add(Req({2, 1, 1}, std::nullopt));
  history.Add(Req({2, 2, 1}, Move::kPanRight));
  history.Add(Req({2, 3, 1}, Move::kPanRight));
  history.Add(Req({2, 3, 2}, Move::kPanDown));
  history.Add(Req({2, 2, 2}, Move::kPanLeft));
  history.Add(Req({2, 1, 2}, Move::kPanLeft));
  auto request = Req({2, 1, 1}, Move::kPanUp);
  history.Add(request);
  auto ctx = MakeContext(f.spec, history, request);
  ASSERT_TRUE(ctx.roi.empty());
  auto ranked = sb.Recommend(ctx);
  ASSERT_TRUE(ranked.ok());
  const RankedTiles expected = {{3, 3, 2}, {2, 0, 1}, {3, 3, 3},
                                {2, 1, 0}, {3, 2, 3}, {3, 2, 2},
                                {1, 0, 0}, {2, 1, 2}, {2, 2, 1}};
  EXPECT_EQ(*ranked, expected);
}

// Algorithm 3 as SbRecommender::Recommend computed it before it kept its
// buffers per thread: the toolbox and the metadata store asked on every
// call, std::stable_sort for the ranking.
RankedTiles ReferenceSbRecommend(const tiles::TileMetadataStore& metadata,
                                 const vision::SignatureToolbox& toolbox,
                                 const std::map<vision::SignatureKind, double>& weights,
                                 const PredictionContext& ctx) {
  std::vector<vision::SignatureKind> kinds;
  std::vector<double> kind_weights;
  for (const auto& [kind, weight] : weights) {
    kinds.push_back(kind);
    kind_weights.push_back(weight);
  }
  using Signatures = std::vector<const std::vector<double>*>;
  auto signatures_of = [&](const tiles::TileKey& key) {
    Signatures out(kinds.size(), nullptr);
    auto md = metadata.Get(key);
    if (!md.ok()) return out;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      auto it = (*md)->signatures.find(kinds[i]);
      if (it != (*md)->signatures.end()) out[i] = &it->second;
    }
    return out;
  };
  auto penalized_distances = [&](const Signatures& a, const Signatures& b,
                                 std::int64_t manhattan, std::optional<double>* out) {
    double penalty = std::ldexp(
        1.0, static_cast<int>(std::clamp<std::int64_t>(manhattan - 1, -2000, 2000)));
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      auto extractor = toolbox.Get(kinds[i]);
      out[i] = std::nullopt;
      if (extractor.ok() && a[i] != nullptr && b[i] != nullptr) {
        out[i] = penalty * (*extractor)->Distance(*a[i], *b[i]);
      }
    }
  };
  auto combined_distance = [&](const std::optional<double>* penalized,
                               const double* kind_max,
                               std::int64_t manhattan) -> std::optional<double> {
    double sum = 0.0;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (!penalized[i].has_value()) return std::nullopt;
      double normalized = *penalized[i] / kind_max[i];
      sum += kind_weights[i] * normalized * normalized;
    }
    double physical = static_cast<double>(std::max<std::int64_t>(1, manhattan));
    return std::sqrt(sum) / physical;
  };

  std::vector<tiles::TileKey> references = ctx.roi;
  if (references.empty()) {
    for (const auto& r : ctx.history->entries()) {
      if (std::find(references.begin(), references.end(), r.tile) == references.end()) {
        references.push_back(r.tile);
      }
    }
    if (references.size() > 4) {
      references.erase(references.begin(), references.end() - 4);
    }
  }
  if (references.empty()) references.push_back(ctx.request.tile);
  auto skip_self = [&](const tiles::TileKey& cand, const tiles::TileKey& ref) {
    return references.size() > 1 && cand == ref;
  };
  const std::size_t num_kinds = kinds.size();
  std::vector<Signatures> reference_signatures;
  for (const auto& ref : references) reference_signatures.push_back(signatures_of(ref));
  std::vector<std::optional<double>> penalized(ctx.candidates.size() *
                                               references.size() * num_kinds);
  auto pair_distances = [&](std::size_t c, std::size_t r) {
    return penalized.data() + (c * references.size() + r) * num_kinds;
  };
  std::vector<double> kind_max(num_kinds, 1.0);
  for (std::size_t c = 0; c < ctx.candidates.size(); ++c) {
    const auto& cand = ctx.candidates[c];
    const Signatures signatures = signatures_of(cand);
    for (std::size_t r = 0; r < references.size(); ++r) {
      if (skip_self(cand, references[r])) continue;
      std::optional<double>* d = pair_distances(c, r);
      penalized_distances(signatures, reference_signatures[r],
                          tiles::TileKey::ManhattanDistance(cand, references[r]), d);
      for (std::size_t k = 0; k < num_kinds; ++k) {
        if (d[k].has_value()) kind_max[k] = std::max(kind_max[k], *d[k]);
      }
    }
  }
  struct Scored {
    tiles::TileKey key;
    double distance;
    bool recently_requested;
    int tiebreak;
  };
  auto in_history = [&ctx](const tiles::TileKey& key) {
    for (const auto& r : ctx.history->entries()) {
      if (r.tile == key) return true;
    }
    return false;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
    const auto& cand = ctx.candidates[i];
    double total = 0.0;
    bool any = false;
    for (std::size_t r = 0; r < references.size(); ++r) {
      if (skip_self(cand, references[r])) continue;
      auto d = combined_distance(pair_distances(i, r), kind_max.data(),
                                 tiles::TileKey::ManhattanDistance(cand, references[r]));
      if (d.has_value()) {
        total += *d;
        any = true;
      }
    }
    double dist = any ? total : std::numeric_limits<double>::infinity();
    scored.push_back({cand, dist, in_history(cand), static_cast<int>(i)});
  }
  std::stable_sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.recently_requested != b.recently_requested) return !a.recently_requested;
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.tiebreak < b.tiebreak;
  });
  RankedTiles out;
  for (const auto& sc : scored) out.push_back(sc.key);
  return out;
}

// Random sparse histograms (about a third of the bins zero) for every tile
// of a 5-level pyramid, with some tiles lacking metadata or one kind.
struct RandomSbFixture {
  tiles::PyramidSpec spec = Spec(5);
  tiles::TileMetadataStore metadata;
  vision::SignatureToolbox toolbox = vision::SignatureToolbox::MakeDefault({});

  explicit RandomSbFixture(std::uint64_t seed) {
    Rng rng(seed);
    auto histogram = [&rng](std::size_t bins) {
      std::vector<double> h(bins);
      for (double& v : h) v = rng.UniformUint32(3) == 0 ? 0.0 : rng.UniformDouble(0.0, 2.0);
      return h;
    };
    for (const auto& key : spec.AllKeys()) {
      if (rng.UniformUint32(12) == 0) continue;  // no metadata at all
      tiles::TileMetadata md;
      if (rng.UniformUint32(8) != 0) {
        md.signatures[vision::SignatureKind::kHistogram] = histogram(6);
      }
      if (rng.UniformUint32(8) != 0) {
        md.signatures[vision::SignatureKind::kNormalDist] = histogram(2);
      }
      md.signatures[vision::SignatureKind::kOutlier] = histogram(4);
      metadata.Put(key, md);
    }
  }
};

// Recommend equals the reference over random requests, candidate sets
// (moves up to 3 away, shuffled and cut), ROIs and histories, with one and
// two signature kinds, a kind the toolbox lacks (kOutlier: MakeDefault
// registers no extensions), and tiles missing signatures.
TEST(SbRecommenderTest, MatchesReferenceOnRandomContexts) {
  const std::vector<std::map<vision::SignatureKind, double>> weight_sets = {
      {{vision::SignatureKind::kHistogram, 1.0}},
      {{vision::SignatureKind::kNormalDist, 3.0}, {vision::SignatureKind::kHistogram, 1.0}},
      {{vision::SignatureKind::kNormalDist, 0.5}, {vision::SignatureKind::kHistogram, 2.0}},
      {{vision::SignatureKind::kHistogram, 1.0}, {vision::SignatureKind::kOutlier, 1.0}},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomSbFixture f(seed);
    const auto keys = f.spec.AllKeys();
    Rng rng(seed * 977);
    auto random_key = [&] {
      return keys[rng.UniformUint32(static_cast<std::uint32_t>(keys.size()))];
    };
    for (const auto& weights : weight_sets) {
      SbRecommenderOptions options;
      options.signature_weights = weights;
      SbRecommender sb(&f.metadata, &f.toolbox, options);
      for (int trial = 0; trial < 150; ++trial) {
        SessionHistory history(8);
        tiles::TileKey tile = random_key();
        std::optional<Move> move;
        const int steps = static_cast<int>(rng.UniformUint32(10));
        for (int i = 0; i <= steps; ++i) {
          history.Add(Req(tile, move));
          auto valid = ValidMoves(tile, f.spec);
          move = valid[rng.UniformUint32(static_cast<std::uint32_t>(valid.size()))];
          tile = *ApplyMove(tile, *move, f.spec);
        }
        const auto request = Req(tile, move);
        history.Add(request);
        PredictionContext ctx;
        ctx.request = request;
        ctx.history = &history;
        ctx.spec = &f.spec;
        ctx.candidates =
            CandidateTiles(tile, f.spec, 1 + static_cast<int>(rng.UniformUint32(3)));
        rng.Shuffle(&ctx.candidates);
        ctx.candidates.resize(rng.UniformUint32(
            static_cast<std::uint32_t>(ctx.candidates.size()) + 1));
        const int roi_size = static_cast<int>(rng.UniformUint32(5));
        for (int i = 0; i < roi_size; ++i) {
          ctx.roi.push_back(rng.UniformUint32(3) == 0 && !ctx.candidates.empty()
                                ? ctx.candidates.front()
                                : random_key());
        }
        auto ranked = sb.Recommend(ctx);
        ASSERT_TRUE(ranked.ok());
        ASSERT_EQ(*ranked, ReferenceSbRecommend(f.metadata, f.toolbox, weights, ctx))
            << "seed " << seed << " trial " << trial;
      }
    }
  }
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

// The direct path Predict memoizes: scaler and SVM on the features,
// projected onto `subset` when one is set.
AnalysisPhase DirectPhase(const PhaseClassifier& classifier,
                          const std::vector<PhaseFeature>& subset,
                          const TileRequest& request) {
  std::vector<double> features = ExtractPhaseFeatures(request);
  if (!subset.empty()) {
    std::vector<double> projected;
    for (PhaseFeature pf : subset) {
      projected.push_back(features[static_cast<std::size_t>(pf)]);
    }
    features = projected;
  }
  return static_cast<AnalysisPhase>(
      classifier.svm().Predict(classifier.scaler().Transform(features)));
}

// The memoized Predict equals the direct SVM path for every tile of a
// 6-level pyramid under every move class (1365 tiles x 4 classes, more keys
// than memo slots, so slots collide and are overwritten), twice over so the
// second pass reads the memo, and for keys outside its packed range.
TEST(PhaseClassifierTest, MemoMatchesDirectPath) {
  const auto spec = Spec(6);
  const std::vector<std::optional<Move>> moves = {
      std::nullopt, Move::kPanDown, Move::kZoomInSE, Move::kZoomOut, Move::kPanLeft};
  for (const std::vector<PhaseFeature>& subset :
       {std::vector<PhaseFeature>{},
        std::vector<PhaseFeature>{PhaseFeature::kY, PhaseFeature::kZoomInFlag}}) {
    PhaseClassifierOptions options;
    options.feature_subset = subset;
    auto trained = PhaseClassifier::Train(PhaseTraces(), options);
    ASSERT_TRUE(trained.ok());
    // Moved, as callers keep it: the memo moves with it.
    PhaseClassifier classifier = std::move(trained).value();
    const auto keys = spec.AllKeys();
    ASSERT_GT(keys.size() * 4, PhaseClassifier::kMemoSlots);
    std::size_t predictions = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& key : keys) {
        for (const auto& move : moves) {
          const auto request = Req(key, move);
          ASSERT_EQ(classifier.Predict(request), DirectPhase(classifier, subset, request))
              << key.ToString() << " pass " << pass;
          ++predictions;
        }
      }
    }
    EXPECT_EQ(predictions, 2 * keys.size() * moves.size());
    const tiles::TileKey outside[] = {
        {64, 0, 0},         {-1, 3, 3},         {2, 1 << 26, 0},
        {2, 0, 1 << 26},    {2, -1, 5},         {3, 5, -7},
        {63, (1 << 26) - 1, (1 << 26) - 1},     {0, 0, 0},
        {5, std::int64_t{1} << 40, 9}};
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& key : outside) {
        for (const auto& move : moves) {
          const auto request = Req(key, move);
          ASSERT_EQ(classifier.Predict(request), DirectPhase(classifier, subset, request))
              << key.ToString();
        }
      }
    }
  }
}

TEST(PhaseFeatureTest, Names) {
  EXPECT_EQ(PhaseFeatureToString(PhaseFeature::kX), "x_position");
  EXPECT_EQ(PhaseFeatureToString(PhaseFeature::kZoomOutFlag), "zoom_out_flag");
}

}  // namespace
}  // namespace fc::core
