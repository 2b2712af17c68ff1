// Property-based tests: parameterized sweeps over randomized inputs that
// check invariants rather than point values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/move.h"
#include "core/prediction_engine.h"
#include "core/recommender.h"
#include "core/roi_tracker.h"
#include "core/tile_cache.h"
#include "markov/ngram_model.h"
#include "storage/tile_codec.h"
#include "tiles/tile_key.h"
#include "vision/histogram.h"
#include "vision/raster.h"

namespace fc {
namespace {

// ---------------------------------------------------------------------------
// Pyramid geometry properties across many specs

struct SpecParams {
  int levels;
  std::int64_t tile;
  std::int64_t base_w;
  std::int64_t base_h;
};

class PyramidPropertyTest : public ::testing::TestWithParam<SpecParams> {
 protected:
  tiles::PyramidSpec Spec() const {
    tiles::PyramidSpec spec;
    spec.num_levels = GetParam().levels;
    spec.tile_width = GetParam().tile;
    spec.tile_height = GetParam().tile;
    spec.base_width = GetParam().base_w;
    spec.base_height = GetParam().base_h;
    return spec;
  }
};

TEST_P(PyramidPropertyTest, TileCountsConsistent) {
  auto spec = Spec();
  ASSERT_TRUE(spec.Validate().ok());
  EXPECT_EQ(spec.AllKeys().size(), static_cast<std::size_t>(spec.TotalTiles()));
  for (int l = 0; l < spec.num_levels; ++l) {
    EXPECT_EQ(spec.KeysAtLevel(l).size(),
              static_cast<std::size_t>(spec.TilesX(l) * spec.TilesY(l)));
  }
}

TEST_P(PyramidPropertyTest, EveryChildMapsToItsParent) {
  auto spec = Spec();
  for (int l = 1; l < spec.num_levels; ++l) {
    for (const auto& key : spec.KeysAtLevel(l)) {
      auto parent = key.Parent();
      EXPECT_TRUE(spec.Valid(parent)) << key.ToString();
      EXPECT_EQ(parent.Child(key.QuadrantInParent()), key);
    }
  }
}

TEST_P(PyramidPropertyTest, MovesAreInvertible) {
  auto spec = Spec();
  for (const auto& key : spec.AllKeys()) {
    for (core::Move m : core::ValidMoves(key, spec)) {
      auto to = core::ApplyMove(key, m, spec);
      ASSERT_TRUE(to.has_value());
      EXPECT_TRUE(spec.Valid(*to));
      // Every move has an inverse move leading back.
      auto back = core::MoveBetween(*to, key);
      EXPECT_TRUE(back.has_value())
          << key.ToString() << " -> " << to->ToString();
    }
  }
}

TEST_P(PyramidPropertyTest, CandidatesAreExactlyOneMoveAway) {
  auto spec = Spec();
  for (const auto& key : spec.AllKeys()) {
    auto candidates = core::CandidateTiles(key, spec);
    EXPECT_EQ(candidates.size(), core::ValidMoves(key, spec).size());
    std::set<tiles::TileKey> unique(candidates.begin(), candidates.end());
    EXPECT_EQ(unique.size(), candidates.size());  // no duplicates
    for (const auto& c : candidates) {
      EXPECT_TRUE(core::MoveBetween(key, c).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, PyramidPropertyTest,
    ::testing::Values(SpecParams{1, 8, 8, 8}, SpecParams{3, 8, 64, 64},
                      SpecParams{4, 16, 128, 128}, SpecParams{3, 8, 50, 30},
                      SpecParams{5, 32, 512, 256}, SpecParams{2, 8, 9, 9}));

// ---------------------------------------------------------------------------
// Manhattan distance: identity, symmetry, non-negativity everywhere; the
// triangle inequality holds within a level (cross-level comparisons project
// pairwise, which is a penalty function, not a full metric — all the SB
// recommender requires).

TEST(TileDistancePropertyTest, MetricAxioms) {
  Rng rng(61);
  std::vector<tiles::TileKey> keys;
  for (int i = 0; i < 24; ++i) {
    int level = rng.UniformInt(0, 3);
    keys.push_back(tiles::TileKey{level, rng.UniformInt(0, (1 << level) - 1),
                                  rng.UniformInt(0, (1 << level) - 1)});
  }
  for (const auto& a : keys) {
    EXPECT_EQ(tiles::TileKey::ManhattanDistance(a, a), 0);
    for (const auto& b : keys) {
      auto dab = tiles::TileKey::ManhattanDistance(a, b);
      EXPECT_EQ(dab, tiles::TileKey::ManhattanDistance(b, a));  // symmetry
      EXPECT_GE(dab, 0);
      // Distinct tiles are at positive distance.
      if (!(a == b)) {
        EXPECT_GT(dab, 0);
      }
      for (const auto& c : keys) {
        if (a.level == b.level && b.level == c.level) {
          EXPECT_LE(tiles::TileKey::ManhattanDistance(a, c),
                    dab + tiles::TileKey::ManhattanDistance(b, c))
              << "same-level triangle inequality";
        }
      }
    }
  }
}

TEST(TileDistancePropertyTest, SameLevelMatchesGridManhattan) {
  Rng rng(62);
  for (int trial = 0; trial < 100; ++trial) {
    int level = rng.UniformInt(0, 5);
    tiles::TileKey a{level, rng.UniformInt(0, 20), rng.UniformInt(0, 20)};
    tiles::TileKey b{level, rng.UniformInt(0, 20), rng.UniformInt(0, 20)};
    EXPECT_EQ(tiles::TileKey::ManhattanDistance(a, b),
              std::abs(a.x - b.x) + std::abs(a.y - b.y));
  }
}

TEST(TileDistancePropertyTest, ParentChildAdjacency) {
  // A tile and any of its children are within 3 units (1 level + <=2 grid).
  Rng rng(63);
  for (int trial = 0; trial < 50; ++trial) {
    tiles::TileKey parent{rng.UniformInt(0, 4), rng.UniformInt(0, 10),
                          rng.UniformInt(0, 10)};
    for (int q = 0; q < 4; ++q) {
      auto child = parent.Child(q);
      auto d = tiles::TileKey::ManhattanDistance(parent, child);
      EXPECT_GE(d, 1);
      EXPECT_LE(d, 3);
    }
  }
}

// ---------------------------------------------------------------------------
// Kneser-Ney: distributions sum to 1 under random training data

class KneserNeyPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(KneserNeyPropertyTest, RandomTrainingYieldsProperDistributions) {
  auto [vocab, order] = GetParam();
  auto model = markov::NGramModel::Make(vocab, order);
  ASSERT_TRUE(model.ok());
  Rng rng(CombineSeeds(vocab, order));
  for (int t = 0; t < 5; ++t) {
    std::vector<int> seq;
    for (int i = 0; i < 80; ++i) {
      seq.push_back(static_cast<int>(rng.UniformUint32(static_cast<std::uint32_t>(vocab))));
    }
    ASSERT_TRUE(model->ObserveSequence(seq).ok());
  }
  model->Finalize();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> ctx;
    std::size_t len = rng.UniformUint32(static_cast<std::uint32_t>(order));
    for (std::size_t i = 0; i < len; ++i) {
      ctx.push_back(static_cast<int>(rng.UniformUint32(static_cast<std::uint32_t>(vocab))));
    }
    auto dist = model->Distribution(ctx);
    double sum = 0.0;
    for (double p : dist) {
      EXPECT_GT(p, 0.0);  // smoothing leaves no zero
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VocabOrders, KneserNeyPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 5, 9),
                       ::testing::Values<std::size_t>(1, 2, 4, 6)));

// ---------------------------------------------------------------------------
// Tile codec: random tiles round-trip exactly

TEST(CodecPropertyTest, RandomTilesRoundTrip) {
  Rng rng(67);
  for (int trial = 0; trial < 25; ++trial) {
    int level = rng.UniformInt(0, 8);
    auto w = static_cast<std::int64_t>(rng.UniformInt(1, 24));
    auto h = static_cast<std::int64_t>(rng.UniformInt(1, 24));
    std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::vector<std::string> names;
    for (std::size_t a = 0; a < nattr; ++a) names.push_back("attr" + std::to_string(a));
    auto tile = tiles::Tile::Make(
        tiles::TileKey{level, rng.UniformInt(0, 100), rng.UniformInt(0, 100)},
        w, h, names);
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < nattr; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 100);
    }
    auto bytes = storage::EncodeTile(*tile);
    auto back = storage::DecodeTile(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->key(), tile->key());
    EXPECT_EQ(back->attr_names(), tile->attr_names());
    for (std::size_t a = 0; a < nattr; ++a) {
      EXPECT_EQ(back->AttrData(a), tile->AttrData(a));
    }
  }
}

// Every encoding round-trips randomized tiles (edge-sized, multi-attribute)
// within its documented error bound; lossless modes are bit-exact.
TEST(CodecPropertyTest, AllEncodingsRoundTripWithinTolerance) {
  Rng rng(91);
  const std::vector<storage::TileCodecOptions> codecs = {
      {storage::TileEncoding::kRawF64},
      {storage::TileEncoding::kFloat32},
      {storage::TileEncoding::kDeltaVarint, 1e-6},
      {storage::TileEncoding::kDeltaVarint, 1e-2},
  };
  for (const auto& options : codecs) {
    storage::TileCodec codec(options);
    for (int trial = 0; trial < 20; ++trial) {
      // Dimension 1 exercises the degenerate edge-tile shape.
      auto w = static_cast<std::int64_t>(rng.UniformInt(1, 24));
      auto h = static_cast<std::int64_t>(rng.UniformInt(1, 24));
      std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 5));
      std::vector<std::string> names;
      for (std::size_t a = 0; a < nattr; ++a) {
        names.push_back("attr" + std::to_string(a));
      }
      auto tile = tiles::Tile::Make(
          tiles::TileKey{rng.UniformInt(0, 8), rng.UniformInt(0, 100),
                         rng.UniformInt(0, 100)},
          w, h, names);
      ASSERT_TRUE(tile.ok());
      for (std::size_t a = 0; a < nattr; ++a) {
        for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 10);
      }
      auto bytes = codec.Encode(*tile);
      auto peeked = storage::TileCodec::PeekEncoding(bytes);
      ASSERT_TRUE(peeked.ok());
      EXPECT_EQ(*peeked, options.encoding);
      auto back = storage::TileCodec::Decode(bytes);
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_EQ(back->key(), tile->key());
      EXPECT_EQ(back->attr_names(), tile->attr_names());
      for (std::size_t a = 0; a < nattr; ++a) {
        const auto& original = tile->AttrData(a);
        const auto& decoded = back->AttrData(a);
        ASSERT_EQ(decoded.size(), original.size());
        for (std::size_t i = 0; i < original.size(); ++i) {
          switch (options.encoding) {
            case storage::TileEncoding::kRawF64:
              EXPECT_EQ(decoded[i], original[i]);
              break;
            case storage::TileEncoding::kFloat32:
              // Exactly one double->float->double rounding.
              EXPECT_EQ(decoded[i],
                        static_cast<double>(static_cast<float>(original[i])));
              break;
            case storage::TileEncoding::kDeltaVarint:
              // Quantization lattice: half a step, plus fp slack from the
              // integer * step reconstruction.
              EXPECT_NEAR(decoded[i], original[i],
                          codec.MaxAbsError() * (1.0 + 1e-9) + 1e-12);
              break;
          }
        }
      }
    }
  }
}

// Non-finite cells: lossless encodings preserve them bit-exactly; the
// quantized encoding saturates infinities and maps NaN to 0 (documented —
// llround on NaN would otherwise be undefined behavior).
TEST(CodecPropertyTest, NonFiniteValuesHaveDefinedBehavior) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 0, 0, nan);
  tile->Set(0, 1, 0, inf);
  tile->Set(0, 0, 1, -inf);
  tile->Set(0, 1, 1, 1.5);

  auto raw = storage::TileCodec({storage::TileEncoding::kRawF64}).Encode(*tile);
  auto back = storage::TileCodec::Decode(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::isnan(back->At(0, 0, 0)));
  EXPECT_EQ(back->At(0, 1, 0), inf);

  const double step = 0.5;
  auto quantized =
      storage::TileCodec({storage::TileEncoding::kDeltaVarint, step}).Encode(*tile);
  back = storage::TileCodec::Decode(quantized);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->At(0, 0, 0), 0.0);             // NaN -> 0
  EXPECT_TRUE(std::isfinite(back->At(0, 1, 0)));  // Inf saturates
  EXPECT_GT(back->At(0, 1, 0), 1e18);
  EXPECT_LT(back->At(0, 0, 1), -1e18);
  EXPECT_NEAR(back->At(0, 1, 1), 1.5, step / 2 + 1e-9);

  // kFloat32: NaN/Inf pass through; finite values beyond float range
  // saturate at +/-FLT_MAX instead of hitting the narrowing-cast UB.
  tile->Set(0, 1, 1, 1e300);
  auto narrowed =
      storage::TileCodec({storage::TileEncoding::kFloat32}).Encode(*tile);
  back = storage::TileCodec::Decode(narrowed);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::isnan(back->At(0, 0, 0)));
  EXPECT_EQ(back->At(0, 1, 0), inf);
  EXPECT_EQ(back->At(0, 0, 1), -inf);
  EXPECT_EQ(back->At(0, 1, 1),
            static_cast<double>(std::numeric_limits<float>::max()));
}

// Consecutive cells saturating at opposite lattice bounds produce a delta
// of 2^63 — representable only via wrapping arithmetic. The round trip
// must be exact (both cells land on the saturation bound), with no UB.
TEST(CodecPropertyTest, OppositeSaturationDeltasRoundTrip) {
  const double step = 1e-4;
  auto tile = tiles::Tile::Make({0, 0, 0}, 3, 1, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 0, 0, 1e18);   // saturates at +2^62 quanta
  tile->Set(0, 1, 0, -1e18);  // saturates at -2^62 quanta
  tile->Set(0, 2, 0, 1e18);
  auto bytes =
      storage::TileCodec({storage::TileEncoding::kDeltaVarint, step}).Encode(*tile);
  auto back = storage::TileCodec::Decode(bytes);
  ASSERT_TRUE(back.ok());
  const double bound = 4.611686018427387904e18 * step;  // 2^62 * step
  EXPECT_DOUBLE_EQ(back->At(0, 0, 0), bound);
  EXPECT_DOUBLE_EQ(back->At(0, 1, 0), -bound);
  EXPECT_DOUBLE_EQ(back->At(0, 2, 0), bound);
}

// kDeltaVarint lands every cell on the lattice point std::llround picks:
// Decode(Encode(tile)) == llround(clamp(v / step)) * step, NaN -> 0, for
// the values where a hand-rolled rounding goes wrong — halves and their
// neighbours, the edge of exact integers at 2^52..2^53, the saturation
// bound 2^62, signed zero, subnormals and non-finite cells.
TEST(CodecPropertyTest, QuantizationMatchesLlround) {
  const double inf = std::numeric_limits<double>::infinity();
  const double two52 = 4503599627370496.0;
  const double two53 = 9007199254740992.0;
  const double two62 = 4.611686018427387904e18;
  std::vector<double> quanta = {
      0.5, 1.5, 2.5, 3.5, 1e6 + 0.5,
      std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
      0.49999999999999994,
      two52 + 0.5, two52 - 0.5, two52 + 1.5, two53, std::nextafter(two53, 0.0),
      two62, std::nextafter(two62, 0.0), std::nextafter(two62, inf), 2 * two62,
      1e300, 0.0, 5e-324, 2.2250738585072014e-308, inf,
      std::numeric_limits<double>::quiet_NaN()};
  const std::size_t fixed = quanta.size();
  for (std::size_t i = 0; i < fixed; ++i) quanta.push_back(-quanta[i]);
  Rng rng(109);
  for (int i = 0; i < 200; ++i) {
    quanta.push_back(rng.UniformInt(-1000, 1000) + 0.5);
    quanta.push_back(rng.Gaussian(0, 1e3));
  }
  for (double step : {1e-4, 0.3, 1.0}) {
    // Each quantum q as a cell of its own, and q * step, which lands on
    // (or an ulp beside) q once divided back by the step.
    std::vector<double> cells;
    for (double q : quanta) {
      cells.push_back(q);
      cells.push_back(q * step);
    }
    auto tile = tiles::Tile::Make({0, 0, 0},
                                  static_cast<std::int64_t>(cells.size()), 1,
                                  {"v"});
    ASSERT_TRUE(tile.ok());
    tile->MutableAttrData(0) = cells;
    auto back = storage::TileCodec::Decode(
        storage::TileCodec({storage::TileEncoding::kDeltaVarint, step})
            .Encode(*tile));
    ASSERT_TRUE(back.ok()) << back.status();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double v = cells[i];
      const double q = std::clamp(v / step, -two62, two62);
      const double want =
          std::isnan(v) ? 0.0 : static_cast<double>(std::llround(q)) * step;
      EXPECT_EQ(back->AttrData(0)[i], want)
          << "step " << step << " cell " << std::hexfloat << v;
    }
  }
}

// Encode is a fixed point on its own output: Encode(Decode(b)) == b for
// every blob b that Encode writes, in every encoding — over random tiles,
// over random quanta in every binade up to the 2^62 lattice bound, and
// over the cells where lossy encodings saturate or round: NaN, the
// infinities, -0.0, subnormals, the 2^52..2^53 edge of exact integers, the
// 2^62-quanta lattice bound, and float32 saturation. The shared cache's L2
// tier relies on it: a promoted tile demoted again lands the blob it was
// decoded from instead of encoding it anew. The one exception found is the
// binade 2^51 <= |v / step| < 2^52 (next test).
TEST(CodecPropertyTest, EncodeIsAFixedPointOfItsOwnBlobs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double two52 = 4503599627370496.0;
  const double two53 = 9007199254740992.0;
  const double two62 = 4.611686018427387904e18;
  const double flt_max = std::numeric_limits<float>::max();
  std::vector<double> quanta = {
      0.5, 1.5, 2.5, 1e6 + 0.5, std::nextafter(0.5, 0.0),
      two52 + 0.5, two52 - 0.5, two52 + 1.5, two53,
      std::nextafter(two53, 0.0), std::nextafter(two53, inf),
      two62, std::nextafter(two62, 0.0), std::nextafter(two62, inf),
      2 * two62, 1e300, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, inf,
      std::numeric_limits<double>::quiet_NaN()};
  const std::size_t fixed = quanta.size();
  for (std::size_t i = 0; i < fixed; ++i) quanta.push_back(-quanta[i]);

  Rng rng(131);
  for (const storage::TileCodecOptions options :
       {storage::TileCodecOptions{storage::TileEncoding::kRawF64},
        storage::TileCodecOptions{storage::TileEncoding::kFloat32},
        storage::TileCodecOptions{storage::TileEncoding::kDeltaVarint, 1e-4},
        storage::TileCodecOptions{storage::TileEncoding::kDeltaVarint, 0.3},
        storage::TileCodecOptions{storage::TileEncoding::kDeltaVarint, 1.0}}) {
    const storage::TileCodec codec(options);
    std::vector<tiles::Tile> inputs;
    for (int trial = 0; trial < 20; ++trial) {
      auto w = static_cast<std::int64_t>(rng.UniformInt(1, 24));
      auto h = static_cast<std::int64_t>(rng.UniformInt(1, 24));
      std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 3));
      std::vector<std::string> names;
      for (std::size_t a = 0; a < nattr; ++a) {
        names.push_back("attr" + std::to_string(a));
      }
      auto tile = tiles::Tile::Make(
          tiles::TileKey{rng.UniformInt(0, 8), rng.UniformInt(0, 100),
                         rng.UniformInt(0, 100)},
          w, h, names);
      ASSERT_TRUE(tile.ok());
      for (std::size_t a = 0; a < nattr; ++a) {
        for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 1e3);
      }
      inputs.push_back(std::move(*tile));
    }
    // Each adversarial quantum q as a cell, q * step (on the lattice, or an
    // ulp beside it), and float32's saturation edge.
    std::vector<double> cells;
    for (double q : quanta) {
      cells.push_back(q);
      cells.push_back(q * options.quant_step);
    }
    for (double v : {flt_max, std::nextafter(flt_max, inf), 2.0 * flt_max,
                     1e-46, -1e-46}) {
      cells.push_back(v);
      cells.push_back(-v);
    }
    for (int binade = 0; binade <= 62; ++binade) {
      if (binade == 51) continue;
      for (int i = 0; i < 64; ++i) {
        const double q = std::ldexp(rng.UniformDouble(1.0, 2.0), binade);
        cells.push_back((i % 2 == 0 ? q : -q) * options.quant_step);
      }
    }
    auto adversarial = tiles::Tile::Make(
        {0, 0, 0}, static_cast<std::int64_t>(cells.size()), 1, {"v"});
    ASSERT_TRUE(adversarial.ok());
    adversarial->MutableAttrData(0) = cells;
    inputs.push_back(std::move(*adversarial));

    for (const tiles::Tile& tile : inputs) {
      const std::string blob = codec.Encode(tile);
      auto decoded = storage::TileCodec::Decode(blob);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(codec.Encode(*decoded), blob)
          << storage::TileEncodingName(options.encoding) << " step "
          << options.quant_step << " tile " << tile.key().ToString();
    }
  }
}

// The input class that breaks the fixed point: kDeltaVarint cells with
// 2^51 <= |v / step| < 2^52, where doubles are spaced half a quantum apart.
// There (q * step) / step can land on q + 0.5 (in magnitude), which rounds
// to q + 1, so a second encode moves the cell one quantum away from zero:
// about 2% of such cells for steps 1e-6, 1e-4, 1e-2 and 0.3, none for
// power-of-two steps (e.g. step 1e-4 and v = 0x1.4f982828835adp+38). A
// retained blob still decodes to the promoted tile exactly, so the L2 tier
// landing it keeps that tile's cells where a re-encode would drift; here
// the drift is pinned to at most one quantum, away from zero.
TEST(CodecPropertyTest, SecondEncodeMovesCellsAtMostOneQuantumNearTwo51) {
  const double step = 1e-4;
  const storage::TileCodec codec({storage::TileEncoding::kDeltaVarint, step});
  std::vector<double> cells = {0x1.4f982828835adp+38};
  Rng rng(137);
  for (int i = 0; i < 4096; ++i) {
    const double q = std::ldexp(rng.UniformDouble(1.0, 2.0), 51);
    cells.push_back((i % 2 == 0 ? q : -q) * step);
  }
  auto tile = tiles::Tile::Make(
      {0, 0, 0}, static_cast<std::int64_t>(cells.size()), 1, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->MutableAttrData(0) = cells;
  auto once = storage::TileCodec::Decode(codec.Encode(*tile));
  ASSERT_TRUE(once.ok());
  auto twice = storage::TileCodec::Decode(codec.Encode(*once));
  ASSERT_TRUE(twice.ok());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double a = once->AttrData(0)[i];
    const double b = twice->AttrData(0)[i];
    EXPECT_GE(std::abs(b), std::abs(a)) << std::hexfloat << cells[i];
    EXPECT_LE(std::abs(b - a), step * (1.0 + 1e-6)) << std::hexfloat << cells[i];
  }
}

// An old format-v1 blob (no trailing checksum) must fail with a version
// error, not a misleading checksum-corruption message.
TEST(CodecPropertyTest, UnsupportedVersionReportedBeforeChecksum) {
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"v"});
  ASSERT_TRUE(tile.ok());
  auto bytes = storage::EncodeTile(*tile);
  bytes[4] = 1;  // u32 version field follows the 4-byte magic
  auto status = storage::TileCodec::Decode(bytes).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("version"), std::string::npos) << status;
}

// A tile cannot exist with zero attributes, so no encoding needs to
// represent one — the constructor is the guard.
TEST(CodecPropertyTest, ZeroAttributeTilesAreUnrepresentable) {
  EXPECT_TRUE(
      tiles::Tile::Make({0, 0, 0}, 2, 2, {}).status().IsInvalidArgument());
}

// Any single flipped byte anywhere in the blob must be rejected: structural
// checks catch header damage, the XXH64 trailer (format v3) catches payload
// damage.
TEST(CodecPropertyTest, ChecksumRejectsFlippedBytesEverywhere) {
  Rng rng(93);
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    storage::TileCodec codec({encoding, 1e-4});
    auto tile = tiles::Tile::Make({3, 2, 1}, 6, 5, {"a", "b"});
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 1);
    }
    auto bytes = codec.Encode(*tile);
    ASSERT_TRUE(storage::TileCodec::Decode(bytes).ok());
    for (int trial = 0; trial < 50; ++trial) {
      auto corrupted = bytes;
      std::size_t pos = rng.UniformUint32(static_cast<std::uint32_t>(bytes.size()));
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 + rng.UniformUint32(255)));
      EXPECT_TRUE(storage::TileCodec::Decode(corrupted).status().IsCorruption())
          << storage::TileEncodingName(encoding) << " byte " << pos;
    }
    // Truncation and trailing garbage are likewise rejected.
    EXPECT_TRUE(storage::TileCodec::Decode(bytes.substr(0, bytes.size() / 2))
                    .status()
                    .IsCorruption());
    EXPECT_TRUE(storage::TileCodec::Decode(bytes + "x").status().IsCorruption());
  }
}

// ---------------------------------------------------------------------------
// Progressive two-chunk encoding: base decodes alone within its fidelity
// bound; base + refinement reassembles the exact payload bit-identically.

namespace {

// Per-cell IEEE-754 bit patterns — the reassembly contract is bit
// identity, and operator== would miss it for NaN payloads.
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

}  // namespace

// For every encoding and base fidelity: Reassemble(base, refinement) is
// bit-identical to Decode(Encode(tile)), Decode(base) alone is a usable
// lossy tile within progressive_base_step / 2 of the exact payload, and
// the base never costs more bytes than the all-or-nothing blob.
TEST(CodecPropertyTest, ProgressivePairReassemblesBitIdentically) {
  Rng rng(101);
  std::vector<storage::TileCodecOptions> codecs;
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    for (double base_step : {0.25, 4.0}) {
      storage::TileCodecOptions options;
      options.encoding = encoding;
      options.quant_step = 1e-6;
      options.progressive_base_step = base_step;
      codecs.push_back(options);
    }
  }
  for (const auto& options : codecs) {
    storage::TileCodec codec(options);
    for (int trial = 0; trial < 15; ++trial) {
      auto w = static_cast<std::int64_t>(rng.UniformInt(1, 16));
      auto h = static_cast<std::int64_t>(rng.UniformInt(1, 16));
      std::size_t nattr = static_cast<std::size_t>(rng.UniformInt(1, 3));
      std::vector<std::string> names;
      for (std::size_t a = 0; a < nattr; ++a) {
        names.push_back("attr" + std::to_string(a));
      }
      auto tile = tiles::Tile::Make(
          tiles::TileKey{rng.UniformInt(0, 8), rng.UniformInt(0, 100),
                         rng.UniformInt(0, 100)},
          w, h, names);
      ASSERT_TRUE(tile.ok());
      for (std::size_t a = 0; a < nattr; ++a) {
        for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 50);
      }

      auto full = codec.Encode(*tile);
      auto exact = storage::TileCodec::Decode(full);
      ASSERT_TRUE(exact.ok());

      auto pair = codec.EncodeProgressive(*tile);
      // The usable chunk never costs more than the all-or-nothing blob
      // (the stream scheduler's first-usable guarantee leans on this).
      EXPECT_LE(pair.base.size(), full.size());

      // Base alone: a self-describing lossy tile within its fidelity bound.
      auto coarse = storage::TileCodec::Decode(pair.base);
      ASSERT_TRUE(coarse.ok()) << coarse.status();
      EXPECT_EQ(coarse->key(), tile->key());
      EXPECT_EQ(coarse->attr_names(), tile->attr_names());
      const double bound =
          options.progressive_base_step / 2.0 * (1.0 + 1e-9) + 1e-12;
      for (std::size_t a = 0; a < nattr; ++a) {
        const auto& exact_vals = exact->AttrData(a);
        const auto& coarse_vals = coarse->AttrData(a);
        ASSERT_EQ(coarse_vals.size(), exact_vals.size());
        for (std::size_t i = 0; i < exact_vals.size(); ++i) {
          EXPECT_NEAR(coarse_vals[i], exact_vals[i], bound);
        }
      }

      // Reassembly: bit-identical to the all-or-nothing decode.
      auto rebuilt = storage::TileCodec::Reassemble(pair.base, pair.refinement);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
      EXPECT_EQ(rebuilt->key(), exact->key());
      EXPECT_EQ(rebuilt->attr_names(), exact->attr_names());
      EXPECT_EQ(CellBits(*rebuilt), CellBits(*exact));
    }
  }
}

// Non-finite payloads survive the bit-domain residuals exactly: NaN, Inf,
// and huge values reassemble to the same bit pattern the all-or-nothing
// decode produces for each encoding.
TEST(CodecPropertyTest, ProgressiveNonFinitePayloadsReassembleExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    auto tile = tiles::Tile::Make({1, 2, 3}, 2, 2, {"v"});
    ASSERT_TRUE(tile.ok());
    tile->Set(0, 0, 0, nan);
    tile->Set(0, 1, 0, inf);
    tile->Set(0, 0, 1, -1e300);
    tile->Set(0, 1, 1, 2.75);
    storage::TileCodec codec({encoding, 1e-4, 1.0});
    auto exact = storage::TileCodec::Decode(codec.Encode(*tile));
    ASSERT_TRUE(exact.ok());
    auto pair = codec.EncodeProgressive(*tile);
    auto rebuilt = storage::TileCodec::Reassemble(pair.base, pair.refinement);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(CellBits(*rebuilt), CellBits(*exact))
        << storage::TileEncodingName(encoding);
  }
}

// Each chunk rejects corruption independently: a flipped byte anywhere in
// the base fails both the base-only decode and the reassembly; a flipped
// byte anywhere in the refinement fails the reassembly while the intact
// base still decodes fine. A refinement bound to a different tile's base
// fails the pair checksum.
TEST(CodecPropertyTest, ProgressiveChunksRejectCorruptionIndependently) {
  Rng rng(103);
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    storage::TileCodec codec({encoding, 1e-4, 0.5});
    auto tile = tiles::Tile::Make({2, 4, 6}, 6, 5, {"a", "b"});
    ASSERT_TRUE(tile.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : tile->MutableAttrData(a)) v = rng.Gaussian(0, 3);
    }
    auto pair = codec.EncodeProgressive(*tile);
    ASSERT_FALSE(pair.refinement.empty());
    ASSERT_TRUE(storage::TileCodec::Reassemble(pair.base, pair.refinement).ok());

    for (int trial = 0; trial < 40; ++trial) {
      auto corrupted = pair.base;
      std::size_t pos =
          rng.UniformUint32(static_cast<std::uint32_t>(corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 + rng.UniformUint32(255)));
      EXPECT_TRUE(storage::TileCodec::Decode(corrupted).status().IsCorruption())
          << storage::TileEncodingName(encoding) << " base byte " << pos;
      EXPECT_TRUE(storage::TileCodec::Reassemble(corrupted, pair.refinement)
                      .status()
                      .IsCorruption())
          << storage::TileEncodingName(encoding) << " base byte " << pos;
    }
    for (int trial = 0; trial < 40; ++trial) {
      auto corrupted = pair.refinement;
      std::size_t pos =
          rng.UniformUint32(static_cast<std::uint32_t>(corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 + rng.UniformUint32(255)));
      EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, corrupted)
                      .status()
                      .IsCorruption())
          << storage::TileEncodingName(encoding) << " refinement byte " << pos;
      // The intact base is unaffected by refinement damage.
      EXPECT_TRUE(storage::TileCodec::Decode(pair.base).ok());
    }
    // Truncated or padded refinements are rejected, not misapplied.
    EXPECT_TRUE(storage::TileCodec::Reassemble(
                    pair.base, pair.refinement.substr(0, pair.refinement.size() / 2))
                    .status()
                    .IsCorruption());
    EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, pair.refinement + "x")
                    .status()
                    .IsCorruption());

    // A refinement for a DIFFERENT tile's base: the bound checksum catches
    // the mismatched pair even though both chunks are individually intact.
    auto other = tiles::Tile::Make({2, 4, 7}, 6, 5, {"a", "b"});
    ASSERT_TRUE(other.ok());
    for (std::size_t a = 0; a < 2; ++a) {
      for (auto& v : other->MutableAttrData(a)) v = rng.Gaussian(0, 3);
    }
    auto other_pair = codec.EncodeProgressive(*other);
    ASSERT_FALSE(other_pair.refinement.empty());
    EXPECT_TRUE(storage::TileCodec::Reassemble(pair.base, other_pair.refinement)
                    .status()
                    .IsCorruption())
        << storage::TileEncodingName(encoding);
  }
}

// Degenerate tiles whose coarse base would not undercut the exact blob
// ship the exact blob AS the base: one chunk, empty refinement, and
// Reassemble accepts the pair as-is.
TEST(CodecPropertyTest, ProgressiveDegenerateTileShipsOneChunk) {
  // A 1x1 raw-f64 tile: header dwarfs payload, so the quantized base
  // cannot beat the full blob.
  auto tile = tiles::Tile::Make({0, 0, 0}, 1, 1, {"v"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 0, 0, 3.25);
  storage::TileCodec codec({storage::TileEncoding::kRawF64, 1e-4, 1.0});
  auto pair = codec.EncodeProgressive(*tile);
  EXPECT_TRUE(pair.refinement.empty());
  EXPECT_EQ(pair.base, codec.Encode(*tile));
  auto rebuilt = storage::TileCodec::Reassemble(pair.base, pair.refinement);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->At(0, 0, 0), 3.25);
}

// PlanProgressive prices a tile exactly as the byte path encodes it: for
// every encoding, base fidelity, shape, and payload (non-finite and
// saturating cells included) its sizes equal the Encode / EncodeProgressive
// blob sizes, its coarse and exact payloads equal Decode(base) and
// Decode(Encode(tile)) bit for bit, degenerate tiles and all-or-nothing
// mode report one chunk of the full size, and a lossless exact payload is
// the submitted tile itself.
TEST(CodecPropertyTest, ProgressivePlanMatchesTheBytePath) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             inf, -inf, -0.0, 1e300, -1e300};
  const double scales[] = {1e-3, 0.5, 40.0, 1e5};
  // A planned payload must be the tile Decode rebuilds, bit for bit.
  auto expect_same_tile = [](const tiles::Tile& got, const tiles::Tile& want) {
    EXPECT_EQ(got.key(), want.key());
    EXPECT_EQ(got.width(), want.width());
    EXPECT_EQ(got.height(), want.height());
    EXPECT_EQ(got.attr_names(), want.attr_names());
    EXPECT_EQ(CellBits(got), CellBits(want));
  };
  Rng rng(107);
  int split = 0, degenerate = 0;
  for (auto encoding :
       {storage::TileEncoding::kRawF64, storage::TileEncoding::kFloat32,
        storage::TileEncoding::kDeltaVarint}) {
    for (double base_step : {0.25, 1.0, 4.0, 1e6}) {
      storage::TileCodec codec({encoding, 1e-4, base_step});
      for (int trial = 0; trial < 160; ++trial) {
        // The first two trials pin the extreme shapes, 1x1x1 and 33x33x4.
        auto w = static_cast<std::int64_t>(
            trial == 0 ? 1 : trial == 1 ? 33 : rng.UniformInt(1, 33));
        auto h = static_cast<std::int64_t>(
            trial == 0 ? 1 : trial == 1 ? 33 : rng.UniformInt(1, 33));
        std::size_t nattr = static_cast<std::size_t>(
            trial == 0 ? 1 : trial == 1 ? 4 : rng.UniformInt(1, 4));
        std::vector<std::string> names;
        for (std::size_t a = 0; a < nattr; ++a) {
          names.push_back("attr" + std::to_string(a));
        }
        auto made = tiles::Tile::Make(
            tiles::TileKey{rng.UniformInt(0, 8), rng.UniformInt(0, 100),
                           rng.UniformInt(0, 100)},
            w, h, names);
        ASSERT_TRUE(made.ok());
        const double scale = scales[rng.UniformUint32(4)];
        for (std::size_t a = 0; a < nattr; ++a) {
          for (auto& v : made->MutableAttrData(a)) {
            v = rng.UniformUint32(20) == 0 ? specials[rng.UniformUint32(6)]
                                           : rng.Gaussian(0, scale);
          }
        }
        auto tile = std::make_shared<const tiles::Tile>(std::move(*made));
        const std::string full = codec.Encode(*tile);
        auto exact = storage::TileCodec::Decode(full);
        ASSERT_TRUE(exact.ok());
        const auto pair = codec.EncodeProgressive(*tile);
        auto coarse = storage::TileCodec::Decode(pair.base);
        ASSERT_TRUE(coarse.ok());

        for (bool progressive : {true, false}) {
          SCOPED_TRACE(::testing::Message()
                       << storage::TileEncodingName(encoding) << " base step "
                       << base_step << " trial " << trial << " " << w << "x"
                       << h << "x" << nattr << " progressive " << progressive);
          const auto plan = codec.PlanProgressive(tile, progressive);
          EXPECT_EQ(plan.full_bytes, full.size());
          ASSERT_NE(plan.exact, nullptr);
          ASSERT_NE(plan.coarse, nullptr);
          expect_same_tile(*plan.exact, *exact);
          if (encoding == storage::TileEncoding::kRawF64) {
            EXPECT_EQ(plan.exact, tile);  // no copy
          }
          if (!progressive) {
            // All-or-nothing: one chunk, the whole blob.
            EXPECT_TRUE(plan.one_chunk());
            EXPECT_EQ(plan.base_bytes, full.size());
            EXPECT_EQ(plan.coarse, plan.exact);
            continue;
          }
          EXPECT_EQ(plan.base_bytes, pair.base.size());
          EXPECT_EQ(plan.refinement_bytes, pair.refinement.size());
          expect_same_tile(*plan.coarse, *coarse);
          if (pair.refinement.empty()) {
            ++degenerate;
            EXPECT_TRUE(plan.one_chunk());
            EXPECT_EQ(plan.coarse, plan.exact);
          } else {
            ++split;
            EXPECT_FALSE(plan.one_chunk());
          }
        }
      }
    }
  }
  // Both sides of the degenerate rule were exercised.
  EXPECT_GT(split, 0);
  EXPECT_GT(degenerate, 0);
}

// ---------------------------------------------------------------------------
// LRU cache: never exceeds capacity; most-recent survives

TEST(LruPropertyTest, ByteBudgetInvariantUnderRandomWorkload) {
  Rng rng(71);
  constexpr std::size_t kTileBytes = 2 * 2 * sizeof(double);
  for (std::size_t budget_tiles : {1u, 3u, 8u}) {
    core::LruTileCache cache(budget_tiles * kTileBytes);
    std::vector<tiles::TileKey> recent;
    for (int op = 0; op < 500; ++op) {
      tiles::TileKey key{0, rng.UniformInt(0, 15), rng.UniformInt(0, 15)};
      if (rng.Bernoulli(0.6)) {
        auto tile = tiles::Tile::Make(key, 2, 2, {"v"});
        cache.Put(key, std::make_shared<const tiles::Tile>(std::move(*tile)));
        recent.push_back(key);
      } else {
        (void)cache.Get(key);
      }
      ASSERT_LE(cache.bytes_resident(), budget_tiles * kTileBytes);
      ASSERT_LE(cache.size(), budget_tiles);
      // The most recently put key is always resident.
      if (!recent.empty()) {
        EXPECT_TRUE(cache.Contains(recent.back()));
      }
    }
  }
}

TEST(LruPropertyTest, OversizedTileHeldAlone) {
  constexpr std::size_t kTileBytes = 2 * 2 * sizeof(double);
  core::LruTileCache cache(kTileBytes / 2);  // budget below one tile
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"v"});
  cache.Put({0, 0, 0}, std::make_shared<const tiles::Tile>(std::move(*tile)));
  EXPECT_TRUE(cache.Contains({0, 0, 0}));  // admitted despite the budget
  EXPECT_EQ(cache.size(), 1u);
  auto next = tiles::Tile::Make({0, 1, 0}, 2, 2, {"v"});
  cache.Put({0, 1, 0}, std::make_shared<const tiles::Tile>(std::move(*next)));
  EXPECT_TRUE(cache.Contains({0, 1, 0}));   // newest always survives
  EXPECT_FALSE(cache.Contains({0, 0, 0}));  // over budget: oldest dropped
}

// ---------------------------------------------------------------------------
// ROI tracker: ROI only ever contains tiles that were requested

TEST(RoiPropertyTest, RoiSubsetOfRequests) {
  Rng rng(73);
  tiles::PyramidSpec spec;
  spec.num_levels = 4;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 64;
  spec.base_height = 64;

  for (int trial = 0; trial < 20; ++trial) {
    core::RoiTracker tracker;
    std::set<tiles::TileKey> requested;
    tiles::TileKey current{0, 0, 0};
    requested.insert(current);
    core::TileRequest first;
    first.tile = current;
    tracker.Update(first);
    for (int step = 0; step < 60; ++step) {
      auto moves = core::ValidMoves(current, spec);
      auto move = moves[rng.UniformUint32(static_cast<std::uint32_t>(moves.size()))];
      current = *core::ApplyMove(current, move, spec);
      requested.insert(current);
      core::TileRequest req;
      req.tile = current;
      req.move = move;
      tracker.Update(req);
      for (const auto& roi_tile : tracker.roi()) {
        EXPECT_TRUE(requested.count(roi_tile) > 0)
            << roi_tile.ToString() << " in ROI but never requested";
      }
      // Temp ROI is only collecting after a zoom-in.
      if (tracker.collecting()) {
        EXPECT_FALSE(tracker.temp_roi().empty());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Histograms: totals preserved, normalization sums to 1

TEST(HistogramPropertyTest, RandomDataInvariant) {
  Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t bins = static_cast<std::size_t>(rng.UniformInt(1, 64));
    auto h = vision::Histogram1D::Make(bins, -2.0, 2.0);
    ASSERT_TRUE(h.ok());
    std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 500));
    for (std::size_t i = 0; i < n; ++i) h->Add(rng.Gaussian(0, 2));
    EXPECT_EQ(h->total(), n);
    double count_sum = 0.0;
    for (double c : h->counts()) count_sum += c;
    EXPECT_DOUBLE_EQ(count_sum, static_cast<double>(n));
    double norm_sum = 0.0;
    for (double c : h->Normalized()) norm_sum += c;
    EXPECT_NEAR(norm_sum, 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Merge: output always unique, bounded by k, and drawn from the inputs

TEST(MergePropertyTest, RandomizedMergeInvariants) {
  Rng rng(83);
  for (int trial = 0; trial < 50; ++trial) {
    auto random_list = [&](std::size_t n) {
      core::RankedTiles list;
      for (std::size_t i = 0; i < n; ++i) {
        list.push_back(tiles::TileKey{1, rng.UniformInt(0, 5), rng.UniformInt(0, 5)});
      }
      return list;
    };
    auto ab = random_list(static_cast<std::size_t>(rng.UniformInt(0, 9)));
    auto sb = random_list(static_cast<std::size_t>(rng.UniformInt(0, 9)));
    core::Allocation alloc;
    std::size_t k = static_cast<std::size_t>(rng.UniformInt(1, 9));
    alloc.ab_slots = static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(k)));
    alloc.sb_slots = k - alloc.ab_slots;
    alloc.ab_first = rng.Bernoulli(0.5);
    auto merged = core::MergeRankedLists(ab, sb, alloc, k);
    EXPECT_LE(merged.size(), k);
    std::set<tiles::TileKey> unique(merged.begin(), merged.end());
    EXPECT_EQ(unique.size(), merged.size());
    for (const auto& key : merged) {
      bool from_ab = std::find(ab.begin(), ab.end(), key) != ab.end();
      bool from_sb = std::find(sb.begin(), sb.end(), key) != sb.end();
      EXPECT_TRUE(from_ab || from_sb);
    }
  }
}

// ---------------------------------------------------------------------------
// Raster: blur/downsample keep values within the input range

TEST(RasterPropertyTest, SmoothingStaysInRange) {
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    vision::Raster img(24, 24);
    for (auto& v : img.mutable_data()) v = rng.UniformDouble(-3.0, 5.0);
    auto [lo, hi] = img.MinMax();
    for (double sigma : {0.5, 1.5, 3.0}) {
      auto blurred = vision::GaussianBlur(img, sigma);
      auto [blo, bhi] = blurred.MinMax();
      EXPECT_GE(blo, lo - 1e-9);
      EXPECT_LE(bhi, hi + 1e-9);
    }
    auto down = vision::Downsample2x(img);
    auto [dlo, dhi] = down.MinMax();
    EXPECT_GE(dlo, lo - 1e-9);
    EXPECT_LE(dhi, hi + 1e-9);
  }
}

}  // namespace
}  // namespace fc
