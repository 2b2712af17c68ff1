// Unit tests for tile keys, pyramid geometry, tiles, metadata, and the
// pyramid builder.

#include <gtest/gtest.h>

#include <cmath>

#include <set>

#include "array/dense_array.h"
#include "tiles/metadata.h"
#include "tiles/pyramid.h"
#include "tiles/tile.h"
#include "tiles/tile_key.h"

namespace fc::tiles {
namespace {

PyramidSpec StudySpec() {
  PyramidSpec spec;
  spec.num_levels = 4;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 64;   // 8 * 2^3
  spec.base_height = 64;
  return spec;
}

// A 2-attribute base array with a gradient and a checkerboard.
array::DenseArray GradientBase(std::int64_t h, std::int64_t w) {
  auto schema = array::ArraySchema::Make(
      "base", {array::Dimension{"y", 0, h, 8}, array::Dimension{"x", 0, w, 8}},
      {array::Attribute{"grad"}, array::Attribute{"check"}});
  array::DenseArray arr(std::move(*schema));
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      std::int64_t idx = arr.LinearIndex({y, x});
      arr.SetLinear(idx, 0, static_cast<double>(x + y));
      arr.SetLinear(idx, 1, static_cast<double>((x + y) % 2));
    }
  }
  return arr;
}

// ---------------------------------------------------------------------------
// TileKey

TEST(TileKeyTest, StringRoundTrip) {
  TileKey key{3, 5, 7};
  EXPECT_EQ(key.ToString(), "L3/5/7");
  auto parsed = TileKey::Parse("L3/5/7");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, key);
  EXPECT_FALSE(TileKey::Parse("3/5/7").ok());
  EXPECT_FALSE(TileKey::Parse("L3/5").ok());
  EXPECT_FALSE(TileKey::Parse("La/b/c").ok());
}

TEST(TileKeyTest, ParentChildInverse) {
  TileKey key{2, 3, 1};
  for (int q = 0; q < 4; ++q) {
    TileKey child = key.Child(q);
    EXPECT_EQ(child.level, 3);
    EXPECT_EQ(child.Parent(), key);
    EXPECT_EQ(child.QuadrantInParent(), q);
  }
}

TEST(TileKeyTest, ChildQuadrantLayout) {
  TileKey key{0, 0, 0};
  EXPECT_EQ(key.Child(0), (TileKey{1, 0, 0}));  // NW
  EXPECT_EQ(key.Child(1), (TileKey{1, 1, 0}));  // NE
  EXPECT_EQ(key.Child(2), (TileKey{1, 0, 1}));  // SW
  EXPECT_EQ(key.Child(3), (TileKey{1, 1, 1}));  // SE
}

TEST(TileKeyTest, ManhattanDistanceSameLevel) {
  EXPECT_EQ(TileKey::ManhattanDistance({2, 0, 0}, {2, 3, 4}), 7);
  EXPECT_EQ(TileKey::ManhattanDistance({2, 1, 1}, {2, 1, 1}), 0);
}

TEST(TileKeyTest, ManhattanDistanceAcrossLevels) {
  // Parent/child projected to the finer level: child (1,1,1) vs parent
  // (0,0,0) -> (1,0,0): |1-0|+|1-0| + 1 level gap = 3.
  EXPECT_EQ(TileKey::ManhattanDistance({0, 0, 0}, {1, 1, 1}), 3);
  // Symmetric.
  EXPECT_EQ(TileKey::ManhattanDistance({1, 1, 1}, {0, 0, 0}), 3);
}

// ---------------------------------------------------------------------------
// Morton codes (shared by the range planner and the packed disk layout)

TEST(MortonCodeTest, InterleaveGoldens) {
  // Bit i of x lands at bit 2i, bit i of y at bit 2i+1.
  EXPECT_EQ(MortonInterleave(0, 0), 0u);
  EXPECT_EQ(MortonInterleave(1, 0), 1u);
  EXPECT_EQ(MortonInterleave(0, 1), 2u);
  EXPECT_EQ(MortonInterleave(1, 1), 3u);
  // x=5 (101), y=3 (011): 1<<0 | 1<<1 | 1<<3 | 1<<4 = 27.
  EXPECT_EQ(MortonInterleave(5, 3), 27u);
  EXPECT_EQ(MortonInterleave(7, 7), 63u);
  // The top representable bit of each axis.
  EXPECT_EQ(MortonInterleave(1ull << 25, 0), 1ull << 50);
  EXPECT_EQ(MortonInterleave(0, 1ull << 25), 1ull << 51);
}

TEST(MortonCodeTest, QuadBlocksAreContiguous) {
  // An aligned 2x2 block occupies one contiguous code range — the property
  // that makes Morton-sorted batches coalesce into runs.
  EXPECT_EQ(MortonInterleave(2, 0), 4u);
  EXPECT_EQ(MortonInterleave(3, 0), 5u);
  EXPECT_EQ(MortonInterleave(2, 1), 6u);
  EXPECT_EQ(MortonInterleave(3, 1), 7u);
}

TEST(MortonCodeTest, LevelSeparation) {
  // Every level-L code sorts before every level-(L+1) code, even for the
  // largest representable coordinates.
  const std::int64_t max_coord = (1ll << 26) - 1;
  EXPECT_LT(MortonCode({1, max_coord, max_coord}), MortonCode({2, 0, 0}));
  EXPECT_LT(MortonCode({0, max_coord, max_coord}), MortonCode({1, 0, 0}));
  // Within a level the order is the interleave order.
  EXPECT_EQ(MortonCode({3, 5, 3}) - MortonCode({3, 0, 0}), 27u);
}

TEST(MortonCodeTest, DistinctOverAGrid) {
  std::set<std::uint64_t> codes;
  for (int level = 0; level < 3; ++level) {
    for (std::int64_t y = 0; y < 8; ++y) {
      for (std::int64_t x = 0; x < 8; ++x) {
        codes.insert(MortonCode({level, x, y}));
      }
    }
  }
  EXPECT_EQ(codes.size(), 3u * 64u);
}

// ---------------------------------------------------------------------------
// PyramidSpec

TEST(PyramidSpecTest, Validation) {
  auto spec = StudySpec();
  EXPECT_TRUE(spec.Validate().ok());
  spec.num_levels = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = StudySpec();
  spec.tile_width = 0;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(PyramidSpecTest, AggregationIntervalDoubles) {
  auto spec = StudySpec();
  EXPECT_EQ(spec.AggregationInterval(3), 1);  // finest = raw
  EXPECT_EQ(spec.AggregationInterval(2), 2);
  EXPECT_EQ(spec.AggregationInterval(1), 4);
  EXPECT_EQ(spec.AggregationInterval(0), 8);
}

TEST(PyramidSpecTest, LevelAndTileGrids) {
  auto spec = StudySpec();
  EXPECT_EQ(spec.LevelWidth(0), 8);
  EXPECT_EQ(spec.LevelWidth(3), 64);
  EXPECT_EQ(spec.TilesX(0), 1);
  EXPECT_EQ(spec.TilesX(1), 2);
  EXPECT_EQ(spec.TilesX(3), 8);
  EXPECT_EQ(spec.TotalTiles(), 1 + 4 + 16 + 64);
}

TEST(PyramidSpecTest, ValidChecksBounds) {
  auto spec = StudySpec();
  EXPECT_TRUE(spec.Valid({0, 0, 0}));
  EXPECT_TRUE(spec.Valid({3, 7, 7}));
  EXPECT_FALSE(spec.Valid({3, 8, 0}));
  EXPECT_FALSE(spec.Valid({4, 0, 0}));
  EXPECT_FALSE(spec.Valid({-1, 0, 0}));
  EXPECT_FALSE(spec.Valid({0, 0, 1}));
}

TEST(PyramidSpecTest, KeysEnumerations) {
  auto spec = StudySpec();
  EXPECT_EQ(spec.KeysAtLevel(1).size(), 4u);
  EXPECT_EQ(spec.AllKeys().size(), static_cast<std::size_t>(spec.TotalTiles()));
  EXPECT_TRUE(spec.KeysAtLevel(-1).empty());
  EXPECT_TRUE(spec.KeysAtLevel(9).empty());
}

TEST(PyramidSpecTest, NonSquareAndRaggedExtents) {
  PyramidSpec spec;
  spec.num_levels = 3;
  spec.tile_width = 10;
  spec.tile_height = 10;
  spec.base_width = 50;   // not a multiple of tile * 2^(levels-1)
  spec.base_height = 30;
  ASSERT_TRUE(spec.Validate().ok());
  EXPECT_EQ(spec.LevelWidth(0), 13);  // ceil(50/4)
  EXPECT_EQ(spec.TilesX(0), 2);       // ceil(13/10)
  EXPECT_EQ(spec.TilesY(0), 1);       // ceil(ceil(30/4)/10)
}

TEST(FitNumLevelsTest, CoarsestFitsOneTile) {
  EXPECT_EQ(FitNumLevels(64, 64, 8, 8), 4);
  EXPECT_EQ(FitNumLevels(8, 8, 8, 8), 1);
  EXPECT_EQ(FitNumLevels(1024, 1024, 32, 32), 6);
  EXPECT_EQ(FitNumLevels(100, 20, 32, 32), 3);
}

// ---------------------------------------------------------------------------
// Tile

TEST(TileTest, MakeValidates) {
  EXPECT_FALSE(Tile::Make({0, 0, 0}, 0, 4, {"a"}).ok());
  EXPECT_FALSE(Tile::Make({0, 0, 0}, 4, 4, {}).ok());
  EXPECT_TRUE(Tile::Make({0, 0, 0}, 4, 4, {"a"}).ok());
}

// Make value-initializes every column in place: each is all zeros, has
// width * height cells, and owns storage of its own.
TEST(TileTest, MakeZeroFillsDistinctColumns) {
  auto tile = Tile::Make({2, 1, 3}, 5, 3, {"a", "b", "c", "d"});
  ASSERT_TRUE(tile.ok());
  std::set<const double*> storage;
  for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
    const auto& column = tile->AttrData(a);
    ASSERT_EQ(column.size(), 15u);
    for (double v : column) {
      EXPECT_EQ(v, 0.0);
      EXPECT_FALSE(std::signbit(v));
    }
    EXPECT_TRUE(storage.insert(column.data()).second) << "column " << a;
  }
  // Writing one column leaves the others untouched.
  tile->Set(1, 4, 2, 7.5);
  EXPECT_EQ(tile->At(1, 4, 2), 7.5);
  EXPECT_EQ(tile->At(0, 4, 2), 0.0);
  EXPECT_EQ(tile->At(2, 4, 2), 0.0);
}

// FromColumns adopts built columns as they are, and rejects a column count
// or size that does not match the dims and names.
TEST(TileTest, FromColumnsAdoptsMatchingColumns) {
  std::vector<std::vector<double>> columns = {{1, 2, 3, 4, 5, 6},
                                              {-1, -2, -3, -4, -5, -6}};
  const double* first = columns[0].data();
  auto tile = Tile::FromColumns({1, 0, 0}, 3, 2, {"a", "b"}, std::move(columns));
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ(tile->AttrData(0).data(), first);  // adopted, not copied
  EXPECT_EQ(tile->At(0, 2, 1), 6.0);
  EXPECT_EQ(tile->At(1, 0, 1), -4.0);
  EXPECT_EQ(tile->SizeBytes(), 12 * sizeof(double));

  EXPECT_TRUE(Tile::FromColumns({1, 0, 0}, 3, 2, {"a", "b"}, {{1, 2, 3, 4, 5, 6}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Tile::FromColumns({1, 0, 0}, 3, 2, {"a"}, {{1, 2, 3}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Tile::FromColumns({1, 0, 0}, 0, 2, {"a"}, {{}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Tile::FromColumns({1, 0, 0}, 3, 2, {}, {}).status().IsInvalidArgument());
}

TEST(TileTest, SetGetAndRaster) {
  auto tile = Tile::Make({1, 0, 0}, 4, 2, {"a", "b"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 3, 1, 9.0);
  EXPECT_DOUBLE_EQ(tile->At(0, 3, 1), 9.0);
  EXPECT_EQ(*tile->AttrIndex("b"), 1u);
  EXPECT_FALSE(tile->AttrIndex("zzz").ok());
  auto raster = tile->ToRaster("a");
  ASSERT_TRUE(raster.ok());
  EXPECT_EQ(raster->width(), 4u);
  EXPECT_EQ(raster->height(), 2u);
  EXPECT_DOUBLE_EQ(raster->At(3, 1), 9.0);
  EXPECT_EQ(tile->SizeBytes(), 2 * 8 * sizeof(double));
}

// ---------------------------------------------------------------------------
// Metadata store

TEST(MetadataStoreTest, PutGet) {
  TileMetadataStore store;
  TileMetadata md;
  md.mean = 0.25;
  md.signatures[vision::SignatureKind::kHistogram] = {0.5, 0.5};
  store.Put({2, 1, 1}, md);
  ASSERT_TRUE(store.Contains({2, 1, 1}));
  auto got = store.Get({2, 1, 1});
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ((*got)->mean, 0.25);
  auto sig = store.GetSignature({2, 1, 1}, vision::SignatureKind::kHistogram);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ((*sig)->size(), 2u);
  EXPECT_FALSE(store.GetSignature({2, 1, 1}, vision::SignatureKind::kSift).ok());
  EXPECT_FALSE(store.Get({0, 0, 0}).ok());
}

// ---------------------------------------------------------------------------
// Pyramid builder

TEST(PyramidBuilderTest, BuildsAllLevels) {
  PyramidBuildOptions options;
  options.num_levels = 4;
  options.tile_width = 8;
  options.tile_height = 8;
  TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(GradientBase(64, 64));
  ASSERT_TRUE(pyramid.ok());
  EXPECT_EQ((*pyramid)->tile_count(), 85u);  // 1+4+16+64
  EXPECT_EQ((*pyramid)->spec().num_levels, 4);
  EXPECT_EQ((*pyramid)->attr_names().size(), 2u);
  // Every key resolvable; metadata present.
  for (const auto& key : (*pyramid)->spec().AllKeys()) {
    ASSERT_TRUE((*pyramid)->GetTile(key).ok()) << key.ToString();
    EXPECT_TRUE((*pyramid)->metadata().Contains(key));
  }
  EXPECT_FALSE((*pyramid)->GetTile({9, 0, 0}).ok());
}

TEST(PyramidBuilderTest, FinestLevelIsRawData) {
  PyramidBuildOptions options;
  options.num_levels = 4;
  options.tile_width = 8;
  options.tile_height = 8;
  TilePyramidBuilder builder(options);
  auto base = GradientBase(64, 64);
  auto pyramid = builder.Build(base);
  ASSERT_TRUE(pyramid.ok());
  auto tile = (*pyramid)->GetTile({3, 2, 5});
  ASSERT_TRUE(tile.ok());
  // Tile (2,5) at the finest level covers cells x in [16,24), y in [40,48).
  EXPECT_DOUBLE_EQ((*tile)->At(0, 0, 0), 16.0 + 40.0);
  EXPECT_DOUBLE_EQ((*tile)->At(0, 7, 7), 23.0 + 47.0);
}

TEST(PyramidBuilderTest, CoarserLevelsAverage) {
  PyramidBuildOptions options;
  options.num_levels = 2;
  options.tile_width = 8;
  options.tile_height = 8;
  TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(GradientBase(16, 16));
  ASSERT_TRUE(pyramid.ok());
  auto coarse = (*pyramid)->GetTile({0, 0, 0});
  ASSERT_TRUE(coarse.ok());
  // Cell (0,0) at level 0 averages raw cells {0,0},{0,1},{1,0},{1,1} of the
  // gradient: (0 + 1 + 1 + 2) / 4 = 1.
  EXPECT_DOUBLE_EQ((*coarse)->At(0, 0, 0), 1.0);
}

TEST(PyramidBuilderTest, PerAttributeAggregation) {
  PyramidBuildOptions options;
  options.num_levels = 2;
  options.tile_width = 8;
  options.tile_height = 8;
  options.agg_kinds = {array::AggKind::kMax, array::AggKind::kMin};
  TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(GradientBase(16, 16));
  ASSERT_TRUE(pyramid.ok());
  auto coarse = (*pyramid)->GetTile({0, 0, 0});
  ASSERT_TRUE(coarse.ok());
  EXPECT_DOUBLE_EQ((*coarse)->At(0, 0, 0), 2.0);  // max of 0,1,1,2
  EXPECT_DOUBLE_EQ((*coarse)->At(1, 0, 0), 0.0);  // min of checkerboard
}

TEST(PyramidBuilderTest, MetadataStats) {
  PyramidBuildOptions options;
  options.num_levels = 2;
  options.tile_width = 8;
  options.tile_height = 8;
  TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(GradientBase(16, 16));
  ASSERT_TRUE(pyramid.ok());
  auto md = (*pyramid)->metadata().Get({1, 1, 1});
  ASSERT_TRUE(md.ok());
  // Finest tile (1,1): gradient values x+y over x,y in [8,16): 16..30.
  EXPECT_DOUBLE_EQ((*md)->min, 16.0);
  EXPECT_DOUBLE_EQ((*md)->max, 30.0);
  EXPECT_NEAR((*md)->mean, 23.0, 1e-9);
}

TEST(PyramidBuilderTest, RejectsBadBase) {
  PyramidBuildOptions options;
  TilePyramidBuilder builder(options);
  auto schema_1d = array::ArraySchema::Make(
      "b", {array::Dimension{"x", 0, 16, 8}}, {array::Attribute{"a"}});
  EXPECT_FALSE(builder.Build(array::DenseArray(std::move(*schema_1d))).ok());

  auto schema_off = array::ArraySchema::Make(
      "b", {array::Dimension{"y", 1, 16, 8}, array::Dimension{"x", 0, 16, 8}},
      {array::Attribute{"a"}});
  EXPECT_FALSE(builder.Build(array::DenseArray(std::move(*schema_off))).ok());
}

TEST(PyramidBuilderTest, QuadTreeInvariant) {
  // One tile at level i covers exactly its 4 children's cells at level i+1:
  // the child tiles' aggregated means must average to the parent's mean.
  PyramidBuildOptions options;
  options.num_levels = 3;
  options.tile_width = 8;
  options.tile_height = 8;
  TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(GradientBase(32, 32));
  ASSERT_TRUE(pyramid.ok());
  auto parent_md = (*pyramid)->metadata().Get({1, 0, 0});
  ASSERT_TRUE(parent_md.ok());
  double child_mean_sum = 0.0;
  for (int q = 0; q < 4; ++q) {
    auto child_md = (*pyramid)->metadata().Get(TileKey{1, 0, 0}.Child(q));
    ASSERT_TRUE(child_md.ok());
    child_mean_sum += (*child_md)->mean;
  }
  EXPECT_NEAR((*parent_md)->mean, child_mean_sum / 4.0, 1e-9);
}

}  // namespace
}  // namespace fc::tiles
