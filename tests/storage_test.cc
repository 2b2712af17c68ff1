// Unit tests for the storage layer: codec, memory/disk/simulated stores.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "storage/tile_codec.h"
#include "storage/tile_store.h"
#include "tiles/pyramid.h"

namespace fc::storage {
namespace {

std::shared_ptr<tiles::TilePyramid> SmallPyramid() {
  auto schema = array::ArraySchema::Make(
      "base",
      {array::Dimension{"y", 0, 32, 8}, array::Dimension{"x", 0, 32, 8}},
      {array::Attribute{"v"}});
  array::DenseArray base(std::move(*schema));
  for (std::int64_t y = 0; y < 32; ++y) {
    for (std::int64_t x = 0; x < 32; ++x) {
      base.SetLinear(base.LinearIndex({y, x}), 0,
                     static_cast<double>(x * 100 + y));
    }
  }
  tiles::PyramidBuildOptions options;
  options.num_levels = 3;
  options.tile_width = 8;
  options.tile_height = 8;
  tiles::TilePyramidBuilder builder(options);
  auto pyramid = builder.Build(base);
  EXPECT_TRUE(pyramid.ok());
  return *pyramid;
}

// ---------------------------------------------------------------------------
// Codec

TEST(TileCodecTest, RoundTrip) {
  auto tile = tiles::Tile::Make({2, 1, 3}, 4, 4, {"a", "b"});
  ASSERT_TRUE(tile.ok());
  tile->Set(0, 2, 2, 3.25);
  tile->Set(1, 0, 3, -7.5);
  auto bytes = EncodeTile(*tile);
  auto back = DecodeTile(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->key(), (tiles::TileKey{2, 1, 3}));
  EXPECT_EQ(back->attr_names(), tile->attr_names());
  EXPECT_DOUBLE_EQ(back->At(0, 2, 2), 3.25);
  EXPECT_DOUBLE_EQ(back->At(1, 0, 3), -7.5);
}

TEST(TileCodecTest, RejectsCorruption) {
  auto tile = tiles::Tile::Make({0, 0, 0}, 2, 2, {"a"});
  ASSERT_TRUE(tile.ok());
  auto bytes = EncodeTile(*tile);
  // Truncated payload.
  EXPECT_TRUE(DecodeTile(bytes.substr(0, bytes.size() - 4)).status().IsCorruption());
  // Wrong magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_TRUE(DecodeTile(bad).status().IsCorruption());
  // Trailing garbage.
  EXPECT_TRUE(DecodeTile(bytes + "zz").status().IsCorruption());
  // Empty.
  EXPECT_TRUE(DecodeTile("").status().IsCorruption());
}

// Format v2 blobs, written by earlier builds, carry an FNV-1a trailer
// instead of XXH64 and are otherwise byte-identical to v3.
std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

// A v3 blob restamped as the v2 blob an earlier build wrote for the tile:
// version field 2, FNV-1a over the bytes before the 8-byte trailer.
std::string AsV2(std::string blob) {
  const std::uint32_t version = 2;
  std::memcpy(blob.data() + 4, &version, sizeof(version));
  blob.resize(blob.size() - sizeof(std::uint64_t));
  const std::uint64_t sum = Fnv1a(blob);
  blob.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return blob;
}

std::uint64_t Trailer(const std::string& blob) {
  std::uint64_t sum = 0;
  std::memcpy(&sum, blob.data() + blob.size() - sizeof(sum), sizeof(sum));
  return sum;
}

void ExpectSameCells(const tiles::Tile& got, const tiles::Tile& want) {
  EXPECT_EQ(got.key(), want.key());
  EXPECT_EQ(got.width(), want.width());
  EXPECT_EQ(got.height(), want.height());
  ASSERT_EQ(got.attr_names(), want.attr_names());
  for (std::size_t a = 0; a < want.num_attrs(); ++a) {
    ASSERT_EQ(got.AttrData(a).size(), want.AttrData(a).size());
    EXPECT_EQ(std::memcmp(got.AttrData(a).data(), want.AttrData(a).data(),
                          want.AttrData(a).size() * sizeof(double)),
              0)
        << "attribute " << a;
  }
}

tiles::Tile TwoByTwoTile() {
  auto tile = tiles::Tile::Make({1, 2, 3}, 2, 2, {"a", "b"});
  EXPECT_TRUE(tile.ok());
  tile->MutableAttrData(0) = {0.25, -1.5, 3.0, 1e-3};
  tile->MutableAttrData(1) = {100.0, -0.0, 7.125, 2.5};
  return std::move(*tile);
}

constexpr TileEncoding kEncodings[] = {
    TileEncoding::kRawF64, TileEncoding::kFloat32, TileEncoding::kDeltaVarint};

// Pinned format-v3 trailers (XXH64, seed 0) of one fixed tile: a checksum
// change must fail here, not against tiles already on disk.
TEST(TileCodecTest, V3TrailerGoldens) {
  const tiles::Tile tile = TwoByTwoTile();
  const std::uint64_t want[] = {0xaf70b7694348bb46ull, 0x1d5bed9335501460ull,
                                0xed40615b23feb235ull};
  for (std::size_t e = 0; e < 3; ++e) {
    const std::string blob = TileCodec({kEncodings[e], 1e-4}).Encode(tile);
    std::uint32_t version = 0;
    std::memcpy(&version, blob.data() + 4, sizeof(version));
    EXPECT_EQ(version, 3u);
    EXPECT_EQ(Trailer(blob), want[e])
        << TileEncodingName(kEncodings[e]) << " trailer 0x" << std::hex
        << Trailer(blob);
  }
}

// A v2 blob decodes to the same cells as its v3 twin in every encoding, and
// its FNV-1a trailer still rejects a flipped byte anywhere.
TEST(TileCodecTest, FormatV2BlobsStillDecode) {
  tiles::Tile tile = *tiles::Tile::Make({4, 5, 6}, 6, 5, {"a", "b"});
  for (std::size_t a = 0; a < 2; ++a) {
    auto& cells = tile.MutableAttrData(a);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cells[i] = std::sin(0.7 * static_cast<double>(i) + a) * 40.0;
    }
  }
  for (TileEncoding encoding : kEncodings) {
    SCOPED_TRACE(TileEncodingName(encoding));
    const std::string v3 = TileCodec({encoding, 1e-4}).Encode(tile);
    const std::string v2 = AsV2(v3);
    ASSERT_EQ(v2.size(), v3.size());
    auto want = TileCodec::Decode(v3);
    auto got = TileCodec::Decode(v2);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameCells(*got, *want);
    auto peeked = TileCodec::PeekEncoding(v2);
    ASSERT_TRUE(peeked.ok());
    EXPECT_EQ(*peeked, encoding);
    for (std::size_t pos = 0; pos < v2.size(); ++pos) {
      std::string corrupted = v2;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x24);
      EXPECT_TRUE(TileCodec::Decode(corrupted).status().IsCorruption())
          << "byte " << pos;
    }
  }
}

// A well-formed v2 blob built field by field: the forged-header tests below
// pass the checksum and reach the structural checks behind it.
struct ForgedBlob {
  TileEncoding encoding = TileEncoding::kDeltaVarint;
  std::int64_t width = 1;
  std::int64_t height = 1;
  std::vector<std::string> names = {"v"};
  std::string payload;

  template <typename T>
  static void Put(std::string* out, T value) {
    out->append(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  std::string Bytes() const {
    std::string out = "FCTL";
    Put(&out, std::uint32_t{2});
    Put(&out, static_cast<std::uint8_t>(encoding));
    Put(&out, std::int32_t{0});
    Put(&out, std::int64_t{0});
    Put(&out, std::int64_t{0});
    Put(&out, width);
    Put(&out, height);
    Put(&out, static_cast<std::uint32_t>(names.size()));
    for (const auto& name : names) {
      Put(&out, static_cast<std::uint32_t>(name.size()));
      out += name;
    }
    if (encoding == TileEncoding::kDeltaVarint) Put(&out, 0.5);  // quant step
    out += payload;
    Put(&out, Fnv1a(out));
    return out;
  }
};

// One varint-coded attribute: its u64 length prefix, then `bytes`.
std::string VarintAttr(std::uint64_t length, const std::string& bytes) {
  std::string out;
  ForgedBlob::Put(&out, length);
  return out + bytes;
}

TEST(TileCodecTest, ForgedHeadersBehindAValidChecksumAreCorruption) {
  // The forging itself is sound: a well-formed blob decodes.
  ForgedBlob good;
  good.width = 2;
  good.payload = VarintAttr(2, "\x02\x04");  // zigzag deltas +1, +2
  auto decoded = TileCodec::Decode(good.Bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->AttrData(0), (std::vector<double>{0.5, 1.5}));

  // Dimensions no payload could hold must fail before the tile is sized:
  // 2^31 x 2^31 cells would throw from the allocation, 2^32 x 2^32
  // overflows int64.
  for (TileEncoding encoding : kEncodings) {
    for (std::int64_t dim : {std::int64_t{1} << 31, std::int64_t{1} << 32}) {
      ForgedBlob forged;
      forged.encoding = encoding;
      forged.width = dim;
      forged.height = dim;
      forged.payload = encoding == TileEncoding::kDeltaVarint
                           ? VarintAttr(1, std::string(1, '\0'))
                           : std::string(8, '\0');
      EXPECT_TRUE(TileCodec::Decode(forged.Bytes()).status().IsCorruption())
          << TileEncodingName(encoding) << " " << dim << "x" << dim;
    }
  }

  const struct {
    const char* what;
    std::int64_t width;
    std::vector<std::string> names;
    std::string payload;
  } cases[] = {
      {"length prefix points past the blob", 1, {"v"}, VarintAttr(64, "\x02")},
      {"length prefix near 2^64", 1, {"v"}, VarintAttr(~std::uint64_t{0}, "\x02")},
      {"11-byte varint", 1, {"v"},
       VarintAttr(11, std::string(10, '\x80') + "\x01")},
      {"varint truncated at the attribute's end", 2, {"a", "b"},
       VarintAttr(2, "\x02\x80") + VarintAttr(2, "\x02\x02")},
      {"leftover bytes in the attribute", 1, {"v"}, VarintAttr(3, "\x02\x02\x02")},
      {"attribute shorter than its cells", 2, {"v"}, VarintAttr(1, "\x02")},
  };
  for (const auto& c : cases) {
    ForgedBlob forged;
    forged.width = c.width;
    forged.names = c.names;
    forged.payload = c.payload;
    EXPECT_TRUE(TileCodec::Decode(forged.Bytes()).status().IsCorruption())
        << c.what;
  }
}

// ---------------------------------------------------------------------------
// MemoryTileStore

TEST(MemoryTileStoreTest, FetchAndCount) {
  auto pyramid = SmallPyramid();
  MemoryTileStore store(pyramid);
  EXPECT_TRUE(store.Contains({0, 0, 0}));
  EXPECT_FALSE(store.Contains({7, 0, 0}));
  auto tile = store.Fetch({2, 3, 3});
  ASSERT_TRUE(tile.ok());
  EXPECT_EQ(store.fetch_count(), 1u);
  EXPECT_FALSE(store.Fetch({7, 0, 0}).ok());
  EXPECT_EQ(store.fetch_count(), 2u);
  // On the single-tile path, every fetch is its own backend query.
  EXPECT_EQ(store.query_count(), 2u);
}

// ---------------------------------------------------------------------------
// SimulatedDbmsStore

TEST(SimulatedDbmsStoreTest, ChargesVirtualClock) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  auto costs = array::CalibratedPaperCosts();
  costs.jitter_rel_stddev = 0.0;
  SimulatedDbmsStore store(pyramid, array::QueryCostModel(costs, 1), &clock);
  ASSERT_TRUE(store.Fetch({2, 0, 0}).ok());
  // 8x8 tile: 909 + 75 + 0.05us*64 ≈ 984 ms.
  EXPECT_NEAR(clock.NowMillis(), 984.0, 1.0);
  // The clock advances in whole microseconds; allow that rounding.
  EXPECT_NEAR(store.total_query_millis(), clock.NowMillis(), 1e-3);
  ASSERT_TRUE(store.Fetch({2, 1, 0}).ok());
  EXPECT_NEAR(clock.NowMillis(), 2 * 984.0, 2.0);
  EXPECT_EQ(store.fetch_count(), 2u);
  EXPECT_EQ(store.query_count(), 2u);  // tiles == round trips without batching
}

TEST(SimulatedDbmsStoreTest, MissingTileChargesNothing) {
  auto pyramid = SmallPyramid();
  SimClock clock;
  SimulatedDbmsStore store(pyramid,
                           array::QueryCostModel(array::CalibratedPaperCosts(), 1),
                           &clock);
  EXPECT_FALSE(store.Fetch({9, 9, 9}).ok());
  EXPECT_EQ(clock.NowMicros(), 0);
}

// ---------------------------------------------------------------------------
// DiskTileStore

TEST(DiskTileStoreTest, SaveFetchRoundTrip) {
  auto pyramid = SmallPyramid();
  std::string dir = testing::TempDir() + "/fc_disk_store_test";
  std::filesystem::remove_all(dir);
  auto store = DiskTileStore::Open(dir, pyramid->spec());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Contains({0, 0, 0}));
  ASSERT_TRUE((*store)->SavePyramid(*pyramid).ok());
  EXPECT_TRUE((*store)->Contains({0, 0, 0}));
  auto tile = (*store)->Fetch({2, 3, 1});
  ASSERT_TRUE(tile.ok());
  auto original = pyramid->GetTile({2, 3, 1});
  ASSERT_TRUE(original.ok());
  EXPECT_EQ((*tile)->AttrData(0), (*original)->AttrData(0));
  std::filesystem::remove_all(dir);
}

TEST(DiskTileStoreTest, CompressedCodecRoundTripsWithinTolerance) {
  auto pyramid = SmallPyramid();
  std::string dir = testing::TempDir() + "/fc_disk_store_compressed";
  std::filesystem::remove_all(dir);
  const double step = 1e-3;
  auto store = DiskTileStore::Open(dir, pyramid->spec(),
                                   {TileEncoding::kDeltaVarint, step});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->SavePyramid(*pyramid).ok());
  auto tile = (*store)->Fetch({2, 3, 1});
  ASSERT_TRUE(tile.ok());
  auto original = pyramid->GetTile({2, 3, 1});
  ASSERT_TRUE(original.ok());
  for (std::int64_t y = 0; y < (*tile)->height(); ++y) {
    for (std::int64_t x = 0; x < (*tile)->width(); ++x) {
      EXPECT_NEAR((*tile)->At(0, x, y), (*original)->At(0, x, y), step / 2 + 1e-12);
    }
  }
  // The smooth test raster compresses well below raw size on disk.
  std::uintmax_t raw_bytes = 0;
  for (const auto& key : pyramid->spec().AllKeys()) {
    raw_bytes += (*pyramid->GetTile(key))->SizeBytes();
  }
  EXPECT_LT(std::filesystem::file_size((*store)->PackedExtentPath()),
            raw_bytes);
  std::filesystem::remove_all(dir);
}

// A tile blob an earlier build packed in format v2 still fetches. v2
// differs from v3 only in its version and trailer, so the blob keeps its
// length and its slot in the extent.
TEST(DiskTileStoreTest, ReadsFormatV2PackedBlobs) {
  auto pyramid = SmallPyramid();
  std::string dir = testing::TempDir() + "/fc_disk_store_v2";
  std::filesystem::remove_all(dir);
  auto original = pyramid->GetTile({2, 3, 1});
  ASSERT_TRUE(original.ok());
  std::string path;
  {
    auto writer = DiskTileStore::Open(dir, pyramid->spec());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->SavePyramid(*pyramid).ok());
    path = (*writer)->PackedExtentPath();
  }
  std::string extent;
  {
    std::ifstream in(path, std::ios::binary);
    extent.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  const std::string v3 = TileCodec().Encode(**original);
  const std::size_t slot = extent.find(v3);
  ASSERT_NE(slot, std::string::npos);
  const std::string v2 = AsV2(v3);
  ASSERT_NE(v2, v3);
  extent.replace(slot, v3.size(), v2);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << extent;

  auto store = DiskTileStore::Open(dir, pyramid->spec());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->packed_loaded());
  auto tile = (*store)->Fetch({2, 3, 1});
  ASSERT_TRUE(tile.ok()) << tile.status();
  ExpectSameCells(**tile, **original);
  std::filesystem::remove_all(dir);
}

TEST(DiskTileStoreTest, FetchMissingIsNotFound) {
  std::string dir = testing::TempDir() + "/fc_disk_store_empty";
  std::filesystem::remove_all(dir);
  tiles::PyramidSpec spec;
  spec.num_levels = 1;
  spec.tile_width = 8;
  spec.tile_height = 8;
  spec.base_width = 8;
  spec.base_height = 8;
  auto store = DiskTileStore::Open(dir, spec);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Fetch({0, 0, 0}).status().IsNotFound());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fc::storage
