#include "storage/tile_codec.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.h"

namespace fc::storage {

namespace {

constexpr char kMagic[4] = {'F', 'C', 'T', 'L'};
constexpr std::uint32_t kVersion = 2;

constexpr char kRefinementMagic[4] = {'F', 'C', 'T', 'R'};
constexpr std::uint32_t kRefinementVersion = 1;

// Framing bytes, field for field as Encode and EncodeProgressive write them
// (PlanProgressive prices chunks from these without writing any).
// Blob: magic | version | encoding | level | x y width height | nattr
// | names | [quant_step] ... | checksum.
std::size_t BlobOverheadBytes(const tiles::Tile& tile, TileEncoding encoding) {
  std::size_t bytes = sizeof(kMagic) + sizeof(kVersion) +
                      sizeof(std::uint8_t) + sizeof(std::int32_t) +
                      4 * sizeof(std::int64_t) + sizeof(std::uint32_t) +
                      sizeof(std::uint64_t);
  for (const auto& name : tile.attr_names()) {
    bytes += sizeof(std::uint32_t) + name.size();
  }
  if (encoding == TileEncoding::kDeltaVarint) bytes += sizeof(double);
  return bytes;
}

// Refinement: magic | version | encoding | base checksum | level
// | x y width height | nattr ... | checksum.
constexpr std::size_t kRefinementOverheadBytes =
    sizeof(kRefinementMagic) + sizeof(kRefinementVersion) +
    sizeof(std::uint8_t) + sizeof(std::uint64_t) + sizeof(std::int32_t) +
    4 * sizeof(std::int64_t) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

// Each varint-coded attribute (kDeltaVarint payloads, refinement
// residuals) carries a u64 byte-length prefix.
constexpr std::size_t kAttrLengthBytes = sizeof(std::uint64_t);

// FNV-1a 64-bit over the blob contents; appended as the trailing 8 bytes.
std::uint64_t Fnv1a(const char* data, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void AppendRaw(std::string* out, const void* data, std::size_t len) {
  out->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendValue(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

void AppendVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Bytes AppendVarint writes for `v`: one per started 7-bit group.
std::size_t VarintSize(std::uint64_t v) {
  return 1 + static_cast<std::size_t>(std::bit_width(v | 1) - 1) / 7;
}

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// Deltas between quanta are computed in uint64: two saturated quanta at
// opposite lattice bounds differ by 2^63, which overflows int64 (UB) but
// wraps cleanly in unsigned arithmetic — and the decode-side addition wraps
// back by the same modulus, so round trips are exact.
std::uint64_t WrappingDelta(std::int64_t q, std::int64_t prev) {
  return static_cast<std::uint64_t>(q) - static_cast<std::uint64_t>(prev);
}

std::int64_t WrappingAdd(std::int64_t prev, std::int64_t delta) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                   static_cast<std::uint64_t>(delta));
}

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  Status ReadRaw(void* dst, std::size_t len) {
    if (pos_ + len > bytes_.size()) {
      return Status::Corruption("tile blob truncated");
    }
    std::memcpy(dst, bytes_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  template <typename T>
  Result<T> ReadValue() {
    T value;
    FC_RETURN_IF_ERROR(ReadRaw(&value, sizeof(T)));
    return value;
  }

  Result<std::string> ReadString() {
    FC_ASSIGN_OR_RETURN(auto len, ReadValue<std::uint32_t>());
    if (len > 1 << 20) return Status::Corruption("unreasonable string length");
    std::string s(len, '\0');
    FC_RETURN_IF_ERROR(ReadRaw(s.data(), len));
    return s;
  }

  Result<std::uint64_t> ReadVarint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return Status::Corruption("varint truncated");
      auto byte = static_cast<unsigned char>(bytes_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::Corruption("varint overlong");
  }

  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

// Quantized value domain for kDeltaVarint: clamp before llround so extreme
// values cannot overflow the int64 lattice (infinities saturate). NaN has
// no lattice point and would be undefined behavior in llround; it maps to
// 0 — kDeltaVarint is for finite rasters, use a lossless encoding when
// non-finite cells must survive.
constexpr double kMaxQuantum = 4.611686018427387904e18;  // 2^62

std::int64_t Quantize(double v, double step) {
  if (std::isnan(v)) return 0;
  double q = v / step;
  if (q > kMaxQuantum) q = kMaxQuantum;
  if (q < -kMaxQuantum) q = -kMaxQuantum;
  return std::llround(q);
}

// Refinement residuals live in the IEEE-754 bit domain: close doubles have
// close bit patterns (small varints), and wrapping uint64 arithmetic makes
// the round trip exact for every payload including NaN bit patterns —
// value-domain residuals could not promise that.
std::uint64_t BitsOf(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double DoubleFromBits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// Finite doubles beyond float range must saturate explicitly: the bare
// static_cast is undefined behavior for them ([conv.double]). NaN and the
// infinities are representable in float and pass through.
float ToFloatSaturating(double v) {
  if (std::isfinite(v)) {
    if (v > std::numeric_limits<float>::max()) {
      return std::numeric_limits<float>::max();
    }
    if (v < std::numeric_limits<float>::lowest()) {
      return std::numeric_limits<float>::lowest();
    }
  }
  return static_cast<float>(v);
}

void EncodePayload(const tiles::Tile& tile, const TileCodecOptions& options,
                   std::string* out) {
  switch (options.encoding) {
    case TileEncoding::kRawF64:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        const auto& data = tile.AttrData(a);
        AppendRaw(out, data.data(), data.size() * sizeof(double));
      }
      return;
    case TileEncoding::kFloat32:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        for (double v : tile.AttrData(a)) {
          AppendValue(out, ToFloatSaturating(v));
        }
      }
      return;
    case TileEncoding::kDeltaVarint:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        std::string attr;
        attr.reserve(tile.AttrData(a).size() * 2);
        std::int64_t prev = 0;
        for (double v : tile.AttrData(a)) {
          std::int64_t q = Quantize(v, options.quant_step);
          AppendVarint(&attr,
                       ZigZag(static_cast<std::int64_t>(WrappingDelta(q, prev))));
          prev = q;
        }
        AppendValue(out, static_cast<std::uint64_t>(attr.size()));
        out->append(attr);
      }
      return;
  }
}

Status DecodePayload(Reader* reader, TileEncoding encoding, double quant_step,
                     tiles::Tile* tile) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        auto& buf = tile->MutableAttrData(a);
        FC_RETURN_IF_ERROR(
            reader->ReadRaw(buf.data(), buf.size() * sizeof(double)));
      }
      return Status::OK();
    case TileEncoding::kFloat32:
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        for (auto& v : tile->MutableAttrData(a)) {
          FC_ASSIGN_OR_RETURN(auto f, reader->ReadValue<float>());
          v = static_cast<double>(f);
        }
      }
      return Status::OK();
    case TileEncoding::kDeltaVarint:
      if (!(quant_step > 0.0)) {
        return Status::Corruption("non-positive quantization step");
      }
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        FC_ASSIGN_OR_RETURN(auto attr_len, reader->ReadValue<std::uint64_t>());
        std::size_t attr_end = reader->pos() + attr_len;
        std::int64_t prev = 0;
        for (auto& v : tile->MutableAttrData(a)) {
          FC_ASSIGN_OR_RETURN(auto z, reader->ReadVarint());
          prev = WrappingAdd(prev, UnZigZag(z));
          v = static_cast<double>(prev) * quant_step;
        }
        if (reader->pos() != attr_end) {
          return Status::Corruption("delta-varint attribute length mismatch");
        }
      }
      return Status::OK();
  }
  return Status::Corruption("unknown tile encoding");
}

/// Reads and validates magic | version | encoding. Checked before the
/// checksum so a format-v1 blob fails as "unsupported tile version", not as
/// phantom corruption.
Result<TileEncoding> ReadHeaderPrefix(Reader* reader) {
  char magic[4];
  FC_RETURN_IF_ERROR(reader->ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad tile magic");
  }
  FC_ASSIGN_OR_RETURN(auto version, reader->ReadValue<std::uint32_t>());
  if (version != kVersion) {
    return Status::Corruption("unsupported tile version");
  }
  FC_ASSIGN_OR_RETURN(auto encoding, reader->ReadValue<std::uint8_t>());
  if (encoding > static_cast<std::uint8_t>(TileEncoding::kDeltaVarint)) {
    return Status::Corruption("unknown tile encoding");
  }
  return static_cast<TileEncoding>(encoding);
}

}  // namespace

const char* TileEncodingName(TileEncoding encoding) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      return "raw_f64";
    case TileEncoding::kFloat32:
      return "float32";
    case TileEncoding::kDeltaVarint:
      return "delta_varint";
  }
  return "unknown";
}

TileCodec::TileCodec(TileCodecOptions options) : options_(options) {
  if (!(options_.quant_step > 0.0)) options_.quant_step = 1e-4;
  if (!(options_.progressive_base_step > 0.0)) {
    options_.progressive_base_step = 1.0;
  }
}

std::string TileCodec::Encode(const tiles::Tile& tile) const {
  std::string out;
  out.reserve(64 + tile.SizeBytes());
  AppendRaw(&out, kMagic, sizeof(kMagic));
  AppendValue(&out, kVersion);
  AppendValue(&out, static_cast<std::uint8_t>(options_.encoding));
  AppendValue(&out, static_cast<std::int32_t>(tile.key().level));
  AppendValue(&out, tile.key().x);
  AppendValue(&out, tile.key().y);
  AppendValue(&out, tile.width());
  AppendValue(&out, tile.height());
  AppendValue(&out, static_cast<std::uint32_t>(tile.num_attrs()));
  for (const auto& name : tile.attr_names()) {
    AppendValue(&out, static_cast<std::uint32_t>(name.size()));
    AppendRaw(&out, name.data(), name.size());
  }
  if (options_.encoding == TileEncoding::kDeltaVarint) {
    AppendValue(&out, options_.quant_step);
  }
  EncodePayload(tile, options_, &out);
  AppendValue(&out, Fnv1a(out.data(), out.size()));
  return out;
}

Result<TileEncoding> TileCodec::PeekEncoding(const std::string& bytes) {
  Reader reader(bytes);
  return ReadHeaderPrefix(&reader);
}

Result<tiles::Tile> TileCodec::Decode(const std::string& bytes) {
  Reader reader(bytes);
  FC_ASSIGN_OR_RETURN(auto encoding, ReadHeaderPrefix(&reader));

  // With the format structurally identified, verify the trailing checksum
  // before trusting the rest: it catches mid-blob corruption the field
  // checks below would misparse.
  if (bytes.size() < reader.pos() + sizeof(std::uint64_t)) {
    return Status::Corruption("tile blob truncated");
  }
  std::size_t body_len = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, bytes.data() + body_len, sizeof(stored));
  if (stored != Fnv1a(bytes.data(), body_len)) {
    return Status::Corruption("tile checksum mismatch");
  }

  FC_ASSIGN_OR_RETURN(auto level, reader.ReadValue<std::int32_t>());
  FC_ASSIGN_OR_RETURN(auto x, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto y, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto width, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto height, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto nattr, reader.ReadValue<std::uint32_t>());
  if (width <= 0 || height <= 0 || nattr == 0 || nattr > 1024) {
    return Status::Corruption("implausible tile header");
  }
  std::vector<std::string> names;
  names.reserve(nattr);
  for (std::uint32_t i = 0; i < nattr; ++i) {
    FC_ASSIGN_OR_RETURN(auto name, reader.ReadString());
    names.push_back(std::move(name));
  }
  double quant_step = 0.0;
  if (encoding == TileEncoding::kDeltaVarint) {
    FC_ASSIGN_OR_RETURN(quant_step, reader.ReadValue<double>());
  }
  auto tile_result = tiles::Tile::Make(tiles::TileKey{level, x, y}, width,
                                       height, std::move(names));
  if (!tile_result.ok()) {
    return tile_result.status().WithContext("decoding tile");
  }
  tiles::Tile tile = std::move(tile_result).value();
  FC_RETURN_IF_ERROR(DecodePayload(&reader, encoding, quant_step, &tile));
  if (reader.pos() != body_len) {
    return Status::Corruption("trailing bytes after tile payload");
  }
  return tile;
}

ProgressiveEncoding TileCodec::EncodeProgressive(const tiles::Tile& tile) const {
  ProgressiveEncoding out;
  const std::string full = Encode(tile);

  TileCodecOptions base_options;
  base_options.encoding = TileEncoding::kDeltaVarint;
  base_options.quant_step = options_.progressive_base_step;
  out.base = TileCodec(base_options).Encode(tile);
  if (out.base.size() >= full.size()) {
    // The coarse base would not undercut the exact payload (tiny or
    // incompressible tile): ship the exact blob as the base, no refinement.
    out.base = full;
    return out;
  }

  // The refinement reproduces what a client decodes from the all-or-nothing
  // blob — including this codec's own lossiness — not the pre-encode cells.
  auto final_tile = Decode(full);
  auto base_tile = Decode(out.base);
  FC_CHECK_MSG(final_tile.ok() && base_tile.ok(),
               "progressive encode cannot fail to re-decode its own blobs");

  std::string ref;
  ref.reserve(64 + tile.SizeBytes());
  AppendRaw(&ref, kRefinementMagic, sizeof(kRefinementMagic));
  AppendValue(&ref, kRefinementVersion);
  AppendValue(&ref, static_cast<std::uint8_t>(options_.encoding));
  std::uint64_t base_sum;
  std::memcpy(&base_sum, out.base.data() + out.base.size() - sizeof(base_sum),
              sizeof(base_sum));
  AppendValue(&ref, base_sum);
  AppendValue(&ref, static_cast<std::int32_t>(tile.key().level));
  AppendValue(&ref, tile.key().x);
  AppendValue(&ref, tile.key().y);
  AppendValue(&ref, tile.width());
  AppendValue(&ref, tile.height());
  AppendValue(&ref, static_cast<std::uint32_t>(tile.num_attrs()));
  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    const auto& final_data = final_tile->AttrData(a);
    const auto& base_data = base_tile->AttrData(a);
    std::string attr;
    attr.reserve(final_data.size() * 2);
    for (std::size_t i = 0; i < final_data.size(); ++i) {
      std::uint64_t residual = BitsOf(final_data[i]) - BitsOf(base_data[i]);
      AppendVarint(&attr, ZigZag(static_cast<std::int64_t>(residual)));
    }
    AppendValue(&ref, static_cast<std::uint64_t>(attr.size()));
    ref.append(attr);
  }
  AppendValue(&ref, Fnv1a(ref.data(), ref.size()));
  out.refinement = std::move(ref);
  return out;
}

ProgressivePlan TileCodec::PlanProgressive(const tiles::TilePtr& tile,
                                           bool progressive) const {
  FC_CHECK(tile != nullptr);
  const tiles::Tile& in = *tile;
  const TileEncoding encoding = options_.encoding;
  const double quant_step = options_.quant_step;
  const double base_step = options_.progressive_base_step;

  // Decoded payloads are written over copies of the tile: Decode rebuilds
  // the same key, dims and names. A lossless decode IS the tile.
  std::optional<tiles::Tile> exact;
  std::optional<tiles::Tile> coarse;
  if (!lossless()) exact.emplace(in);
  if (progressive) coarse.emplace(in);

  std::size_t full_bytes = BlobOverheadBytes(in, encoding);
  std::size_t base_bytes = BlobOverheadBytes(in, TileEncoding::kDeltaVarint);
  std::size_t refinement_bytes = kRefinementOverheadBytes;
  for (std::size_t a = 0; a < in.num_attrs(); ++a) {
    const std::vector<double>& cells = in.AttrData(a);
    switch (encoding) {
      case TileEncoding::kRawF64:
        full_bytes += cells.size() * sizeof(double);
        break;
      case TileEncoding::kFloat32:
        full_bytes += cells.size() * sizeof(float);
        break;
      case TileEncoding::kDeltaVarint:
        full_bytes += kAttrLengthBytes;
        break;
    }
    base_bytes += kAttrLengthBytes;
    refinement_bytes += kAttrLengthBytes;
    double* exact_out = exact ? exact->MutableAttrData(a).data() : nullptr;
    double* coarse_out = coarse ? coarse->MutableAttrData(a).data() : nullptr;
    if (exact_out == nullptr && coarse_out == nullptr) continue;

    // The same arithmetic as EncodePayload, DecodePayload and the
    // refinement's bit-domain residuals, minus the bytes.
    std::int64_t prev = 0;
    std::int64_t prev_base = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double v = cells[i];
      double final_value = v;
      if (encoding == TileEncoding::kFloat32) {
        final_value = static_cast<double>(ToFloatSaturating(v));
      } else if (encoding == TileEncoding::kDeltaVarint) {
        const std::int64_t q = Quantize(v, quant_step);
        full_bytes += VarintSize(
            ZigZag(static_cast<std::int64_t>(WrappingDelta(q, prev))));
        prev = q;
        final_value = static_cast<double>(q) * quant_step;
      }
      if (exact_out != nullptr) exact_out[i] = final_value;
      if (coarse_out == nullptr) continue;

      const std::int64_t q = Quantize(v, base_step);
      base_bytes += VarintSize(
          ZigZag(static_cast<std::int64_t>(WrappingDelta(q, prev_base))));
      prev_base = q;
      const double base_value = static_cast<double>(q) * base_step;
      coarse_out[i] = base_value;
      refinement_bytes += VarintSize(ZigZag(
          static_cast<std::int64_t>(BitsOf(final_value) - BitsOf(base_value))));
    }
  }

  ProgressivePlan plan;
  plan.full_bytes = full_bytes;
  plan.exact = exact ? std::make_shared<const tiles::Tile>(std::move(*exact))
                     : tile;
  if (progressive && base_bytes < full_bytes) {
    plan.base_bytes = base_bytes;
    plan.refinement_bytes = refinement_bytes;
    plan.coarse = std::make_shared<const tiles::Tile>(std::move(*coarse));
  } else {
    // One chunk: all-or-nothing mode, or EncodeProgressive's degenerate
    // rule (the exact blob ships as the base).
    plan.base_bytes = full_bytes;
    plan.coarse = plan.exact;
  }
  return plan;
}

Result<tiles::Tile> TileCodec::Reassemble(const std::string& base,
                                          const std::string& refinement) {
  FC_ASSIGN_OR_RETURN(auto tile, Decode(base));
  if (refinement.empty()) return tile;  // base already carries the exact payload

  Reader reader(refinement);
  char magic[4];
  FC_RETURN_IF_ERROR(reader.ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kRefinementMagic, sizeof(kRefinementMagic)) != 0) {
    return Status::Corruption("bad refinement magic");
  }
  FC_ASSIGN_OR_RETURN(auto version, reader.ReadValue<std::uint32_t>());
  if (version != kRefinementVersion) {
    return Status::Corruption("unsupported refinement version");
  }
  FC_ASSIGN_OR_RETURN(auto encoding, reader.ReadValue<std::uint8_t>());
  if (encoding > static_cast<std::uint8_t>(TileEncoding::kDeltaVarint)) {
    return Status::Corruption("unknown refinement encoding");
  }

  // Verify the refinement's own trailing checksum before trusting the rest,
  // mirroring Decode: corruption anywhere in the chunk must fail here, never
  // surface as silently wrong residuals.
  if (refinement.size() < reader.pos() + sizeof(std::uint64_t)) {
    return Status::Corruption("refinement chunk truncated");
  }
  std::size_t body_len = refinement.size() - sizeof(std::uint64_t);
  std::uint64_t stored;
  std::memcpy(&stored, refinement.data() + body_len, sizeof(stored));
  if (stored != Fnv1a(refinement.data(), body_len)) {
    return Status::Corruption("refinement checksum mismatch");
  }

  FC_ASSIGN_OR_RETURN(auto bound_sum, reader.ReadValue<std::uint64_t>());
  std::uint64_t base_sum;
  std::memcpy(&base_sum, base.data() + base.size() - sizeof(base_sum),
              sizeof(base_sum));
  if (bound_sum != base_sum) {
    return Status::Corruption("refinement does not match base chunk");
  }

  FC_ASSIGN_OR_RETURN(auto level, reader.ReadValue<std::int32_t>());
  FC_ASSIGN_OR_RETURN(auto x, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto y, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto width, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto height, reader.ReadValue<std::int64_t>());
  FC_ASSIGN_OR_RETURN(auto nattr, reader.ReadValue<std::uint32_t>());
  if (level != tile.key().level || x != tile.key().x || y != tile.key().y ||
      width != tile.width() || height != tile.height() ||
      nattr != tile.num_attrs()) {
    return Status::Corruption("refinement/base tile header mismatch");
  }

  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    FC_ASSIGN_OR_RETURN(auto attr_len, reader.ReadValue<std::uint64_t>());
    std::size_t attr_end = reader.pos() + attr_len;
    for (auto& v : tile.MutableAttrData(a)) {
      FC_ASSIGN_OR_RETURN(auto z, reader.ReadVarint());
      v = DoubleFromBits(BitsOf(v) +
                         static_cast<std::uint64_t>(UnZigZag(z)));
    }
    if (reader.pos() != attr_end) {
      return Status::Corruption("refinement attribute length mismatch");
    }
  }
  if (reader.pos() != body_len) {
    return Status::Corruption("trailing bytes after refinement payload");
  }
  return tile;
}

std::string EncodeTile(const tiles::Tile& tile) {
  return TileCodec({TileEncoding::kRawF64}).Encode(tile);
}

Result<tiles::Tile> DecodeTile(const std::string& bytes) {
  return TileCodec::Decode(bytes);
}

}  // namespace fc::storage
