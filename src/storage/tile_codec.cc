#include "storage/tile_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace fc::storage {

namespace {

constexpr char kMagic[4] = {'F', 'C', 'T', 'L'};
constexpr std::uint32_t kVersion = 3;
// Format v2 differs from v3 only in its trailer, FNV-1a instead of XXH64.
// Decode still reads it, so tile files and packed extents written by
// earlier builds keep working.
constexpr std::uint32_t kFnvVersion = 2;

constexpr char kRefinementMagic[4] = {'F', 'C', 'T', 'R'};
constexpr std::uint32_t kRefinementVersion = 2;

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

// Most bytes one LEB128 varint of a u64 takes (ceil(64 / 7)).
constexpr std::size_t kMaxVarintBytes = 10;

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t Load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// XXH64 with seed 0: the trailing 8 bytes of a format-v3 blob and of a
// refinement chunk. Four independent 8-byte lanes absorb each 32-byte
// stripe, so the hash runs at word speed.
constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

std::uint64_t XxRound(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxPrime2, 31) * kXxPrime1;
}

std::uint64_t XxMerge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ XxRound(0, acc)) * kXxPrime1 + kXxPrime4;
}

std::uint64_t Xxh64(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  const auto* const end = p + data.size();
  std::uint64_t h;
  if (data.size() >= 32) {
    std::uint64_t v1 = kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = kXxPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxPrime1;
    do {
      v1 = XxRound(v1, Load64(p));
      v2 = XxRound(v2, Load64(p + 8));
      v3 = XxRound(v3, Load64(p + 16));
      v4 = XxRound(v4, Load64(p + 24));
      p += 32;
    } while (end - p >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMerge(h, v1);
    h = XxMerge(h, v2);
    h = XxMerge(h, v3);
    h = XxMerge(h, v4);
  } else {
    h = kXxPrime5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ XxRound(0, Load64(p)), 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (Load32(p) * kXxPrime1), 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (*p * kXxPrime5), 11) * kXxPrime1;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

// FNV-1a 64-bit: the trailer of format-v2 blobs, verified only when
// reading one.
std::uint64_t Fnv1a(std::string_view data) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t StoredChecksum(std::string_view bytes) {
  std::uint64_t stored;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  return stored;
}

// Bytes a varint takes by the bit width of its value: one per started 7-bit
// group, and one for 0.
constexpr auto kVarintSizeByWidth = [] {
  std::array<std::uint8_t, 65> sizes{};
  for (std::size_t width = 0; width < sizes.size(); ++width) {
    sizes[width] = static_cast<std::uint8_t>(width == 0 ? 1 : (width + 6) / 7);
  }
  return sizes;
}();

// Bytes the varint of `v` takes. Indexing by the width of `v | 1` prices 0
// as one byte without a zero test, which would mispredict where zero and
// nonzero values mix.
std::size_t VarintSize(std::uint64_t v) {
  return kVarintSizeByWidth[std::bit_width(v | 1)];
}

// The continuation bits of the first eight bytes of an n-byte varint, by n:
// 0x80 on every byte but the last.
constexpr auto kContinuationBits = [] {
  std::array<std::uint64_t, kMaxVarintBytes + 1> bits{};
  for (std::size_t n = 2; n < bits.size(); ++n) {
    for (std::size_t byte = 0; byte + 1 < n && byte < 8; ++byte) {
      bits[n] |= std::uint64_t{0x80} << (8 * byte);
    }
  }
  return bits;
}();

// Zigzag over two's-complement bits: small values of either sign map to
// small codes.
std::uint64_t ZigZag(std::uint64_t v) { return (v << 1) ^ (0 - (v >> 63)); }

std::uint64_t UnZigZag(std::uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

// Writes the LEB128 varint of `v` at `p` and returns the byte after it. It
// stores up to kMaxVarintBytes bytes at `p` whatever the varint's length;
// the bytes past the varint are scratch that the next write overwrites, so
// the buffer must hold kMaxVarintBytes bytes at `p`. One and two bytes are
// written without a branch on which, under one test that predicts well on
// L2 deltas (about half of them take two bytes). Longer varints spread the
// low 56 bits' eight 7-bit groups into one 8-byte store with the
// continuation bits of their length, then store bytes 9 and 10, which hold
// the top 8 bits: byte 9 is those bits as they are (its continuation bit is
// bit 63 of `v`, set exactly when a tenth byte follows), byte 10 is bit 63.
char* PutVarint(char* p, std::uint64_t v) {
  if (v < (std::uint64_t{1} << 14)) {
    const std::uint64_t high = v >> 7;
    const std::uint64_t two = high != 0;
    const auto word =
        static_cast<std::uint16_t>((v & 0x7f) | (two << 7) | (high << 8));
    std::memcpy(p, &word, sizeof(word));
    return p + 1 + two;
  }
  std::uint64_t groups = v & ((std::uint64_t{1} << 56) - 1);
  groups = ((groups & 0x00FFFFFFF0000000ull) << 4) |
           (groups & 0x000000000FFFFFFFull);
  groups = ((groups & 0x0FFFC0000FFFC000ull) << 2) |
           (groups & 0x00003FFF00003FFFull);
  groups = ((groups & 0x3F803F803F803F80ull) << 1) |
           (groups & 0x007F007F007F007Full);
  const std::size_t size = VarintSize(v);
  groups |= kContinuationBits[size];
  std::memcpy(p, &groups, sizeof(groups));
  const std::uint64_t top = v >> 56;
  const auto tail = static_cast<std::uint16_t>(top | ((top >> 7) << 8));
  std::memcpy(p + sizeof(groups), &tail, sizeof(tail));
  return p + size;
}

// A blob under construction: written at a cursor into a buffer sized for
// the worst case, never zero-filled, then copied out once at its exact
// size, so a finished blob's capacity is its size.
class BlobWriter {
 public:
  explicit BlobWriter(std::size_t max_bytes)
      : buffer_(std::make_unique_for_overwrite<char[]>(max_bytes)),
        end_(buffer_.get()) {}

  void Raw(const void* data, std::size_t len) {
    std::memcpy(end_, data, len);
    end_ += len;
  }

  template <typename T>
  void Value(T value) {
    Raw(&value, sizeof(T));
  }

  // The key and dimension fields both chunk formats carry:
  // level | x y width height | nattr.
  void TileHeader(const tiles::Tile& tile) {
    Value(static_cast<std::int32_t>(tile.key().level));
    Value(tile.key().x);
    Value(tile.key().y);
    Value(tile.width());
    Value(tile.height());
    Value(static_cast<std::uint32_t>(tile.num_attrs()));
  }

  // One varint-coded attribute: the u64 byte-length prefix, then the
  // zigzag/LEB128 varint of value(i) for i in [0, count). Needs
  // kAttrLengthBytes + count * kMaxVarintBytes bytes of room.
  template <typename ValueFn>
  void VarintAttr(std::size_t count, ValueFn value) {
    char* const prefix = end_;
    char* const begin = prefix + kAttrLengthBytes;
    end_ = begin;
    for (std::size_t i = 0; i < count; ++i) {
      end_ = PutVarint(end_, ZigZag(value(i)));
    }
    const auto len = static_cast<std::uint64_t>(end_ - begin);
    std::memcpy(prefix, &len, sizeof(len));
  }

  // Appends the XXH64 of everything written and returns the bytes.
  std::string Finish() {
    const std::uint64_t sum =
        Xxh64(std::string_view(buffer_.get(), end_ - buffer_.get()));
    Value(sum);
    return std::string(buffer_.get(), end_);
  }

 private:
  std::unique_ptr<char[]> buffer_;
  char* end_;
};

// Deltas between quanta are computed in uint64: two saturated quanta at
// opposite lattice bounds differ by 2^63, which overflows int64 (UB) but
// wraps cleanly in unsigned arithmetic — and the decode-side addition wraps
// back by the same modulus, so round trips are exact.
std::uint64_t WrappingDelta(std::int64_t q, std::int64_t prev) {
  return static_cast<std::uint64_t>(q) - static_cast<std::uint64_t>(prev);
}

class Reader {
 public:
  explicit Reader(std::string_view bytes, std::size_t pos = 0)
      : bytes_(bytes), pos_(pos) {}

  /// Checks that `len` bytes remain, steps over them, and returns where
  /// they start.
  Result<const char*> Take(std::size_t len) {
    if (len > remaining()) return Status::Corruption("tile blob truncated");
    const char* at = bytes_.data() + pos_;
    pos_ += len;
    return at;
  }

  Status ReadRaw(void* dst, std::size_t len) {
    FC_ASSIGN_OR_RETURN(const char* at, Take(len));
    std::memcpy(dst, at, len);
    return Status::OK();
  }

  template <typename T>
  Result<T> ReadValue() {
    T value{};
    FC_RETURN_IF_ERROR(ReadRaw(&value, sizeof(T)));
    return value;
  }

  Result<std::string> ReadString() {
    FC_ASSIGN_OR_RETURN(auto len, ReadValue<std::uint32_t>());
    if (len > 1 << 20) return Status::Corruption("unreasonable string length");
    FC_ASSIGN_OR_RETURN(const char* at, Take(len));
    return std::string(at, len);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Reads one varint-coded attribute of `count` values: the u64 byte-length
// prefix, checked once against the bytes that remain, then exactly `count`
// zigzag/LEB128 varints that must fill it. apply(i, value) receives each
// decoded value. Three paths, none reading past the attribute:
//  * eight one-byte varints (no continuation bit in the next eight bytes)
//    decode as one word, so a run of them carries no dependency from one
//    byte's value to the next byte's address — coarse bases are almost
//    all one-byte deltas;
//  * with two bytes left, a one- or two-byte varint (not both bytes
//    continued) decodes without a branch on which — about half of the L2
//    deltas take two bytes, and a branch on the length would mispredict;
//  * everything else takes the checked byte loop.
template <typename ApplyFn>
Status DecodeVarintAttr(Reader* reader, std::size_t count, ApplyFn apply) {
  FC_ASSIGN_OR_RETURN(auto attr_len, reader->ReadValue<std::uint64_t>());
  FC_ASSIGN_OR_RETURN(const char* begin, reader->Take(attr_len));
  const auto* p = reinterpret_cast<const unsigned char*>(begin);
  const auto* const end = p + attr_len;
  std::size_t i = 0;
  while (i < count) {
    if (count - i >= 8 && end - p >= 8) {
      const std::uint64_t word = Load64(p);
      if ((word & 0x8080808080808080ull) == 0) {
        for (std::size_t k = 0; k < 8; ++k) {
          apply(i + k, UnZigZag((word >> (8 * k)) & 0xff));
        }
        i += 8;
        p += 8;
        continue;
      }
    }
    std::uint64_t v;
    if (end - p >= 2 && (p[0] & p[1] & 0x80) == 0) {
      const std::uint64_t two = p[0] >> 7;
      v = (p[0] & 0x7fu) | ((std::uint64_t{p[1]} << 7) & (0 - two));
      p += 1 + two;
    } else {
      if (p == end) return Status::Corruption("varint truncated");
      std::uint64_t byte = *p++;
      v = byte & 0x7f;
      for (int shift = 7; byte >= 0x80; shift += 7) {
        if (shift > 63) return Status::Corruption("varint overlong");
        if (p == end) return Status::Corruption("varint truncated");
        byte = *p++;
        v |= (byte & 0x7f) << shift;
      }
    }
    apply(i, UnZigZag(v));
    ++i;
  }
  if (p != end) {
    return Status::Corruption("varint attribute length mismatch");
  }
  return Status::OK();
}

// Quantized value domain for kDeltaVarint: clamp before rounding so
// extreme values cannot overflow the int64 lattice (infinities saturate).
// NaN has no lattice point and maps to 0 — kDeltaVarint is for finite
// rasters, use a lossless encoding when non-finite cells must survive.
constexpr double kMaxQuantum = 4.611686018427387904e18;  // 2^62

// Rounds half away from zero, the lattice point std::llround picks:
// truncate, then step away from zero when the dropped fraction is at least
// one half. The fraction q - trunc(q) is exact in double arithmetic. The
// step is added as two comparisons rather than chosen by a branch: at fine
// steps the fraction is effectively random, and a branch on it mispredicts
// about every other cell. The clamp and the NaN rule are selects too.
std::int64_t Quantize(double v, double step) {
  double q = std::clamp(v / step, -kMaxQuantum, kMaxQuantum);
  q = std::isnan(q) ? 0.0 : q;
  const auto t = static_cast<std::int64_t>(q);
  const double fraction = q - static_cast<double>(t);
  return t + (fraction >= 0.5) - (fraction <= -0.5);
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

// Fewest payload bytes one cell of `encoding` takes: a blob whose header
// claims more cells than the bytes left could hold is corrupt.
std::size_t MinCellBytes(TileEncoding encoding) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      return sizeof(double);
    case TileEncoding::kFloat32:
      return sizeof(float);
    case TileEncoding::kDeltaVarint:
      return 1;
  }
  return 1;
}

// Most payload bytes Encode writes for `tile` in `encoding`: every varint at
// its longest, which also leaves room for PutVarint's wide stores.
std::size_t MaxPayloadBytes(const tiles::Tile& tile, TileEncoding encoding) {
  const auto cells = static_cast<std::size_t>(tile.cell_count());
  switch (encoding) {
    case TileEncoding::kRawF64:
      return tile.num_attrs() * cells * sizeof(double);
    case TileEncoding::kFloat32:
      return tile.num_attrs() * cells * sizeof(float);
    case TileEncoding::kDeltaVarint:
      return tile.num_attrs() * (kAttrLengthBytes + cells * kMaxVarintBytes);
  }
  return 0;
}

void EncodePayload(const tiles::Tile& tile, const TileCodecOptions& options,
                   BlobWriter* out) {
  switch (options.encoding) {
    case TileEncoding::kRawF64:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        const auto& data = tile.AttrData(a);
        out->Raw(data.data(), data.size() * sizeof(double));
      }
      return;
    case TileEncoding::kFloat32:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        for (double v : tile.AttrData(a)) out->Value(ToFloatSaturating(v));
      }
      return;
    case TileEncoding::kDeltaVarint:
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        const double* cells = tile.AttrData(a).data();
        const double step = options.quant_step;
        std::int64_t prev = 0;
        out->VarintAttr(tile.AttrData(a).size(), [&](std::size_t i) {
          const std::int64_t q = Quantize(cells[i], step);
          const std::uint64_t delta = WrappingDelta(q, prev);
          prev = q;
          return delta;
        });
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
        auto& buf = tile->MutableAttrData(a);
        FC_ASSIGN_OR_RETURN(const char* p,
                            reader->Take(buf.size() * sizeof(float)));
        for (auto& v : buf) {
          float f;
          std::memcpy(&f, p, sizeof(f));
          p += sizeof(f);
          v = static_cast<double>(f);
        }
      }
      return Status::OK();
    case TileEncoding::kDeltaVarint:
      if (!(quant_step > 0.0)) {
        return Status::Corruption("non-positive quantization step");
      }
      for (std::size_t a = 0; a < tile->num_attrs(); ++a) {
        double* cells = tile->MutableAttrData(a).data();
        std::uint64_t prev = 0;
        FC_RETURN_IF_ERROR(DecodeVarintAttr(
            reader, tile->MutableAttrData(a).size(),
            [&](std::size_t i, std::uint64_t delta) {
              prev += delta;
              cells[i] =
                  static_cast<double>(static_cast<std::int64_t>(prev)) *
                  quant_step;
            }));
      }
      return Status::OK();
  }
  return Status::Corruption("unknown tile encoding");
}

// What one attribute's cells add to the planned chunk sizes.
struct PlannedBytes {
  std::size_t full = 0;        ///< kDeltaVarint full blobs only.
  std::size_t base = 0;        ///< Progressive plans only.
  std::size_t refinement = 0;  ///< Progressive plans only.
};

// PlanProgressive's loop over one attribute: the same arithmetic as
// EncodePayload, DecodePayload and the refinement's bit-domain residuals,
// minus the bytes. Appends what Decode rebuilds from the full blob to
// `exact_out` (lossy encodings only) and from the base to `coarse_out`
// (progressive plans only), so each planned column is written once. One
// instantiation per final encoding and progressive flag, so no cell tests
// either.
template <TileEncoding kEncoding, bool kProgressive>
PlannedBytes PlanCells(const std::vector<double>& cells, double quant_step,
                       double base_step, std::vector<double>* exact_out,
                       std::vector<double>* coarse_out) {
  std::size_t full = 0;
  std::size_t base = 0;
  std::size_t refinement = 0;
  std::int64_t prev = 0;
  std::int64_t prev_base = 0;
  for (const double v : cells) {
    double final_value = v;
    if constexpr (kEncoding == TileEncoding::kFloat32) {
      final_value = static_cast<double>(ToFloatSaturating(v));
      exact_out->push_back(final_value);
    } else if constexpr (kEncoding == TileEncoding::kDeltaVarint) {
      const std::int64_t q = Quantize(v, quant_step);
      full += VarintSize(ZigZag(WrappingDelta(q, prev)));
      prev = q;
      final_value = static_cast<double>(q) * quant_step;
      exact_out->push_back(final_value);
    }
    if constexpr (kProgressive) {
      const std::int64_t q = Quantize(v, base_step);
      base += VarintSize(ZigZag(WrappingDelta(q, prev_base)));
      prev_base = q;
      const double base_value = static_cast<double>(q) * base_step;
      coarse_out->push_back(base_value);
      refinement += VarintSize(ZigZag(BitsOf(final_value) - BitsOf(base_value)));
    }
  }
  return {full, base, refinement};
}

using PlanKernel = PlannedBytes (*)(const std::vector<double>&, double, double,
                                    std::vector<double>*, std::vector<double>*);

// The plan loop for `encoding` and `progressive`, or null when no cell needs
// one: a lossless all-or-nothing plan is priced from the dims alone.
PlanKernel PlanKernelFor(TileEncoding encoding, bool progressive) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      return progressive ? PlanCells<TileEncoding::kRawF64, true> : nullptr;
    case TileEncoding::kFloat32:
      return progressive ? PlanCells<TileEncoding::kFloat32, true>
                         : PlanCells<TileEncoding::kFloat32, false>;
    case TileEncoding::kDeltaVarint:
      return progressive ? PlanCells<TileEncoding::kDeltaVarint, true>
                         : PlanCells<TileEncoding::kDeltaVarint, false>;
  }
  return nullptr;
}

struct BlobPrefix {
  std::uint32_t version = 0;
  TileEncoding encoding = TileEncoding::kRawF64;
};

/// Reads and validates magic | version | encoding. Checked before the
/// checksum so a format-v1 blob fails as "unsupported tile version", not as
/// phantom corruption.
Result<BlobPrefix> ReadHeaderPrefix(Reader* reader) {
  char magic[4];
  FC_RETURN_IF_ERROR(reader->ReadRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad tile magic");
  }
  BlobPrefix prefix;
  FC_ASSIGN_OR_RETURN(prefix.version, reader->ReadValue<std::uint32_t>());
  if (prefix.version != kVersion && prefix.version != kFnvVersion) {
    return Status::Corruption("unsupported tile version");
  }
  FC_ASSIGN_OR_RETURN(auto encoding, reader->ReadValue<std::uint8_t>());
  if (encoding > static_cast<std::uint8_t>(TileEncoding::kDeltaVarint)) {
    return Status::Corruption("unknown tile encoding");
  }
  prefix.encoding = static_cast<TileEncoding>(encoding);
  return prefix;
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
  BlobWriter out(BlobOverheadBytes(tile, options_.encoding) +
                 MaxPayloadBytes(tile, options_.encoding));
  out.Raw(kMagic, sizeof(kMagic));
  out.Value(kVersion);
  out.Value(static_cast<std::uint8_t>(options_.encoding));
  out.TileHeader(tile);
  for (const auto& name : tile.attr_names()) {
    out.Value(static_cast<std::uint32_t>(name.size()));
    out.Raw(name.data(), name.size());
  }
  if (options_.encoding == TileEncoding::kDeltaVarint) {
    out.Value(options_.quant_step);
  }
  EncodePayload(tile, options_, &out);
  return out.Finish();
}

Result<TileEncoding> TileCodec::PeekEncoding(std::string_view bytes) {
  Reader reader(bytes);
  FC_ASSIGN_OR_RETURN(auto prefix, ReadHeaderPrefix(&reader));
  return prefix.encoding;
}

Result<tiles::Tile> TileCodec::Decode(std::string_view bytes) {
  Reader reader(bytes);
  FC_ASSIGN_OR_RETURN(auto prefix, ReadHeaderPrefix(&reader));
  const TileEncoding encoding = prefix.encoding;

  // With the format structurally identified, verify the trailing checksum
  // before trusting the rest: it catches mid-blob corruption the field
  // checks below would misparse. The rest parses the checksummed body only.
  if (bytes.size() < reader.pos() + sizeof(std::uint64_t)) {
    return Status::Corruption("tile blob truncated");
  }
  const std::string_view body =
      bytes.substr(0, bytes.size() - sizeof(std::uint64_t));
  const std::uint64_t sum =
      prefix.version == kFnvVersion ? Fnv1a(body) : Xxh64(body);
  if (StoredChecksum(bytes) != sum) {
    return Status::Corruption("tile checksum mismatch");
  }
  reader = Reader(body, reader.pos());

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
  // Bound the claimed cell count by the payload bytes left before the
  // trailer BEFORE allocating: a forged header must not size the tile.
  // Every cell takes at least MinCellBytes, and every varint-coded
  // attribute a length prefix too. Unsigned and division-only, so no
  // header value can overflow it.
  const std::size_t prefix_bytes =
      encoding == TileEncoding::kDeltaVarint ? nattr * kAttrLengthBytes : 0;
  if (prefix_bytes > reader.remaining()) {
    return Status::Corruption("tile blob truncated");
  }
  const std::uint64_t max_cells =
      (reader.remaining() - prefix_bytes) / MinCellBytes(encoding) / nattr;
  if (static_cast<std::uint64_t>(width) > max_cells ||
      static_cast<std::uint64_t>(height) >
          max_cells / static_cast<std::uint64_t>(width)) {
    return Status::Corruption("tile dimensions exceed the blob");
  }
  auto tile_result = tiles::Tile::Make(tiles::TileKey{level, x, y}, width,
                                       height, std::move(names));
  if (!tile_result.ok()) {
    return tile_result.status().WithContext("decoding tile");
  }
  tiles::Tile tile = std::move(tile_result).value();
  FC_RETURN_IF_ERROR(DecodePayload(&reader, encoding, quant_step, &tile));
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after tile payload");
  }
  return tile;
}

ProgressiveEncoding TileCodec::EncodeProgressive(const tiles::Tile& tile) const {
  ProgressiveEncoding out;
  std::string full = Encode(tile);

  TileCodecOptions base_options;
  base_options.encoding = TileEncoding::kDeltaVarint;
  base_options.quant_step = options_.progressive_base_step;
  out.base = TileCodec(base_options).Encode(tile);
  if (out.base.size() >= full.size()) {
    // The coarse base would not undercut the exact payload (tiny or
    // incompressible tile): ship the exact blob as the base, no refinement.
    out.base = std::move(full);
    return out;
  }

  // The refinement reproduces what a client decodes from the all-or-nothing
  // blob — including this codec's own lossiness — not the pre-encode cells.
  auto final_tile = Decode(full);
  auto base_tile = Decode(out.base);
  FC_CHECK_MSG(final_tile.ok() && base_tile.ok(),
               "progressive encode cannot fail to re-decode its own blobs");

  // The residuals are varint-coded attributes, as a kDeltaVarint payload.
  BlobWriter ref(kRefinementOverheadBytes +
                 MaxPayloadBytes(tile, TileEncoding::kDeltaVarint));
  ref.Raw(kRefinementMagic, sizeof(kRefinementMagic));
  ref.Value(kRefinementVersion);
  ref.Value(static_cast<std::uint8_t>(options_.encoding));
  ref.Value(StoredChecksum(out.base));
  ref.TileHeader(tile);
  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    const double* final_data = final_tile->AttrData(a).data();
    const double* base_data = base_tile->AttrData(a).data();
    ref.VarintAttr(final_tile->AttrData(a).size(), [&](std::size_t i) {
      return BitsOf(final_data[i]) - BitsOf(base_data[i]);
    });
  }
  out.refinement = ref.Finish();
  return out;
}

ProgressivePlan TileCodec::PlanProgressive(const tiles::TilePtr& tile,
                                           bool progressive) const {
  FC_CHECK(tile != nullptr);
  const tiles::Tile& in = *tile;
  const TileEncoding encoding = options_.encoding;
  const std::size_t nattr = in.num_attrs();

  // Decoded payloads are built column by column into fresh tiles: Decode
  // rebuilds the same key, dims and names. A lossless decode IS the tile.
  const bool want_exact = !lossless();
  std::vector<std::vector<double>> exact_columns(want_exact ? nattr : 0);
  std::vector<std::vector<double>> coarse_columns(progressive ? nattr : 0);
  // Fixed-width payloads are priced from the dims; varint-coded ones start
  // at their length prefixes and the loops add each cell's varint.
  std::size_t full_bytes = BlobOverheadBytes(in, encoding);
  full_bytes += encoding == TileEncoding::kDeltaVarint
                    ? nattr * kAttrLengthBytes
                    : MaxPayloadBytes(in, encoding);
  std::size_t base_bytes = BlobOverheadBytes(in, TileEncoding::kDeltaVarint) +
                           nattr * kAttrLengthBytes;
  std::size_t refinement_bytes =
      kRefinementOverheadBytes + nattr * kAttrLengthBytes;
  if (const PlanKernel kernel = PlanKernelFor(encoding, progressive)) {
    for (std::size_t a = 0; a < nattr; ++a) {
      const std::vector<double>& cells = in.AttrData(a);
      std::vector<double>* exact_out = nullptr;
      std::vector<double>* coarse_out = nullptr;
      if (want_exact) {
        exact_out = &exact_columns[a];
        exact_out->reserve(cells.size());
      }
      if (progressive) {
        coarse_out = &coarse_columns[a];
        coarse_out->reserve(cells.size());
      }
      const PlannedBytes bytes =
          kernel(cells, options_.quant_step, options_.progressive_base_step,
                 exact_out, coarse_out);
      full_bytes += bytes.full;
      base_bytes += bytes.base;
      refinement_bytes += bytes.refinement;
    }
  }
  const auto adopt = [&in](std::vector<std::vector<double>> columns) {
    auto made = tiles::Tile::FromColumns(in.key(), in.width(), in.height(),
                                         in.attr_names(), std::move(columns));
    FC_CHECK(made.ok());
    return std::make_shared<const tiles::Tile>(std::move(made).value());
  };

  ProgressivePlan plan;
  plan.full_bytes = full_bytes;
  plan.exact = want_exact ? adopt(std::move(exact_columns)) : tile;
  if (progressive && base_bytes < full_bytes) {
    plan.base_bytes = base_bytes;
    plan.refinement_bytes = refinement_bytes;
    plan.coarse = adopt(std::move(coarse_columns));
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
  const std::string_view body = std::string_view(refinement).substr(
      0, refinement.size() - sizeof(std::uint64_t));
  if (StoredChecksum(refinement) != Xxh64(body)) {
    return Status::Corruption("refinement checksum mismatch");
  }
  reader = Reader(body, reader.pos());

  FC_ASSIGN_OR_RETURN(auto bound_sum, reader.ReadValue<std::uint64_t>());
  if (bound_sum != StoredChecksum(base)) {
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
    double* cells = tile.MutableAttrData(a).data();
    FC_RETURN_IF_ERROR(DecodeVarintAttr(
        &reader, tile.MutableAttrData(a).size(),
        [&](std::size_t i, std::uint64_t residual) {
          cells[i] = DoubleFromBits(BitsOf(cells[i]) + residual);
        }));
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after refinement payload");
  }
  return tile;
}

std::string EncodeTile(const tiles::Tile& tile) {
  return TileCodec({TileEncoding::kRawF64}).Encode(tile);
}

Result<tiles::Tile> DecodeTile(std::string_view bytes) {
  return TileCodec::Decode(bytes);
}

}  // namespace fc::storage
