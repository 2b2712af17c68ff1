#include "storage/tile_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/tile_codec_kernels.h"

// The AVX-512VL kernels carry a function-level target attribute, so the
// rest of the build keeps its baseline instruction set and the process runs
// them only on a CPU that reports every feature the attribute names.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define FC_CODEC_AVX512_TARGET                                          \
  __attribute__((target("avx512f,avx512vl,avx512dq,avx512cd,avx512bw," \
                        "avx512vbmi2,bmi2")))
#endif

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

  /// A varint-coded attribute's bytes: its u64 byte-length prefix, checked
  /// once against the bytes that remain, then that many bytes.
  Result<std::string_view> TakeVarintAttr() {
    FC_ASSIGN_OR_RETURN(auto len, ReadValue<std::uint64_t>());
    FC_ASSIGN_OR_RETURN(const char* at, Take(len));
    return std::string_view(at, len);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// One turn of the varint reader over an attribute [p, end) of `count`
// zigzag/LEB128 varints, `i` of them read: passes what it decodes to
// apply(index, value), advances `p` and `i`, and returns null or a
// Corruption message. Three paths, none reading past `end`:
//  * eight one-byte varints (no continuation bit in the next eight bytes)
//    decode as one word, so a run of them carries no dependency from one
//    byte's value to the next byte's address — coarse bases are almost
//    all one-byte deltas;
//  * with two bytes left, a one- or two-byte varint (not both bytes
//    continued) decodes without a branch on which — about half of the L2
//    deltas take two bytes, and a branch on the length would mispredict;
//  * everything else takes the checked byte loop.
template <typename ApplyFn>
inline const char* VarintStep(const unsigned char*& p,
                              const unsigned char* end, std::size_t& i,
                              std::size_t count, ApplyFn& apply) {
  if (count - i >= 8 && end - p >= 8) {
    const std::uint64_t word = Load64(p);
    if ((word & 0x8080808080808080ull) == 0) {
      for (std::size_t k = 0; k < 8; ++k) {
        apply(i + k, UnZigZag((word >> (8 * k)) & 0xff));
      }
      i += 8;
      p += 8;
      return nullptr;
    }
  }
  std::uint64_t v;
  if (end - p >= 2 && (p[0] & p[1] & 0x80) == 0) {
    const std::uint64_t two = p[0] >> 7;
    v = (p[0] & 0x7fu) | ((std::uint64_t{p[1]} << 7) & (0 - two));
    p += 1 + two;
  } else {
    if (p == end) return "varint truncated";
    std::uint64_t byte = *p++;
    v = byte & 0x7f;
    for (int shift = 7; byte >= 0x80; shift += 7) {
      if (shift > 63) return "varint overlong";
      if (p == end) return "varint truncated";
      byte = *p++;
      v |= (byte & 0x7f) << shift;
    }
  }
  apply(i, UnZigZag(v));
  ++i;
  return nullptr;
}

constexpr char kLengthMismatch[] = "varint attribute length mismatch";

// Reads exactly `count` varints that must fill [p, end).
template <typename ApplyFn>
Status UnpackVarints(const unsigned char* p, const unsigned char* end,
                     std::size_t count, ApplyFn apply) {
  for (std::size_t i = 0; i < count;) {
    if (const char* error = VarintStep(p, end, i, count, apply)) {
      return Status::Corruption(error);
    }
  }
  if (p != end) return Status::Corruption(kLengthMismatch);
  return Status::OK();
}

// Reads one varint-coded attribute of `count` values at the reader. Kept
// out of line: inlined into Reassemble, its residual loop ran about a
// third slower (GCC 12, -O3).
template <typename ApplyFn>
[[gnu::noinline]] Status DecodeVarintAttr(Reader* reader, std::size_t count,
                                          ApplyFn apply) {
  FC_ASSIGN_OR_RETURN(const std::string_view attr, reader->TakeVarintAttr());
  const auto* p = reinterpret_cast<const unsigned char*>(attr.data());
  return UnpackVarints(p, p + attr.size(), count, std::move(apply));
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

// The quantize-and-delta pass over cells[0, n), `prev` being the quantum
// before cells[0].
void QuantizeDeltasFrom(const double* cells, std::size_t n, double step,
                        std::int64_t prev, std::uint64_t* deltas) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t q = Quantize(cells[i], step);
    deltas[i] = WrappingDelta(q, prev);
    prev = q;
  }
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

// A per-thread array of at least n T's, reused by every later call on the
// thread (grown, never shrunk), so a pass that stages a column there
// allocates nothing for it once the thread has seen its largest tile.
// Callers hold it only within one codec call and never nest.
template <typename T>
T* ThreadScratch(std::size_t n) {
  thread_local std::vector<T> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

using codec_kernels::PlannedBytes;

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

// The scalar kernel set: every CPU runs it, and it is the reference the
// AVX-512VL forms are tested against.

void QuantizeDeltasScalar(const double* cells, std::size_t n, double step,
                          std::uint64_t* deltas) {
  QuantizeDeltasFrom(cells, n, step, 0, deltas);
}

Status UnpackDeltasScalar(const unsigned char* begin, const unsigned char* end,
                          std::size_t n, double step, double* cells) {
  std::uint64_t prev = 0;
  return UnpackVarints(begin, end, n, [&](std::size_t i, std::uint64_t delta) {
    prev += delta;
    cells[i] = static_cast<double>(static_cast<std::int64_t>(prev)) * step;
  });
}

#ifdef FC_CODEC_AVX512_TARGET

// The AVX-512VL kernel set, four 64-bit lanes per ymm register. A 512-bit
// prototype measured no faster on the serving benchmark's push workload
// and read a higher median latency on its threaded one. Each lane does the
// scalar loop's arithmetic in the scalar loop's order, so every result is
// bit-identical.

// Quantize on four cells: the same division, clamp, NaN rule, truncation
// and half-away-from-zero step.
FC_CODEC_AVX512_TARGET inline __m256i QuantizeX4(__m256d v, __m256d step) {
  __m256d q = _mm256_div_pd(v, step);
  // max and min return their second operand when either is NaN, so a NaN
  // quotient survives the clamp, as in std::clamp, for the masked move.
  q = _mm256_max_pd(_mm256_set1_pd(-kMaxQuantum), q);
  q = _mm256_min_pd(_mm256_set1_pd(kMaxQuantum), q);
  q = _mm256_mask_mov_pd(q, _mm256_cmp_pd_mask(q, q, _CMP_UNORD_Q),
                         _mm256_setzero_pd());
  const __m256i t = _mm256_cvttpd_epi64(q);
  const __m256d fraction = _mm256_sub_pd(q, _mm256_cvtepi64_pd(t));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i up = _mm256_mask_add_epi64(
      t, _mm256_cmp_pd_mask(fraction, _mm256_set1_pd(0.5), _CMP_GE_OQ), t,
      one);
  return _mm256_mask_sub_epi64(
      up, _mm256_cmp_pd_mask(fraction, _mm256_set1_pd(-0.5), _CMP_LE_OQ), up,
      one);
}

// Each lane's previous quantum: lane k - 1's, and for lane 0 the last lane
// of the previous four.
FC_CODEC_AVX512_TARGET inline __m256i PreviousX4(__m256i q, __m256i last) {
  return _mm256_alignr_epi64(q, last, 3);
}

FC_CODEC_AVX512_TARGET inline __m256i ZigZagX4(__m256i d) {
  return _mm256_xor_si256(_mm256_slli_epi64(d, 1), _mm256_srai_epi64(d, 63));
}

// VarintSize on four values: (bit_width(v | 1) + 6) / 7, the division as
// * 37 >> 8, which is exact for the dividends 7..70.
FC_CODEC_AVX512_TARGET inline __m256i VarintSizesX4(__m256i v) {
  const __m256i leading =
      _mm256_lzcnt_epi64(_mm256_or_si256(v, _mm256_set1_epi64x(1)));
  const __m256i dividend = _mm256_sub_epi64(_mm256_set1_epi64x(70), leading);
  return _mm256_srli_epi64(
      _mm256_mul_epu32(dividend, _mm256_set1_epi64x(37)), 8);
}

FC_CODEC_AVX512_TARGET inline std::size_t SumX4(__m256i v) {
  const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(v),
                                     _mm256_extracti128_si256(v, 1));
  return static_cast<std::size_t>(_mm_cvtsi128_si64(pair) +
                                  _mm_extract_epi64(pair, 1));
}

// Four cells of the raw-f64 progressive plan, those outside `lanes` masked
// off: writes their coarse values to `coarse`, adds the varint bytes of
// their base deltas and refinement residuals to the accumulators, and
// returns their quanta.
FC_CODEC_AVX512_TARGET inline __m256i PlanRawX4(const double* cells,
                                                __mmask8 lanes, __m256d step,
                                                __m256i last, __m256i* base,
                                                __m256i* refinement,
                                                double* coarse) {
  const __m256d v = _mm256_maskz_loadu_pd(lanes, cells);
  const __m256i q = QuantizeX4(v, step);
  const __m256d coarse_values = _mm256_mul_pd(_mm256_cvtepi64_pd(q), step);
  _mm256_mask_storeu_pd(coarse, lanes, coarse_values);
  *base = _mm256_mask_add_epi64(
      *base, lanes, *base,
      VarintSizesX4(ZigZagX4(_mm256_sub_epi64(q, PreviousX4(q, last)))));
  *refinement = _mm256_mask_add_epi64(
      *refinement, lanes, *refinement,
      VarintSizesX4(ZigZagX4(_mm256_sub_epi64(
          _mm256_castpd_si256(v), _mm256_castpd_si256(coarse_values)))));
  return q;
}

// The coarse column is computed into scratch and appended once, so it is
// written once, never zero-filled first. The n mod 4 cells left take one
// more step with the other lanes masked off.
FC_CODEC_AVX512_TARGET
PlannedBytes PlanRawProgressiveAvx512(const std::vector<double>& cells,
                                      double /*quant_step*/, double base_step,
                                      std::vector<double>* /*exact_out*/,
                                      std::vector<double>* coarse_out) {
  const std::size_t n = cells.size();
  double* const coarse = ThreadScratch<double>(n);
  const __m256d step = _mm256_set1_pd(base_step);
  __m256i last = _mm256_setzero_si256();
  __m256i base = _mm256_setzero_si256();
  __m256i refinement = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    last = PlanRawX4(cells.data() + i, 0xF, step, last, &base, &refinement,
                     coarse + i);
  }
  if (i < n) {
    PlanRawX4(cells.data() + i, static_cast<__mmask8>((1u << (n - i)) - 1),
              step, last, &base, &refinement, coarse + i);
  }
  coarse_out->insert(coarse_out->end(), coarse, coarse + n);
  return {0, SumX4(base), SumX4(refinement)};
}

FC_CODEC_AVX512_TARGET
void QuantizeDeltasAvx512(const double* cells, std::size_t n, double step,
                          std::uint64_t* deltas) {
  const __m256d steps = _mm256_set1_pd(step);
  __m256i last = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i q = QuantizeX4(_mm256_loadu_pd(cells + i), steps);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(deltas + i),
                        _mm256_sub_epi64(q, PreviousX4(q, last)));
    last = q;
  }
  QuantizeDeltasFrom(cells + i, n - i, step, _mm256_extract_epi64(last, 3),
                     deltas + i);
}

// The scalar reader plus a 16-varint step: while at least 16 values and 32
// bytes remain and the next 16 varints take one or two bytes each, they
// are unpacked into 16-bit lanes at once; anything else takes VarintStep's
// paths, so errors and their messages are the scalar reader's.
FC_CODEC_AVX512_TARGET
Status UnpackDeltasAvx512(const unsigned char* p, const unsigned char* end,
                          std::size_t n, double step, double* cells) {
  std::uint64_t prev = 0;
  auto apply = [&prev, cells, step](std::size_t i, std::uint64_t delta) {
    prev += delta;
    cells[i] = static_cast<double>(static_cast<std::int64_t>(prev)) * step;
  };
  const __m256d steps = _mm256_set1_pd(step);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  while (i < n) {
    if (n - i >= 16 && end - p >= 32) {
      const __m256i bytes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      // Bit b: byte b has its continuation bit, so a varint goes on past it.
      const auto more = static_cast<std::uint32_t>(_mm256_movemask_epi8(bytes));
      // The byte that ends the 16th varint (0 when fewer than 16 end here),
      // and the window of bytes up to it.
      const std::uint32_t last_end = _pdep_u32(1u << 15, ~more);
      const std::uint32_t window = last_end | (last_end - 1);
      // Two continued bytes in a row mean a varint of three bytes or more.
      if (last_end != 0 && (more & (more << 1) & window) == 0) {
        // Varint k's bytes go to 16-bit lane k: its first byte to the low
        // half, its second (when its first continues) to the high half.
        const std::uint32_t starts = ((~more << 1) | 1) & window;
        const __mmask32 expand =
            0x55555555u | _pdep_u32(_pext_u32(more, starts), 0xAAAAAAAAu);
        const __m256i lanes = _mm256_maskz_expand_epi8(expand, bytes);
        const __m256i codes = _mm256_or_si256(
            _mm256_and_si256(lanes, _mm256_set1_epi16(0x7f)),
            _mm256_and_si256(_mm256_srli_epi16(lanes, 1),
                             _mm256_set1_epi16(0x3f80)));
        const __m128i low = _mm256_castsi256_si128(codes);
        const __m128i high = _mm256_extracti128_si256(codes, 1);
        const __m128i quarters[4] = {low, _mm_unpackhi_epi64(low, low), high,
                                     _mm_unpackhi_epi64(high, high)};
        __m256i sum = _mm256_set1_epi64x(static_cast<std::int64_t>(prev));
        for (int k = 0; k < 4; ++k) {
          const __m256i z = _mm256_cvtepu16_epi64(quarters[k]);
          __m256i d = _mm256_xor_si256(
              _mm256_srli_epi64(z, 1),
              _mm256_sub_epi64(zero, _mm256_and_si256(z, one)));
          // Prefix sum over the lanes, then the running total before them.
          d = _mm256_add_epi64(d, _mm256_alignr_epi64(d, zero, 3));
          d = _mm256_add_epi64(d, _mm256_alignr_epi64(d, zero, 2));
          sum = _mm256_add_epi64(_mm256_permute4x64_epi64(sum, 0xFF), d);
          _mm256_storeu_pd(cells + i + 4 * k,
                           _mm256_mul_pd(_mm256_cvtepi64_pd(sum), steps));
        }
        prev = static_cast<std::uint64_t>(_mm256_extract_epi64(sum, 3));
        i += 16;
        p += std::countr_zero(last_end) + 1;
        continue;
      }
    }
    if (const char* error = VarintStep(p, end, i, n, apply)) {
      return Status::Corruption(error);
    }
  }
  if (p != end) return Status::Corruption(kLengthMismatch);
  return Status::OK();
}

#endif  // FC_CODEC_AVX512_TARGET

// The kernel set this process runs, picked once from the CPU's features.
const codec_kernels::KernelSet& ActiveKernels() {
  static const codec_kernels::KernelSet& active =
      codec_kernels::Avx512Kernels() != nullptr
          ? *codec_kernels::Avx512Kernels()
          : codec_kernels::ScalarKernels();
  return active;
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
    case TileEncoding::kDeltaVarint: {
      const auto cells = static_cast<std::size_t>(tile.cell_count());
      std::uint64_t* const deltas = ThreadScratch<std::uint64_t>(cells);
      for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
        ActiveKernels().quantize_deltas(tile.AttrData(a).data(), cells,
                                        options.quant_step, deltas);
        out->VarintAttr(cells, [deltas](std::size_t i) { return deltas[i]; });
      }
      return;
    }
  }
}

// The `nattr` decoded columns of `cells` cells each.
Result<std::vector<std::vector<double>>> DecodePayload(Reader* reader,
                                                       TileEncoding encoding,
                                                       double quant_step,
                                                       std::size_t nattr,
                                                       std::size_t cells) {
  std::vector<std::vector<double>> columns;
  columns.reserve(nattr);
  switch (encoding) {
    case TileEncoding::kRawF64:
      for (std::size_t a = 0; a < nattr; ++a) {
        auto& column = columns.emplace_back(cells);
        FC_RETURN_IF_ERROR(
            reader->ReadRaw(column.data(), cells * sizeof(double)));
      }
      return columns;
    case TileEncoding::kFloat32:
      for (std::size_t a = 0; a < nattr; ++a) {
        FC_ASSIGN_OR_RETURN(const char* p, reader->Take(cells * sizeof(float)));
        auto& column = columns.emplace_back(cells);
        for (auto& v : column) {
          float f;
          std::memcpy(&f, p, sizeof(f));
          p += sizeof(f);
          v = static_cast<double>(f);
        }
      }
      return columns;
    case TileEncoding::kDeltaVarint: {
      if (!(quant_step > 0.0)) {
        return Status::Corruption("non-positive quantization step");
      }
      // Each column is unpacked into scratch and copied out once, never
      // zero-filled first.
      double* const unpacked = ThreadScratch<double>(cells);
      for (std::size_t a = 0; a < nattr; ++a) {
        FC_ASSIGN_OR_RETURN(const std::string_view attr,
                            reader->TakeVarintAttr());
        const auto* begin = reinterpret_cast<const unsigned char*>(attr.data());
        FC_RETURN_IF_ERROR(ActiveKernels().unpack_deltas(
            begin, begin + attr.size(), cells, quant_step, unpacked));
        columns.emplace_back(unpacked, unpacked + cells);
      }
      return columns;
    }
  }
  return Status::Corruption("unknown tile encoding");
}

using PlanKernel = PlannedBytes (*)(const std::vector<double>&, double, double,
                                    std::vector<double>*, std::vector<double>*);

// The plan loop for `encoding` and `progressive`, or null when no cell needs
// one: a lossless all-or-nothing plan is priced from the dims alone.
PlanKernel PlanKernelFor(TileEncoding encoding, bool progressive) {
  switch (encoding) {
    case TileEncoding::kRawF64:
      return progressive ? ActiveKernels().plan_raw_progressive : nullptr;
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

namespace codec_kernels {

const KernelSet& ScalarKernels() {
  static constexpr KernelSet kScalar = {"scalar",
                                        PlanCells<TileEncoding::kRawF64, true>,
                                        QuantizeDeltasScalar,
                                        UnpackDeltasScalar};
  return kScalar;
}

std::string MissingAvx512Features() {
#ifdef FC_CODEC_AVX512_TARGET
  __builtin_cpu_init();
  const std::pair<const char*, bool> features[] = {
      {"avx512f", __builtin_cpu_supports("avx512f")},
      {"avx512vl", __builtin_cpu_supports("avx512vl")},
      {"avx512dq", __builtin_cpu_supports("avx512dq")},
      {"avx512cd", __builtin_cpu_supports("avx512cd")},
      {"avx512bw", __builtin_cpu_supports("avx512bw")},
      {"avx512vbmi2", __builtin_cpu_supports("avx512vbmi2")},
      {"bmi2", __builtin_cpu_supports("bmi2")},
  };
  std::string missing;
  for (const auto& [name, present] : features) {
    if (present) continue;
    if (!missing.empty()) missing += ' ';
    missing += name;
  }
  return missing;
#else
  return "x86-64 GCC or Clang build";
#endif
}

const KernelSet* Avx512Kernels() {
#ifdef FC_CODEC_AVX512_TARGET
  static constexpr KernelSet kAvx512 = {"avx512vl", PlanRawProgressiveAvx512,
                                        QuantizeDeltasAvx512,
                                        UnpackDeltasAvx512};
  static const bool runs = MissingAvx512Features().empty();
  return runs ? &kAvx512 : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace codec_kernels

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
  FC_ASSIGN_OR_RETURN(
      auto columns,
      DecodePayload(&reader, encoding, quant_step, nattr,
                    static_cast<std::size_t>(width * height)));
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after tile payload");
  }
  auto tile = tiles::Tile::FromColumns(tiles::TileKey{level, x, y}, width,
                                       height, std::move(names),
                                       std::move(columns));
  if (!tile.ok()) return tile.status().WithContext("decoding tile");
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
  // A lossless decode IS the tile, so only a lossy blob is decoded again.
  Result<tiles::Tile> decoded_final = tiles::Tile();
  if (!lossless()) decoded_final = Decode(full);
  auto base_tile = Decode(out.base);
  FC_CHECK_MSG(decoded_final.ok() && base_tile.ok(),
               "progressive encode cannot fail to re-decode its own blobs");
  const tiles::Tile& final_tile = lossless() ? tile : *decoded_final;

  // The residuals are varint-coded attributes, as a kDeltaVarint payload.
  BlobWriter ref(kRefinementOverheadBytes +
                 MaxPayloadBytes(tile, TileEncoding::kDeltaVarint));
  ref.Raw(kRefinementMagic, sizeof(kRefinementMagic));
  ref.Value(kRefinementVersion);
  ref.Value(static_cast<std::uint8_t>(options_.encoding));
  ref.Value(StoredChecksum(out.base));
  ref.TileHeader(tile);
  for (std::size_t a = 0; a < tile.num_attrs(); ++a) {
    const double* final_data = final_tile.AttrData(a).data();
    const double* base_data = base_tile->AttrData(a).data();
    ref.VarintAttr(final_tile.AttrData(a).size(), [&](std::size_t i) {
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
