// Tile serialization with pluggable payload encodings — the on-disk format
// of DiskTileStore and the compression engine of the shared cache's L2 tier.
//
// Layout (little-endian), format version 3:
//   magic "FCTL" | u32 version | u8 encoding
//   | i32 level | i64 x | i64 y | i64 width | i64 height | u32 nattr
//   | nattr x { u32 name_len | bytes }
//   | [f64 quant_step when encoding == kDeltaVarint]
//   | per-attribute payload (encoding-specific, see below)
//   | u64 XXH64 (seed 0) checksum over every preceding byte
//
// Format v2 blobs (in packed extents written by earlier builds) are still
// read: they differ only in the trailer, an FNV-1a checksum over the same
// bytes. Version 1 is rejected as "unsupported tile version".
//
// Payloads:
//   kRawF64      — width*height f64 per attribute; lossless, bit-exact.
//   kFloat32     — width*height f32 per attribute; halves the bytes, error
//                  bounded by one double->float rounding. Finite values
//                  beyond float range saturate at +/-FLT_MAX.
//   kDeltaVarint — values quantized to multiples of quant_step, then
//                  delta-coded and zigzag/LEB128 varint-packed per attribute
//                  (u64 byte length prefix). Smooth rasters compress to a
//                  byte or two per cell; absolute error <= quant_step / 2
//                  within the representable range |v| <= 2^62 * quant_step.
//                  Outside it values saturate to the lattice bounds, NaN
//                  decodes as 0, and infinities saturate — use a lossless
//                  encoding when any of that matters.
//
// The encoding is recorded in the blob, so Decode is self-describing: any
// TileCodec (or the free DecodeTile) can read any encoding's output.
//
// Progressive two-chunk encoding (EncodeProgressive / Reassemble): a tile
// splits into
//   * a BASE chunk — a standard format-v3 blob at coarse fidelity
//     (kDeltaVarint quantized to progressive_base_step), self-describing
//     and checksummed like any blob, so Decode(base) alone yields a usable
//     lossy tile (absolute error <= progressive_base_step / 2); and
//   * a REFINEMENT chunk — format "FCTR" v2: header (final encoding id,
//     the base chunk's checksum binding the pair, tile key/dims/attr
//     count), then per-attribute zigzag/varint residuals in the IEEE-754
//     bit domain (bits(final) - bits(base), wrapping), then its own
//     trailing XXH64 checksum. Refinements are never persisted, so only v2
//     is read.
// Reassemble(base, refinement) reproduces the configured encoding's
// decoded payload BIT-IDENTICALLY (bit-domain residuals are exact even for
// NaN payload bits), so streaming the pair is observationally equivalent
// to shipping the all-or-nothing blob. Each chunk rejects corruption
// independently, and a refinement applied to the wrong base fails the
// bound checksum. Degenerate tiles whose coarse base would not undercut
// the exact blob ship the exact blob AS the base with an empty refinement.
//
// Pricing without producing (PlanProgressive): an in-process consumer that
// only needs what the chunks WOULD weigh and what a client WOULD decode
// from them — the stream scheduler, which ranks and budgets by bytes and
// hands decoded payloads to sessions — asks for a ProgressivePlan instead.
// One pass over the cells, with the encoder's own quantization and varint
// arithmetic, yields the byte sizes of the full blob, the base, and the
// refinement (the degenerate rule included) plus the decoded coarse and
// exact payloads, bit-identical to the byte path; no blob, checksum, or
// decode is involved. The byte path stays the wire and disk format.

#ifndef FORECACHE_STORAGE_TILE_CODEC_H_
#define FORECACHE_STORAGE_TILE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "tiles/tile.h"

namespace fc::storage {

enum class TileEncoding : std::uint8_t {
  kRawF64 = 0,
  kFloat32 = 1,
  kDeltaVarint = 2,
};

const char* TileEncodingName(TileEncoding encoding);

struct TileCodecOptions {
  TileEncoding encoding = TileEncoding::kRawF64;

  /// Quantization step for kDeltaVarint (ignored otherwise). Decoded values
  /// land on multiples of this step, so it bounds the absolute error at
  /// step/2. Must be > 0.
  double quant_step = 1e-4;

  /// Quantization step of the coarse BASE chunk emitted by
  /// EncodeProgressive. Base-only decodes carry absolute error up to
  /// progressive_base_step / 2; the refinement chunk removes it exactly.
  /// Must be > 0.
  double progressive_base_step = 1.0;
};

/// A tile split for progressive streaming. `base` is a standard blob
/// (coarse kDeltaVarint fidelity) that Decode turns into a usable lossy
/// tile on its own; `refinement` upgrades it to the exact payload of the
/// encoding that produced the pair. An empty `refinement` means the base
/// already IS the exact payload (degenerate tiles ship as one chunk).
struct ProgressiveEncoding {
  std::string base;
  std::string refinement;
};

/// What streaming a tile costs and delivers, priced without producing any
/// bytes (see PlanProgressive and the format notes above).
struct ProgressivePlan {
  /// Encode(tile).size(): the all-or-nothing blob.
  std::size_t full_bytes = 0;
  /// The first (usable) chunk: EncodeProgressive(tile).base.size(), or
  /// full_bytes when the tile ships as one chunk.
  std::size_t base_bytes = 0;
  /// EncodeProgressive(tile).refinement.size(); 0 when the tile ships as
  /// one chunk (degenerate tile, or all-or-nothing mode).
  std::size_t refinement_bytes = 0;
  /// What a client decodes from the first chunk: Decode(base), which is
  /// `exact` itself when the tile ships as one chunk.
  tiles::TilePtr coarse;
  /// Decode(Encode(tile)): the submitted pointer itself when the encoding
  /// is lossless, a directly computed tile otherwise.
  tiles::TilePtr exact;

  bool one_chunk() const { return refinement_bytes == 0; }
};

/// Encodes tiles per the configured options; decodes blobs of any encoding.
class TileCodec {
 public:
  explicit TileCodec(TileCodecOptions options = {});

  const TileCodecOptions& options() const { return options_; }

  /// True when Encode -> Decode reproduces every cell bit-exactly.
  bool lossless() const { return options_.encoding == TileEncoding::kRawF64; }

  /// Worst-case absolute per-cell error of this codec's quantized encoding
  /// for values within kDeltaVarint's representable range (see the format
  /// notes above; values beyond |v| <= 2^62 * quant_step saturate). 0 for
  /// lossless; kFloat32 error is value-dependent and not covered.
  double MaxAbsError() const {
    return options_.encoding == TileEncoding::kDeltaVarint
               ? options_.quant_step / 2.0
               : 0.0;
  }

  std::string Encode(const tiles::Tile& tile) const;

  /// Splits `tile` into a coarse base chunk plus an exact refinement chunk
  /// (see the format notes above). Reassemble(base, refinement) is
  /// bit-identical to Decode(Encode(tile)) for every encoding, and
  /// Decode(base) alone is a usable lossy tile.
  ProgressiveEncoding EncodeProgressive(const tiles::Tile& tile) const;

  /// Prices `tile` as EncodeProgressive would split it (`progressive`
  /// true) or as one Encode blob (false), in one pass over the cells and
  /// without producing bytes. Sizes and payloads match the byte path
  /// exactly (see ProgressivePlan). `tile` must be non-null.
  ProgressivePlan PlanProgressive(const tiles::TilePtr& tile,
                                  bool progressive) const;

  /// Rebuilds the exact tile from a progressive pair. Each chunk's checksum
  /// is verified independently; a refinement bound to a different base (or
  /// whose header disagrees with the base) is Corruption.
  static Result<tiles::Tile> Reassemble(const std::string& base,
                                        const std::string& refinement);

  /// Parses a blob produced by any TileCodec, in place (`bytes` may be a
  /// slice of a larger buffer). Corruption on truncation, header damage,
  /// checksum mismatch, or a header claiming more cells than the payload
  /// can hold.
  static Result<tiles::Tile> Decode(std::string_view bytes);

  /// The encoding recorded in a blob's header, without a full decode.
  static Result<TileEncoding> PeekEncoding(std::string_view bytes);

 private:
  TileCodecOptions options_;
};

/// Back-compatible helpers: lossless raw-f64 encode, self-describing decode.
std::string EncodeTile(const tiles::Tile& tile);
Result<tiles::Tile> DecodeTile(std::string_view bytes);

}  // namespace fc::storage

#endif  // FORECACHE_STORAGE_TILE_CODEC_H_
