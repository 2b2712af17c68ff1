// The tile codec's per-cell kernels, for tests that pin one kernel set to
// the other. Not part of the codec's interface: tile_codec.h does not
// include this header, and nothing here picks a kernel set. The codec picks
// once per process: the AVX-512VL forms when Avx512Kernels() is non-null,
// the scalar loops otherwise (see the "Kernels" notes in tile_codec.h).
// Both sets give identical bytes, bits and sizes for every input.

#ifndef FORECACHE_STORAGE_TILE_CODEC_KERNELS_H_
#define FORECACHE_STORAGE_TILE_CODEC_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fc::storage::codec_kernels {

/// What one attribute's cells add to a ProgressivePlan's chunk sizes.
struct PlannedBytes {
  std::size_t full = 0;        ///< kDeltaVarint full blobs only.
  std::size_t base = 0;        ///< Progressive plans only.
  std::size_t refinement = 0;  ///< Progressive plans only.
};

struct KernelSet {
  /// "scalar" or "avx512vl".
  const char* name;

  /// PlanProgressive's loop over one attribute for a raw-f64 final
  /// encoding with a progressive base at `base_step`: appends the cells
  /// Decode(base) yields to `coarse_out` and returns the varint bytes of
  /// the base deltas and of the bit-domain refinement residuals (`full` is
  /// 0: a raw-f64 payload is priced from the dims). The signature is the
  /// plan loops' own; a raw-f64 plan reads no `quant_step` and writes no
  /// `exact_out`.
  PlannedBytes (*plan_raw_progressive)(const std::vector<double>& cells,
                                       double quant_step, double base_step,
                                       std::vector<double>* exact_out,
                                       std::vector<double>* coarse_out);

  /// kDeltaVarint's quantize-and-delta pass over one attribute: deltas[i]
  /// is the wrapping difference of the quanta of cells[i] and cells[i - 1]
  /// at `step`, the quantum before cells[0] being 0.
  void (*quantize_deltas)(const double* cells, std::size_t n, double step,
                          std::uint64_t* deltas);

  /// kDeltaVarint's reader for one attribute: n zigzag/LEB128 varint deltas
  /// that must fill [begin, end) exactly, prefix-summed in wrapping uint64
  /// and written to `cells` as int64 quanta times `step`. Corruption
  /// ("varint truncated", "varint overlong", "varint attribute length
  /// mismatch") otherwise; never reads outside [begin, end).
  Status (*unpack_deltas)(const unsigned char* begin, const unsigned char* end,
                          std::size_t n, double step, double* cells);
};

/// The scalar loops: what every CPU can run, and the reference.
const KernelSet& ScalarKernels();

/// The AVX-512VL forms (256-bit vectors), or null when this build or CPU
/// cannot run them.
const KernelSet* Avx512Kernels();

/// What keeps Avx512Kernels() null, space-separated: the CPU features
/// missing from avx512f, avx512vl, avx512dq, avx512cd, avx512bw,
/// avx512vbmi2 and bmi2, or the build's target when it is not x86-64 with
/// GCC or Clang. Empty when the AVX-512VL forms run.
std::string MissingAvx512Features();

}  // namespace fc::storage::codec_kernels

#endif  // FORECACHE_STORAGE_TILE_CODEC_KERNELS_H_
