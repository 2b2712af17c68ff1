#include "storage/batch_fetch.h"

#include <algorithm>

namespace fc::storage {

std::size_t BatchTileCap(const BatchProfile& profile,
                         std::size_t nominal_tile_bytes) {
  const std::size_t cap = std::max<std::size_t>(profile.max_batch_tiles, 1);
  if (profile.max_batch_bytes == 0 || nominal_tile_bytes == 0) return cap;
  // Byte budgets cap amortization; they cannot stop fetching.
  return std::min(cap, std::max<std::size_t>(
                           profile.max_batch_bytes / nominal_tile_bytes, 1));
}

}  // namespace fc::storage
