// Per-tile metadata: signatures and summary statistics, computed while the
// pyramid is built and "stored in a shared data structure for later use by
// our prediction engine" (paper section 2.3).

#ifndef FORECACHE_TILES_METADATA_H_
#define FORECACHE_TILES_METADATA_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "tiles/tile_key.h"
#include "vision/signature.h"

namespace fc::tiles {

/// Everything the prediction engine knows about a tile without fetching it.
struct TileMetadata {
  std::map<vision::SignatureKind, std::vector<double>> signatures;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Shared, read-mostly store of tile metadata keyed by TileKey.
class TileMetadataStore {
 public:
  TileMetadataStore() = default;

  void Put(const TileKey& key, TileMetadata metadata);

  /// Metadata for `key`, or NotFound.
  Result<const TileMetadata*> Get(const TileKey& key) const;

  /// Metadata for `key`, or nullptr: Get without building a NotFound
  /// message, for callers that probe tiles which may lack metadata.
  const TileMetadata* Find(const TileKey& key) const;

  bool Contains(const TileKey& key) const { return metadata_.count(key) > 0; }
  std::size_t size() const { return metadata_.size(); }

  /// One signature vector, or NotFound if the tile or kind is missing.
  Result<const std::vector<double>*> GetSignature(const TileKey& key,
                                                  vision::SignatureKind kind) const;

 private:
  std::unordered_map<TileKey, TileMetadata, TileKeyHash> metadata_;
};

}  // namespace fc::tiles

#endif  // FORECACHE_TILES_METADATA_H_
