#include "tiles/metadata.h"

namespace fc::tiles {

void TileMetadataStore::Put(const TileKey& key, TileMetadata metadata) {
  metadata_[key] = std::move(metadata);
}

Result<const TileMetadata*> TileMetadataStore::Get(const TileKey& key) const {
  const TileMetadata* md = Find(key);
  if (md == nullptr) {
    return Status::NotFound("no metadata for tile " + key.ToString());
  }
  return md;
}

const TileMetadata* TileMetadataStore::Find(const TileKey& key) const {
  auto it = metadata_.find(key);
  return it == metadata_.end() ? nullptr : &it->second;
}

Result<const std::vector<double>*> TileMetadataStore::GetSignature(
    const TileKey& key, vision::SignatureKind kind) const {
  FC_ASSIGN_OR_RETURN(const TileMetadata* md, Get(key));
  auto it = md->signatures.find(kind);
  if (it == md->signatures.end()) {
    return Status::NotFound("tile " + key.ToString() + " lacks signature " +
                            std::string(vision::SignatureKindToString(kind)));
  }
  return &it->second;
}

}  // namespace fc::tiles
