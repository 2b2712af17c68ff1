#include "tiles/tile.h"

#include "common/string_utils.h"

namespace fc::tiles {

Result<Tile> Tile::Make(TileKey key, std::int64_t width, std::int64_t height,
                        std::vector<std::string> attr_names) {
  // Each column is value-initialized in place: one zero fill, no copy.
  const std::size_t cells =
      width > 0 && height > 0 ? static_cast<std::size_t>(width * height) : 0;
  std::vector<std::vector<double>> columns;
  columns.reserve(attr_names.size());
  for (std::size_t a = 0; a < attr_names.size(); ++a) {
    columns.emplace_back(cells);
  }
  return FromColumns(key, width, height, std::move(attr_names),
                     std::move(columns));
}

Result<Tile> Tile::FromColumns(TileKey key, std::int64_t width,
                               std::int64_t height,
                               std::vector<std::string> attr_names,
                               std::vector<std::vector<double>> columns) {
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument("tile dimensions must be positive");
  }
  if (attr_names.empty()) {
    return Status::InvalidArgument("tile needs at least one attribute");
  }
  if (columns.size() != attr_names.size()) {
    return Status::InvalidArgument("tile needs one column per attribute");
  }
  for (const auto& column : columns) {
    if (column.size() != static_cast<std::size_t>(width * height)) {
      return Status::InvalidArgument("tile column size must be width * height");
    }
  }
  Tile t;
  t.key_ = key;
  t.width_ = width;
  t.height_ = height;
  t.attr_names_ = std::move(attr_names);
  t.data_ = std::move(columns);
  return t;
}

Result<std::size_t> Tile::AttrIndex(std::string_view name) const {
  for (std::size_t i = 0; i < attr_names_.size(); ++i) {
    if (attr_names_[i] == name) return i;
  }
  return Status::NotFound("tile has no attribute named: " + std::string(name));
}

Result<vision::Raster> Tile::ToRaster(std::size_t attr) const {
  if (attr >= data_.size()) {
    return Status::NotFound(StrFormat("attribute index %zu out of range", attr));
  }
  return vision::Raster::FromData(static_cast<std::size_t>(width_),
                                  static_cast<std::size_t>(height_), data_[attr]);
}

Result<vision::Raster> Tile::ToRaster(std::string_view attr_name) const {
  FC_ASSIGN_OR_RETURN(auto idx, AttrIndex(attr_name));
  return ToRaster(idx);
}

std::size_t Tile::SizeBytes() const {
  std::size_t bytes = 0;
  for (const auto& buf : data_) bytes += buf.size() * sizeof(double);
  return bytes;
}

}  // namespace fc::tiles
