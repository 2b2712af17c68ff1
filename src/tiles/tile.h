// Tile payload: a fixed-size block of one zoom level's materialized view.

#ifndef FORECACHE_TILES_TILE_H_
#define FORECACHE_TILES_TILE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "tiles/tile_key.h"
#include "vision/raster.h"

namespace fc::tiles {

/// A dense multi-attribute block of cells. Edge tiles may be smaller than
/// the nominal tile size when the level's extent is not a multiple of it.
class Tile {
 public:
  Tile() = default;

  /// Creates a zero-filled tile. InvalidArgument on empty dims/attrs.
  static Result<Tile> Make(TileKey key, std::int64_t width, std::int64_t height,
                           std::vector<std::string> attr_names);

  /// Creates a tile that adopts `columns` as its cells, one column of
  /// width * height cells per attribute name, so a caller that computes
  /// every cell writes each column once. InvalidArgument on empty
  /// dims/attrs or a column count or size that does not match.
  static Result<Tile> FromColumns(TileKey key, std::int64_t width,
                                  std::int64_t height,
                                  std::vector<std::string> attr_names,
                                  std::vector<std::vector<double>> columns);

  const TileKey& key() const { return key_; }
  std::int64_t width() const { return width_; }
  std::int64_t height() const { return height_; }
  std::int64_t cell_count() const { return width_ * height_; }
  const std::vector<std::string>& attr_names() const { return attr_names_; }
  std::size_t num_attrs() const { return attr_names_.size(); }

  /// Index of the attribute named `name`, or NotFound.
  Result<std::size_t> AttrIndex(std::string_view name) const;

  double At(std::size_t attr, std::int64_t x, std::int64_t y) const {
    return data_[attr][static_cast<std::size_t>(y * width_ + x)];
  }
  void Set(std::size_t attr, std::int64_t x, std::int64_t y, double v) {
    data_[attr][static_cast<std::size_t>(y * width_ + x)] = v;
  }

  const std::vector<double>& AttrData(std::size_t attr) const { return data_[attr]; }
  std::vector<double>& MutableAttrData(std::size_t attr) { return data_[attr]; }

  /// Renders one attribute as a raster for signature extraction.
  Result<vision::Raster> ToRaster(std::size_t attr) const;
  Result<vision::Raster> ToRaster(std::string_view attr_name) const;

  /// Payload size in bytes (attribute buffers only).
  std::size_t SizeBytes() const;

 private:
  TileKey key_;
  std::int64_t width_ = 0;
  std::int64_t height_ = 0;
  std::vector<std::string> attr_names_;
  std::vector<std::vector<double>> data_;  // [attr][y * width + x]
};

using TilePtr = std::shared_ptr<const Tile>;

}  // namespace fc::tiles

#endif  // FORECACHE_TILES_TILE_H_
