// Synthetic terrain: the MODIS data stand-in.
//
// The paper's dataset is one week of NASA MODIS reflectance over the globe,
// reduced to NDSI snow cover. What the prediction engine actually depends on
// is spatial structure: snow concentrates in a few elongated mountain-range
// clusters (Rockies / Alps / Andes were the study's ROIs) over a mostly
// snow-free background. This module synthesizes a deterministic elevation
// field with three such ranges via fractal value noise, and derives VIS and
// SWIR band reflectances from a simple snow model so that the NDSI
// (VIS-SWIR)/(VIS+SWIR) computed downstream shows the same cluster
// structure.

#ifndef FORECACHE_SIM_TERRAIN_H_
#define FORECACHE_SIM_TERRAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace fc::sim {

/// An elongated mountain range: a rotated Gaussian ridge in unit coordinates
/// (x right, y down; (0,0) = north-west corner of the dataset).
struct MountainRange {
  std::string name;
  double center_x = 0.5;
  double center_y = 0.5;
  double length = 0.2;       ///< Half-extent along the ridge axis.
  double width = 0.05;       ///< Half-extent across the ridge axis.
  double angle_rad = 0.0;    ///< Ridge orientation (0 = horizontal).
  double height = 1.0;       ///< Peak elevation contribution.
};

struct TerrainOptions {
  std::int64_t width = 1024;
  std::int64_t height = 1024;
  std::uint64_t seed = 42;

  /// Fractal base detail.
  int noise_octaves = 5;
  double noise_base_frequency = 4.0;
  double noise_amplitude = 0.35;

  /// Ranges; empty = the default three (study analogues of the Rockies,
  /// Alps, and Andes, in distinct quadrants).
  std::vector<MountainRange> ranges;

  /// Elevation above which snow appears (before latitude adjustment).
  double snow_line = 0.55;
  /// Sea level: cells below are ocean (land_mask = 0).
  double sea_level = 0.12;
};

/// Default study geography: three ranges in separate regions of the map.
std::vector<MountainRange> DefaultStudyRanges();

/// Deterministic elevation + band synthesizer.
///
/// The elevation field does not depend on the day, so the constructor
/// evaluates it once per cell into a row-major grid (`y * width + x`). The
/// grid costs 8 bytes per cell for the Terrain's lifetime: 2 MiB at 512^2,
/// 8 MiB at 1024^2. Every per-cell accessor below reads it, so each requires
/// 0 <= x < width and 0 <= y < height.
class Terrain {
 public:
  explicit Terrain(TerrainOptions options);

  const TerrainOptions& options() const { return options_; }

  /// Elevation in [0, ~1.5] at integer cell coordinates.
  double Elevation(std::int64_t x, std::int64_t y) const;

  /// Snow fraction in [0, 1] for one day (day shifts the snow line slightly,
  /// modelling the week of MODIS composites).
  double SnowFraction(std::int64_t x, std::int64_t y, int day) const;

  /// True if the cell is land.
  bool IsLand(std::int64_t x, std::int64_t y) const;

  /// Visible-light band reflectance for one day (snow is bright in VIS).
  double VisReflectance(std::int64_t x, std::int64_t y, int day) const;

  /// Short-wave-infrared reflectance (snow is dark in SWIR).
  double SwirReflectance(std::int64_t x, std::int64_t y, int day) const;

 private:
  // Lattice value noise in [0,1] at arbitrary scale.
  double ValueNoise(double x, double y, std::uint64_t salt) const;
  double Fbm(double x, double y, std::uint64_t salt) const;
  // The elevation field's formula; only the constructor evaluates it.
  double ComputeElevation(std::int64_t x, std::int64_t y) const;
  // Deterministic per-cell measurement jitter.
  double CellJitter(std::int64_t x, std::int64_t y, int day, std::uint64_t salt) const;

  TerrainOptions options_;
  std::vector<double> elevation_;  // row-major, y * width + x
};

}  // namespace fc::sim

#endif  // FORECACHE_SIM_TERRAIN_H_
