// ModisDatasetBuilder: reproduces the paper's data pipeline (section 5.1)
// against the synthetic terrain:
//
//   1. "load" the VIS and SWIR band arrays for each composite day;
//   2. run Query 1 — join(S_VIS, S_SWIR) |> apply(ndsi_func) |> store — in
//      the embedded array engine;
//   3. flatten the week into a single 2D NDSI array with attributes
//      (ndsi_min, ndsi_avg, ndsi_max, land_mask), the study's four
//      attributes (section 5.1.1);
//   4. build the tile pyramid with min/avg/max/max aggregation and compute
//      signature metadata.

#ifndef FORECACHE_SIM_MODIS_DATASET_H_
#define FORECACHE_SIM_MODIS_DATASET_H_

#include <memory>

#include "array/array_store.h"
#include "common/result.h"
#include "sim/terrain.h"
#include "tiles/pyramid.h"
#include "vision/signature.h"

namespace fc::sim {

struct ModisDatasetOptions {
  TerrainOptions terrain;
  int composite_days = 3;  ///< Days folded into the min/avg/max composite.

  int num_levels = 6;
  std::int64_t tile_size = 32;

  /// Signature configuration for tile metadata.
  vision::SignatureToolboxOptions toolbox;
  std::size_t codebook_training_tiles = 48;
  std::uint64_t seed = 42;
};

/// The fully prepared study dataset.
struct ModisDataset {
  std::shared_ptr<tiles::TilePyramid> pyramid;
  std::shared_ptr<vision::SignatureToolbox> toolbox;
  ModisDatasetOptions options;
};

class ModisDatasetBuilder {
 public:
  explicit ModisDatasetBuilder(ModisDatasetOptions options = {});

  /// Runs the full pipeline. When `catalog` is non-null the intermediate
  /// arrays (bands, per-day NDSI, composite) are stored in it under the
  /// names SVIS_d<i>, SSWIR_d<i>, NDSI_d<i>, NDSI (as copies). The
  /// builder's own Terrain, band and per-day NDSI arrays are released once
  /// the composite is filled, before the pyramid build.
  Result<ModisDataset> Build(array::ArrayStore* catalog = nullptr) const;

  /// The paper's NDSI user-defined function.
  static double NdsiFunc(double visible, double short_wave_infrared);

 private:
  ModisDatasetOptions options_;
};

/// A small default configuration used throughout tests and benches.
ModisDatasetOptions DefaultStudyDataset();

}  // namespace fc::sim

#endif  // FORECACHE_SIM_MODIS_DATASET_H_
