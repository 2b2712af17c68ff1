#include "sim/modis_dataset.h"

#include <cmath>

#include "array/ops.h"
#include "common/string_utils.h"

namespace fc::sim {

ModisDatasetBuilder::ModisDatasetBuilder(ModisDatasetOptions options)
    : options_(std::move(options)) {}

double ModisDatasetBuilder::NdsiFunc(double visible, double short_wave_infrared) {
  double denom = visible + short_wave_infrared;
  if (denom <= 1e-9) return 0.0;
  return (visible - short_wave_infrared) / denom;
}

ModisDatasetOptions DefaultStudyDataset() {
  ModisDatasetOptions opts;
  opts.terrain.width = 1024;
  opts.terrain.height = 1024;
  opts.num_levels = 6;   // 1024 = 32 * 2^5: one tile at level 0
  opts.tile_size = 32;
  opts.toolbox.value_lo = -1.0;
  opts.toolbox.value_hi = 1.0;
  return opts;
}

namespace {

// Steps 1-3 of the pipeline: the bands, Query 1 per day, and the composite.
// The Terrain and the daily arrays are destroyed on return, before the
// pyramid build.
Result<array::DenseArray> BuildComposite(const ModisDatasetOptions& options,
                                         array::ArrayStore* catalog) {
  const auto& t = options.terrain;
  Terrain terrain(t);

  // Band array schema: reflectance[latitude, longitude] (paper 5.1.2).
  auto make_band_schema = [&](const std::string& name) {
    return array::ArraySchema::Make(
        name,
        {array::Dimension{"latitude", 0, t.height, options.tile_size},
         array::Dimension{"longitude", 0, t.width, options.tile_size}},
        {array::Attribute{"reflectance"}});
  };

  // Every array here is row-major over (latitude, longitude): cell (x, y)
  // is at y * t.width + x.
  std::vector<array::DenseArray> daily_ndsi;
  for (int day = 0; day < options.composite_days; ++day) {
    FC_ASSIGN_OR_RETURN(auto vis_schema,
                        make_band_schema(StrFormat("SVIS_d%d", day)));
    FC_ASSIGN_OR_RETURN(auto swir_schema,
                        make_band_schema(StrFormat("SSWIR_d%d", day)));
    array::DenseArray svis(std::move(vis_schema));
    array::DenseArray sswir(std::move(swir_schema));
    for (std::int64_t y = 0; y < t.height; ++y) {
      for (std::int64_t x = 0; x < t.width; ++x) {
        std::int64_t idx = y * t.width + x;
        svis.SetLinear(idx, 0, terrain.VisReflectance(x, y, day));
        sswir.SetLinear(idx, 0, terrain.SwirReflectance(x, y, day));
      }
    }

    // Query 1: store(apply(join(SVIS, SSWIR), ndsi, ndsi_func(...)), NDSI_d).
    FC_ASSIGN_OR_RETURN(auto joined,
                        array::Join(svis, sswir, StrFormat("JOIN_d%d", day)));
    FC_ASSIGN_OR_RETURN(
        auto with_ndsi,
        array::Apply(joined, "ndsi", [](const std::vector<double>& cell) {
          return ModisDatasetBuilder::NdsiFunc(cell[0], cell[1]);
        }));

    if (catalog != nullptr) {
      FC_RETURN_IF_ERROR(catalog->StoreAs(StrFormat("SVIS_d%d", day), svis));
      FC_RETURN_IF_ERROR(catalog->StoreAs(StrFormat("SSWIR_d%d", day), sswir));
      FC_RETURN_IF_ERROR(
          catalog->StoreAs(StrFormat("NDSI_d%d", day), with_ndsi));
    }
    daily_ndsi.push_back(std::move(with_ndsi));
  }

  // Flatten the week: composite min/avg/max NDSI plus the land/sea mask
  // (paper 5.1.1's four numeric attributes).
  FC_ASSIGN_OR_RETURN(
      auto composite_schema,
      array::ArraySchema::Make(
          "NDSI",
          {array::Dimension{"latitude", 0, t.height, options.tile_size},
           array::Dimension{"longitude", 0, t.width, options.tile_size}},
          {array::Attribute{"ndsi_min"}, array::Attribute{"ndsi_avg"},
           array::Attribute{"ndsi_max"}, array::Attribute{"land_mask"}}));
  array::DenseArray composite(std::move(composite_schema));

  const auto& first = daily_ndsi[0];
  FC_ASSIGN_OR_RETURN(std::size_t ndsi_attr, first.schema().AttrIndex("ndsi"));
  for (std::int64_t y = 0; y < t.height; ++y) {
    for (std::int64_t x = 0; x < t.width; ++x) {
      std::int64_t idx = y * t.width + x;
      double mn = 1.0;
      double mx = -1.0;
      double sum = 0.0;
      for (const auto& day_arr : daily_ndsi) {
        double v = day_arr.GetLinear(idx, ndsi_attr);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
      }
      composite.SetLinear(idx, 0, mn);
      composite.SetLinear(idx, 1, sum / static_cast<double>(daily_ndsi.size()));
      composite.SetLinear(idx, 2, mx);
      composite.SetLinear(idx, 3, terrain.IsLand(x, y) ? 1.0 : 0.0);
    }
  }
  if (catalog != nullptr) {
    FC_RETURN_IF_ERROR(catalog->StoreAs("NDSI", composite));
  }
  return composite;
}

}  // namespace

Result<ModisDataset> ModisDatasetBuilder::Build(array::ArrayStore* catalog) const {
  FC_ASSIGN_OR_RETURN(auto composite, BuildComposite(options_, catalog));

  // Tile pyramid + metadata. Aggregation follows attribute semantics:
  // min-of-min, avg-of-avg, max-of-max, any-land (max of mask).
  ModisDataset dataset;
  dataset.options = options_;
  dataset.toolbox = std::make_shared<vision::SignatureToolbox>(
      vision::SignatureToolbox::MakeDefault(options_.toolbox));

  tiles::PyramidBuildOptions build;
  build.num_levels = options_.num_levels;
  build.tile_width = options_.tile_size;
  build.tile_height = options_.tile_size;
  build.agg_kinds = {array::AggKind::kMin, array::AggKind::kAvg,
                     array::AggKind::kMax, array::AggKind::kMax};
  build.signature_attr = "ndsi_avg";
  build.toolbox = dataset.toolbox.get();
  build.training_sample_max = options_.codebook_training_tiles;
  build.seed = options_.seed;

  tiles::TilePyramidBuilder builder(build);
  FC_ASSIGN_OR_RETURN(dataset.pyramid, builder.Build(composite));
  return dataset;
}

}  // namespace fc::sim
