// Signature-Based (SB) recommender: ranks candidate tiles by visual
// similarity to the user's most recent ROI (paper section 4.3.3,
// Algorithm 3).

#ifndef FORECACHE_CORE_SB_RECOMMENDER_H_
#define FORECACHE_CORE_SB_RECOMMENDER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/recommender.h"
#include "tiles/metadata.h"
#include "vision/signature.h"

namespace fc::core {

struct SbRecommenderOptions {
  /// Signatures consulted and their l2 weights (paper: equal by default).
  /// Empty map = SIFT only (the paper's best signature, section 5.4.2).
  std::map<vision::SignatureKind, double> signature_weights;
};

class SbRecommender : public Recommender {
 public:
  /// `metadata` and `toolbox` must outlive the recommender. The toolbox
  /// provides each signature's distance function.
  SbRecommender(const tiles::TileMetadataStore* metadata,
                const vision::SignatureToolbox* toolbox,
                SbRecommenderOptions options = {});

  std::string_view name() const override { return "sb"; }

  /// Algorithm 3 over ctx.candidates and ctx.roi. When the ROI is empty the
  /// recommender falls back to the most recent requested tiles (the user's
  /// history is the reference set, cf. paper Figure 6b).
  Result<RankedTiles> Recommend(const PredictionContext& ctx) const override;

  /// The combined distance of one candidate to one reference tile
  /// (Algorithm 3 lines 8-13, after per-signature normalization by
  /// `per_signature_max`). Exposed for tests.
  Result<double> PairDistance(const tiles::TileKey& candidate,
                              const tiles::TileKey& reference,
                              const std::map<vision::SignatureKind, double>&
                                  per_signature_max) const;

  const SbRecommenderOptions& options() const { return options_; }

 private:
  // A tile's signature per kind, in kinds_ order; nullptr where missing.
  using Signatures = std::vector<const std::vector<double>*>;
  Signatures SignaturesOf(const tiles::TileKey& key) const;

  // Algorithm 3 line 8 for every kind: the signature distance of a pair
  // `manhattan` tiles apart, times the physical penalty 2^(manhattan-1);
  // nullopt where the extractor or either signature is missing. Writes
  // kinds_.size() entries to `out`.
  void PenalizedDistances(const Signatures& a, const Signatures& b,
                          std::int64_t manhattan, std::optional<double>* out) const;

  // Algorithm 3 lines 10-13: the weighted l2-norm of the per-kind distances
  // normalized by `kind_max` (positive, kinds_ order), divided by the
  // physical distance; nullopt if any kind's distance is missing.
  std::optional<double> CombinedDistance(const std::optional<double>* penalized,
                                         const double* kind_max,
                                         std::int64_t manhattan) const;

  const tiles::TileMetadataStore* metadata_;
  const vision::SignatureToolbox* toolbox_;
  SbRecommenderOptions options_;
  std::vector<vision::SignatureKind> kinds_;  // resolved from options
  std::vector<double> weights_;
};

}  // namespace fc::core

#endif  // FORECACHE_CORE_SB_RECOMMENDER_H_
