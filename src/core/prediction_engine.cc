#include "core/prediction_engine.h"

#include <algorithm>

namespace fc::core {

PredictionEngine::PredictionEngine(const tiles::PyramidSpec* spec,
                                   const PhaseClassifier* classifier,
                                   const Recommender* ab, const Recommender* sb,
                                   const AllocationStrategy* strategy,
                                   PredictionEngineOptions options)
    : spec_(spec),
      classifier_(classifier),
      ab_(ab),
      sb_(sb),
      strategy_(strategy),
      options_(options),
      history_(options.history_length) {}

void PredictionEngine::Reset() {
  history_.Clear();
  roi_tracker_.Reset();
}

RankedTiles MergeRankedLists(const RankedTiles& ab, const RankedTiles& sb,
                             const Allocation& allocation, std::size_t k) {
  const RankedTiles& first = allocation.ab_first ? ab : sb;
  const RankedTiles& second = allocation.ab_first ? sb : ab;
  std::size_t first_slots = allocation.ab_first ? allocation.ab_slots
                                                : allocation.sb_slots;

  RankedTiles merged;
  merged.reserve(k);
  auto add_unique = [&merged](const tiles::TileKey& key) {
    if (std::find(merged.begin(), merged.end(), key) == merged.end()) {
      merged.push_back(key);
      return true;
    }
    return false;
  };

  for (const auto& key : first) {
    if (merged.size() >= std::min(first_slots, k)) break;
    add_unique(key);
  }
  for (const auto& key : second) {
    if (merged.size() >= k) break;
    add_unique(key);
  }
  // If the second list ran dry (or was empty), let the first list overflow
  // its nominal slots — unfilled budget is wasted otherwise.
  for (const auto& key : first) {
    if (merged.size() >= k) break;
    add_unique(key);
  }
  return merged;
}

Result<EnginePrediction> PredictionEngine::OnRequest(const TileRequest& request) {
  // State updates happen before prediction: the request being served is part
  // of H when the engine predicts what comes next (paper section 4.1).
  history_.Add(request);
  roi_tracker_.Update(request);

  EnginePrediction prediction;
  prediction.phase =
      classifier_ != nullptr ? classifier_->Predict(request) : fallback_phase;

  PredictionContext& ctx = ctx_;
  ctx.request = request;
  ctx.history = &history_;
  ctx.spec = spec_;
  // Reference tiles for the SB model: the last committed ROI plus whatever
  // the user has visited since the current zoom-in (paper Figure 6b — the
  // "tiles in the user's history" of the region being explored right now).
  ctx.roi.assign(roi_tracker_.roi().begin(), roi_tracker_.roi().end());
  for (const auto& key : roi_tracker_.temp_roi()) {
    if (std::find(ctx.roi.begin(), ctx.roi.end(), key) == ctx.roi.end()) {
      ctx.roi.push_back(key);
    }
  }
  CandidateTiles(request.tile, *spec_, options_.candidate_distance, &ctx.candidates);

  prediction.allocation = strategy_->Allocate(prediction.phase, options_.prefetch_k);

  // A configured-but-missing model cedes its slots to the other before any
  // list is computed.
  if (ab_ == nullptr) {
    prediction.allocation.sb_slots += prediction.allocation.ab_slots;
    prediction.allocation.ab_slots = 0;
    prediction.allocation.ab_first = false;
  }
  if (sb_ == nullptr) {
    prediction.allocation.ab_slots += prediction.allocation.sb_slots;
    prediction.allocation.sb_slots = 0;
    prediction.allocation.ab_first = true;
  }

  RankedTiles ab_list;
  RankedTiles sb_list;
  if (prediction.allocation.ab_slots > 0 && ab_ != nullptr) {
    FC_ASSIGN_OR_RETURN(ab_list, ab_->Recommend(ctx));
  }
  if (prediction.allocation.sb_slots > 0 && sb_ != nullptr) {
    FC_ASSIGN_OR_RETURN(sb_list, sb_->Recommend(ctx));
  }

  prediction.tiles = MergeRankedLists(ab_list, sb_list, prediction.allocation,
                                      options_.prefetch_k);
  prediction.confidences.reserve(prediction.tiles.size());
  for (std::size_t i = 0; i < prediction.tiles.size(); ++i) {
    const tiles::TileKey& tile = prediction.tiles[i];
    const bool both_models_agree =
        std::find(ab_list.begin(), ab_list.end(), tile) != ab_list.end() &&
        std::find(sb_list.begin(), sb_list.end(), tile) != sb_list.end();
    const double rank_decay = 1.0 / static_cast<double>(1 + i);
    prediction.confidences.push_back(both_models_agree ? rank_decay
                                                       : 0.6 * rank_decay);
  }
  return prediction;
}

}  // namespace fc::core
