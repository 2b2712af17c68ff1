// PredictionEngine: the paper's two-level prediction engine (section 4).
//
// Top level: an SVM classifier infers the user's current analysis phase.
// Bottom level: the AB and SB recommenders each produce a ranked tile list.
// An allocation strategy splits the prefetch budget k between them based on
// the predicted phase; the engine merges the lists into one ranked prefetch
// order P = [T1, T2, ...].

#ifndef FORECACHE_CORE_PREDICTION_ENGINE_H_
#define FORECACHE_CORE_PREDICTION_ENGINE_H_

#include <vector>

#include "core/allocation.h"
#include "core/phase_classifier.h"
#include "core/recommender.h"
#include "core/roi_tracker.h"

namespace fc::core {

struct PredictionEngineOptions {
  std::size_t prefetch_k = 5;      ///< Tiles fetchable before the next request.
  int candidate_distance = 1;      ///< d: max moves from r (paper default 1).
  std::size_t history_length = 8;  ///< n: retained requests (paper's H).
};

/// One prediction: the inferred phase and the ranked prefetch list.
struct EnginePrediction {
  AnalysisPhase phase = AnalysisPhase::kForaging;
  RankedTiles tiles;           ///< Size <= prefetch_k.
  /// Per-tile confidence in (0, 1], parallel to `tiles`: rank-decayed
  /// (1/(1+rank)), at full strength only when BOTH recommenders ranked the
  /// tile — cross-model agreement is the engine's certainty signal. A tile
  /// only one model predicted is scaled by 0.6, so single-source
  /// predictions never reach the shared cache's default
  /// priority-admission bound (0.9): one confidently wrong model — or a
  /// scan dressed up as momentum — cannot force cold tiles past the
  /// admission filter. A proxy until the recommenders expose calibrated
  /// scores.
  std::vector<double> confidences;
  Allocation allocation;       ///< The split that produced `tiles`.
};

class PredictionEngine {
 public:
  /// All pointers must outlive the engine. `classifier` may be null, in
  /// which case every request is treated as `fallback_phase` (used for
  /// single-model ablations).
  PredictionEngine(const tiles::PyramidSpec* spec, const PhaseClassifier* classifier,
                   const Recommender* ab, const Recommender* sb,
                   const AllocationStrategy* strategy,
                   PredictionEngineOptions options = {});

  /// Processes one user request: updates history and ROI state, classifies
  /// the phase, runs the allocated recommenders, and returns the merged
  /// prefetch list.
  Result<EnginePrediction> OnRequest(const TileRequest& request);

  /// Clears session state (history + ROI) for a new session.
  void Reset();

  const SessionHistory& history() const { return history_; }
  const RoiTracker& roi_tracker() const { return roi_tracker_; }
  const PredictionEngineOptions& options() const { return options_; }

  AnalysisPhase fallback_phase = AnalysisPhase::kNavigation;

 private:
  const tiles::PyramidSpec* spec_;
  const PhaseClassifier* classifier_;
  const Recommender* ab_;
  const Recommender* sb_;
  const AllocationStrategy* strategy_;
  PredictionEngineOptions options_;

  SessionHistory history_;
  RoiTracker roi_tracker_;
  // The context OnRequest hands the recommenders, refilled in place on
  // every request so its candidate and reference vectors keep their
  // capacity.
  PredictionContext ctx_;
};

/// Merges two ranked lists under an allocation: the priority model fills its
/// slots first, then the other fills the rest, skipping duplicates. Unfilled
/// slots are handed to the other model. Result size <= k.
RankedTiles MergeRankedLists(const RankedTiles& ab, const RankedTiles& sb,
                             const Allocation& allocation, std::size_t k);

}  // namespace fc::core

#endif  // FORECACHE_CORE_PREDICTION_ENGINE_H_
