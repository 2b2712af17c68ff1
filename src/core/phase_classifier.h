// Analysis-phase classifier: the top level of the two-level prediction
// engine (paper section 4.2.2). A multi-class RBF SVM over the six features
// of paper Table 1, trained on labeled traces.

#ifndef FORECACHE_CORE_PHASE_CLASSIFIER_H_
#define FORECACHE_CORE_PHASE_CLASSIFIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/request.h"
#include "svm/scaler.h"
#include "svm/svm.h"

namespace fc::core {

/// The six input features of paper Table 1.
enum class PhaseFeature : int {
  kX = 0,            ///< X position (in tiles).
  kY = 1,            ///< Y position (in tiles).
  kZoomLevel = 2,    ///< Zoom level id.
  kPanFlag = 3,      ///< 1 if the user panned, else 0.
  kZoomInFlag = 4,   ///< 1 if the user zoomed in, else 0.
  kZoomOutFlag = 5,  ///< 1 if the user zoomed out, else 0.
};

inline constexpr std::size_t kNumPhaseFeatures = 6;

std::string_view PhaseFeatureToString(PhaseFeature feature);

/// The feature vector for one request (the flags describe the move that
/// produced the request; a session-opening request has all flags 0).
std::vector<double> ExtractPhaseFeatures(const TileRequest& request);

struct PhaseClassifierOptions {
  svm::SvmOptions svm;  ///< Defaults to an RBF kernel (the paper's choice).

  /// Restricts training/prediction to a feature subset; empty = all six.
  /// Used to reproduce Table 1's per-feature accuracies.
  std::vector<PhaseFeature> feature_subset;

  /// Deterministically subsamples training rows above this count (0 = off).
  /// LOOCV over 54 traces trains many SVMs; subsampling bounds the cost.
  std::size_t max_training_rows = 0;

  std::uint64_t seed = 29;
};

class PhaseClassifier {
 public:
  PhaseClassifier() = default;

  /// Trains scaler + one-vs-one SVM on the labeled records of `traces`.
  static Result<PhaseClassifier> Train(const std::vector<Trace>& traces,
                                       PhaseClassifierOptions options = {});

  /// Predicts the phase for one request.
  ///
  /// The six features are functions of (level, x, y, move class), the move
  /// class being none, pan, zoom-in or zoom-out, so a trained classifier
  /// answers from an exact memo keyed by those four values: a fixed table
  /// of kMemoSlots 64-bit words, each packing a whole key and its label,
  /// direct-mapped by a hash of the key. Only a miss, a slot holding
  /// another key, or a key outside the packed range (level in [0, 64), x
  /// and y in [0, 2^26)) runs the scaler and the SVM, and a miss then
  /// overwrites the slot. Threads sharing the classifier fill the memo
  /// concurrently through its atomic words: a lookup checks the whole
  /// key, so a word from another thread is either this key's label or
  /// ignored.
  AnalysisPhase Predict(const TileRequest& request) const;

  /// Fraction of records in `traces` whose label matches the prediction.
  double EvaluateAccuracy(const std::vector<Trace>& traces) const;

  const svm::FeatureScaler& scaler() const { return scaler_; }
  const svm::MulticlassSvm& svm() const { return svm_; }

  static constexpr std::size_t kMemoSlots = 4096;  // 32 KiB

 private:
  /// The configured feature subset of `full`; `full` itself, moved, when
  /// no subset is set.
  std::vector<double> ProjectFeatures(std::vector<double> full) const;

  /// The scaler and the SVM on the request's features (the memo's miss
  /// path).
  int PredictLabel(const TileRequest& request) const;

  PhaseClassifierOptions options_;
  svm::FeatureScaler scaler_;
  svm::MulticlassSvm svm_;
  // The memo; null until Train. Behind a pointer so the classifier stays
  // movable (atomics are not).
  std::unique_ptr<std::atomic<std::uint64_t>[]> memo_;
};

}  // namespace fc::core

#endif  // FORECACHE_CORE_PHASE_CLASSIFIER_H_
