#include "core/phase_classifier.h"

#include <algorithm>

#include "common/rng.h"

namespace fc::core {

std::string_view PhaseFeatureToString(PhaseFeature feature) {
  switch (feature) {
    case PhaseFeature::kX: return "x_position";
    case PhaseFeature::kY: return "y_position";
    case PhaseFeature::kZoomLevel: return "zoom_level";
    case PhaseFeature::kPanFlag: return "pan_flag";
    case PhaseFeature::kZoomInFlag: return "zoom_in_flag";
    case PhaseFeature::kZoomOutFlag: return "zoom_out_flag";
  }
  return "?";
}

std::vector<double> ExtractPhaseFeatures(const TileRequest& request) {
  std::vector<double> f(kNumPhaseFeatures, 0.0);
  f[0] = static_cast<double>(request.tile.x);
  f[1] = static_cast<double>(request.tile.y);
  f[2] = static_cast<double>(request.tile.level);
  if (request.move.has_value()) {
    f[3] = IsPan(*request.move) ? 1.0 : 0.0;
    f[4] = IsZoomIn(*request.move) ? 1.0 : 0.0;
    f[5] = IsZoomOut(*request.move) ? 1.0 : 0.0;
  }
  return f;
}

std::vector<double> PhaseClassifier::ProjectFeatures(
    std::vector<double> full) const {
  if (options_.feature_subset.empty()) return full;
  std::vector<double> out;
  out.reserve(options_.feature_subset.size());
  for (PhaseFeature pf : options_.feature_subset) {
    out.push_back(full[static_cast<std::size_t>(pf)]);
  }
  return out;
}

Result<PhaseClassifier> PhaseClassifier::Train(const std::vector<Trace>& traces,
                                               PhaseClassifierOptions options) {
  PhaseClassifier clf;
  clf.options_ = std::move(options);

  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (const auto& trace : traces) {
    for (const auto& rec : trace.records) {
      rows.push_back(clf.ProjectFeatures(ExtractPhaseFeatures(rec.request)));
      labels.push_back(static_cast<int>(rec.phase));
    }
  }
  if (rows.empty()) {
    return Status::InvalidArgument("phase classifier: no training records");
  }

  if (clf.options_.max_training_rows > 0 && rows.size() > clf.options_.max_training_rows) {
    // Deterministic uniform subsample that preserves order.
    Rng rng(clf.options_.seed);
    std::vector<std::size_t> indices(rows.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    rng.Shuffle(&indices);
    indices.resize(clf.options_.max_training_rows);
    std::sort(indices.begin(), indices.end());
    std::vector<std::vector<double>> sub_rows;
    std::vector<int> sub_labels;
    sub_rows.reserve(indices.size());
    for (std::size_t i : indices) {
      sub_rows.push_back(std::move(rows[i]));
      sub_labels.push_back(labels[i]);
    }
    rows = std::move(sub_rows);
    labels = std::move(sub_labels);
  }

  FC_RETURN_IF_ERROR(clf.scaler_.Fit(rows));
  auto scaled = clf.scaler_.TransformAll(rows);
  FC_ASSIGN_OR_RETURN(clf.svm_,
                      svm::MulticlassSvm::Train(scaled, labels, clf.options_.svm));
  return clf;
}

AnalysisPhase PhaseClassifier::Predict(const TileRequest& request) const {
  int label = svm_.Predict(
      scaler_.Transform(ProjectFeatures(ExtractPhaseFeatures(request))));
  return static_cast<AnalysisPhase>(label);
}

double PhaseClassifier::EvaluateAccuracy(const std::vector<Trace>& traces) const {
  std::size_t total = 0;
  std::size_t correct = 0;
  for (const auto& trace : traces) {
    for (const auto& rec : trace.records) {
      ++total;
      if (Predict(rec.request) == rec.phase) ++correct;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace fc::core
