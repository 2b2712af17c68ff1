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
  clf.memo_ = std::make_unique<std::atomic<std::uint64_t>[]>(kMemoSlots);
  return clf;
}

namespace {

// A memo word, low bits first: the label (2 bits), the move class (2: none,
// pan, zoom-in, zoom-out), the level (6), x (26), y (26), then a set bit 63,
// so that no key's word is the empty slot's 0. A key is its word without
// the label bits.
constexpr std::uint64_t kLabelMask = 0x3;
constexpr int kCoordBits = 26;
constexpr int kLevelBits = 6;

// The key of `request`, or 0 when its level or coordinates do not fit.
std::uint64_t MemoKey(const TileRequest& request) {
  const tiles::TileKey& tile = request.tile;
  if (tile.level < 0 || tile.level >= (1 << kLevelBits) || tile.x < 0 ||
      tile.x >= (std::int64_t{1} << kCoordBits) || tile.y < 0 ||
      tile.y >= (std::int64_t{1} << kCoordBits)) {
    return 0;
  }
  std::uint64_t move_class = 0;
  if (request.move.has_value()) {
    // ExtractPhaseFeatures' flags: exactly one is set for any move.
    move_class = IsPan(*request.move) ? 1 : IsZoomIn(*request.move) ? 2 : 3;
  }
  return (std::uint64_t{1} << 63) |
         (static_cast<std::uint64_t>(tile.y) << (10 + kCoordBits)) |
         (static_cast<std::uint64_t>(tile.x) << 10) |
         (static_cast<std::uint64_t>(tile.level) << 4) | (move_class << 2);
}

std::size_t MemoSlot(std::uint64_t key) {
  // Fibonacci hashing: the top 12 bits of the key times 2^64/phi.
  static_assert(PhaseClassifier::kMemoSlots == 4096);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 52);
}

}  // namespace

int PhaseClassifier::PredictLabel(const TileRequest& request) const {
  return svm_.Predict(
      scaler_.Transform(ProjectFeatures(ExtractPhaseFeatures(request))));
}

AnalysisPhase PhaseClassifier::Predict(const TileRequest& request) const {
  const std::uint64_t key = memo_ != nullptr ? MemoKey(request) : 0;
  if (key == 0) return static_cast<AnalysisPhase>(PredictLabel(request));
  std::atomic<std::uint64_t>& slot = memo_[MemoSlot(key)];
  const std::uint64_t word = slot.load();
  if ((word & ~kLabelMask) == key) {
    return static_cast<AnalysisPhase>(word & kLabelMask);
  }
  const int label = PredictLabel(request);
  if (label >= 0 && static_cast<std::uint64_t>(label) <= kLabelMask) {
    slot.store(key | static_cast<std::uint64_t>(label));
  }
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
