// Z-score feature scaling. RBF SVMs are scale-sensitive; the classifier
// pipeline standardizes features before training and prediction.

#ifndef FORECACHE_SVM_SCALER_H_
#define FORECACHE_SVM_SCALER_H_

#include <vector>

#include "common/result.h"

namespace fc::svm {

class FeatureScaler {
 public:
  FeatureScaler() = default;

  /// Learns per-feature mean and stddev. InvalidArgument if `rows` is empty
  /// or ragged. Constant features scale to 0.
  Status Fit(const std::vector<std::vector<double>>& rows);

  bool fitted() const { return !means_.empty(); }
  std::size_t dims() const { return means_.size(); }

  /// (x - mean) / stddev per feature, scaled in place in `row` and
  /// returned. Precondition: fitted(), matching dims.
  std::vector<double> Transform(std::vector<double> row) const;

  /// Transforms every row.
  std::vector<std::vector<double>> TransformAll(
      const std::vector<std::vector<double>>& rows) const;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

}  // namespace fc::svm

#endif  // FORECACHE_SVM_SCALER_H_
