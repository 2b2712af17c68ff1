#include "svm/scaler.h"

#include <cmath>

#include "common/logging.h"

namespace fc::svm {

Status FeatureScaler::Fit(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Status::InvalidArgument("scaler: no rows");
  std::size_t dims = rows[0].size();
  if (dims == 0) return Status::InvalidArgument("scaler: zero-dimensional rows");
  for (const auto& r : rows) {
    if (r.size() != dims) return Status::InvalidArgument("scaler: ragged rows");
  }
  means_.assign(dims, 0.0);
  stddevs_.assign(dims, 0.0);
  for (const auto& r : rows) {
    for (std::size_t d = 0; d < dims; ++d) means_[d] += r[d];
  }
  for (double& m : means_) m /= static_cast<double>(rows.size());
  for (const auto& r : rows) {
    for (std::size_t d = 0; d < dims; ++d) {
      double diff = r[d] - means_[d];
      stddevs_[d] += diff * diff;
    }
  }
  for (double& s : stddevs_) {
    s = std::sqrt(s / static_cast<double>(rows.size()));
  }
  return Status::OK();
}

std::vector<double> FeatureScaler::Transform(std::vector<double> row) const {
  FC_CHECK_MSG(fitted(), "scaler used before Fit");
  FC_CHECK(row.size() == means_.size());
  for (std::size_t d = 0; d < row.size(); ++d) {
    row[d] = stddevs_[d] > 1e-12 ? (row[d] - means_[d]) / stddevs_[d] : 0.0;
  }
  return row;
}

std::vector<std::vector<double>> FeatureScaler::TransformAll(
    const std::vector<std::vector<double>>& rows) const {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(Transform(r));
  return out;
}

}  // namespace fc::svm
