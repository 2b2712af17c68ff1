// Soft-margin SVM trained with a simplified Platt SMO, plus one-vs-one
// multiclass voting — the model class ForeCache's phase classifier uses
// (paper section 4.2.2: multi-class SVM with an RBF kernel).

#ifndef FORECACHE_SVM_SVM_H_
#define FORECACHE_SVM_SVM_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "svm/kernel.h"

namespace fc::svm {

struct SvmOptions {
  KernelParams kernel;
  double c = 1.0;            ///< Soft-margin penalty.
  double tolerance = 1e-3;   ///< KKT violation tolerance.
  std::size_t max_passes = 5;    ///< Consecutive no-change sweeps to converge.
  std::size_t max_iterations = 2000;  ///< Hard cap on full sweeps.
  std::uint64_t seed = 13;   ///< For SMO's randomized second-index choice.
};

/// Binary classifier with labels +1 / -1.
class BinarySvm {
 public:
  BinarySvm() = default;

  /// Trains on rows `x` with labels `y` in {-1, +1}. InvalidArgument on
  /// empty/ragged input, labels outside {-1,+1}, or single-class data.
  static Result<BinarySvm> Train(const std::vector<std::vector<double>>& x,
                                 const std::vector<int>& y, const SvmOptions& options);

  /// Signed decision value f(x) = sum alpha_i y_i K(x_i, x) + b.
  double DecisionValue(const std::vector<double>& x) const;

  /// +1 or -1.
  int Predict(const std::vector<double>& x) const {
    return DecisionValue(x) >= 0.0 ? 1 : -1;
  }

  std::size_t num_support_vectors() const { return support_vectors_.size(); }
  double bias() const { return bias_; }
  const SvmOptions& options() const { return options_; }

 private:
  friend class MulticlassSvm;  // copies the support vectors into its table

  SvmOptions options_;
  std::vector<std::vector<double>> support_vectors_;
  std::vector<double> coefficients_;  // alpha_i * y_i per support vector
  double bias_ = 0.0;
};

/// One-vs-one multiclass wrapper. Labels are arbitrary ints.
///
/// Training keeps the support vectors of all pairwise machines in one table
/// of distinct rows (bitwise-equal rows are stored once), so a prediction
/// evaluates one kernel per distinct row and each machine's decision value
/// once, summed in the machine's own order as BinarySvm::DecisionValue does.
class MulticlassSvm {
 public:
  MulticlassSvm() = default;

  /// Trains k*(k-1)/2 pairwise machines. InvalidArgument if fewer than 2
  /// classes are present.
  static Result<MulticlassSvm> Train(const std::vector<std::vector<double>>& x,
                                     const std::vector<int>& y,
                                     const SvmOptions& options);

  /// Majority vote across pairwise machines; ties break toward the class
  /// with the larger summed decision margin.
  int Predict(const std::vector<double>& x) const;

  /// Vote counts per class label.
  std::map<int, int> Votes(const std::vector<double>& x) const;

  const std::vector<int>& classes() const { return classes_; }
  std::size_t num_machines() const { return machines_.size(); }

 private:
  struct PairwiseMachine {
    std::size_t positive = 0;  // index into classes_
    std::size_t negative = 0;
    double bias = 0.0;
    // (row of rows_, alpha_i * y_i) per support vector, in the order
    // BinarySvm::Train kept them.
    std::vector<std::pair<std::size_t, double>> terms;
  };

  // Votes and summed signed decision margins per class, indexed like
  // classes_. Count works in per-thread buffers (grown, never shrunk), and
  // the tally points into them until the thread's next Count.
  struct Tally {
    const int* votes;
    const double* margins;
  };
  Tally Count(const std::vector<double>& x) const;

  KernelParams kernel_;
  std::size_t dims_ = 0;
  std::size_t num_rows_ = 0;
  std::vector<double> rows_;  // distinct support vectors, row-major
  std::vector<int> classes_;
  std::vector<PairwiseMachine> machines_;
};

/// Fraction of predictions matching labels (0 for empty input).
double ClassificationAccuracy(const MulticlassSvm& model,
                              const std::vector<std::vector<double>>& x,
                              const std::vector<int>& y);

}  // namespace fc::svm

#endif  // FORECACHE_SVM_SVM_H_
