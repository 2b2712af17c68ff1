#include "svm/svm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/logging.h"

namespace fc::svm {

namespace {

// Full kernel matrix; problems here are small (<= a few thousand rows).
std::vector<std::vector<double>> BuildKernelMatrix(
    const std::vector<std::vector<double>>& x, const KernelParams& kernel) {
  std::size_t n = x.size();
  std::vector<std::vector<double>> k(n, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double v = EvaluateKernel(kernel, x[i], x[j]);
      k[i][j] = v;
      k[j][i] = v;
    }
  }
  return k;
}

}  // namespace

Result<BinarySvm> BinarySvm::Train(const std::vector<std::vector<double>>& x,
                                   const std::vector<int>& y,
                                   const SvmOptions& options) {
  if (x.empty()) return Status::InvalidArgument("svm: no training rows");
  if (x.size() != y.size()) {
    return Status::InvalidArgument("svm: rows and labels differ in size");
  }
  std::size_t dims = x[0].size();
  bool has_pos = false;
  bool has_neg = false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != dims) return Status::InvalidArgument("svm: ragged rows");
    if (y[i] == 1) has_pos = true;
    else if (y[i] == -1) has_neg = true;
    else return Status::InvalidArgument("svm: labels must be +1 or -1");
  }
  if (!has_pos || !has_neg) {
    return Status::InvalidArgument("svm: training data must contain both classes");
  }

  const std::size_t n = x.size();
  const double c = options.c;
  const double tol = options.tolerance;
  auto kmat = BuildKernelMatrix(x, options.kernel);
  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  Rng rng(options.seed);

  // Cached decision values f[i] = sum_j alpha_j y_j K(j,i) + b, updated
  // incrementally on every alpha/b change (keeps each sweep O(n) amortized
  // per successful update instead of O(n) per decision evaluation).
  std::vector<double> f(n, 0.0);

  // Simplified Platt SMO (Ng's CS229 variant) with random second index.
  std::size_t passes = 0;
  std::size_t iterations = 0;
  while (passes < options.max_passes && iterations < options.max_iterations) {
    std::size_t num_changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double ei = f[i] - y[i];
      bool violates = (y[i] * ei < -tol && alpha[i] < c) ||
                      (y[i] * ei > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = rng.UniformUint32(static_cast<std::uint32_t>(n - 1));
      if (j >= i) ++j;
      double ej = f[j] - y[j];

      double ai_old = alpha[i];
      double aj_old = alpha[j];
      double lo;
      double hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      double eta = 2.0 * kmat[i][j] - kmat[i][i] - kmat[j][j];
      if (eta >= 0.0) continue;

      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-5) continue;
      double ai = ai_old + y[i] * y[j] * (aj_old - aj);

      alpha[i] = ai;
      alpha[j] = aj;

      double b1 = b - ei - y[i] * (ai - ai_old) * kmat[i][i] -
                  y[j] * (aj - aj_old) * kmat[i][j];
      double b2 = b - ej - y[i] * (ai - ai_old) * kmat[i][j] -
                  y[j] * (aj - aj_old) * kmat[j][j];
      double b_new;
      if (ai > 0.0 && ai < c) b_new = b1;
      else if (aj > 0.0 && aj < c) b_new = b2;
      else b_new = 0.5 * (b1 + b2);

      double dai = (ai - ai_old) * y[i];
      double daj = (aj - aj_old) * y[j];
      double db = b_new - b;
      for (std::size_t kidx = 0; kidx < n; ++kidx) {
        f[kidx] += dai * kmat[i][kidx] + daj * kmat[j][kidx] + db;
      }
      b = b_new;

      ++num_changed;
    }
    ++iterations;
    passes = (num_changed == 0) ? passes + 1 : 0;
  }

  BinarySvm model;
  model.options_ = options;
  model.bias_ = b;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) {
      model.support_vectors_.push_back(x[i]);
      model.coefficients_.push_back(alpha[i] * y[i]);
    }
  }
  return model;
}

double BinarySvm::DecisionValue(const std::vector<double>& x) const {
  double f = bias_;
  for (std::size_t i = 0; i < support_vectors_.size(); ++i) {
    f += coefficients_[i] * EvaluateKernel(options_.kernel, support_vectors_[i], x);
  }
  return f;
}

Result<MulticlassSvm> MulticlassSvm::Train(const std::vector<std::vector<double>>& x,
                                           const std::vector<int>& y,
                                           const SvmOptions& options) {
  if (x.size() != y.size() || x.empty()) {
    return Status::InvalidArgument("multiclass svm: bad training input");
  }
  std::vector<int> classes = y;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  if (classes.size() < 2) {
    return Status::InvalidArgument("multiclass svm: need >= 2 classes");
  }

  MulticlassSvm model;
  model.kernel_ = options.kernel;
  model.dims_ = x[0].size();
  model.classes_ = classes;
  // Row of rows_ per distinct support vector, keyed by the row's bytes.
  std::unordered_map<std::string, std::size_t> row_of;
  for (std::size_t a = 0; a < classes.size(); ++a) {
    for (std::size_t bp = a + 1; bp < classes.size(); ++bp) {
      std::vector<std::vector<double>> xs;
      std::vector<int> ys;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (y[i] == classes[a]) {
          xs.push_back(x[i]);
          ys.push_back(1);
        } else if (y[i] == classes[bp]) {
          xs.push_back(x[i]);
          ys.push_back(-1);
        }
      }
      FC_ASSIGN_OR_RETURN(auto svm, BinarySvm::Train(xs, ys, options));
      PairwiseMachine machine{a, bp, svm.bias_, {}};
      for (std::size_t i = 0; i < svm.support_vectors_.size(); ++i) {
        const auto& sv = svm.support_vectors_[i];
        auto [it, added] = row_of.try_emplace(
            std::string(reinterpret_cast<const char*>(sv.data()),
                        sv.size() * sizeof(double)),
            model.num_rows_);
        if (added) {
          model.rows_.insert(model.rows_.end(), sv.begin(), sv.end());
          ++model.num_rows_;
        }
        machine.terms.emplace_back(it->second, svm.coefficients_[i]);
      }
      model.machines_.push_back(std::move(machine));
    }
  }
  return model;
}

namespace {

struct CountScratch {
  std::vector<double> kernel;
  std::vector<int> votes;
  std::vector<double> margins;
};

}  // namespace

MulticlassSvm::Tally MulticlassSvm::Count(const std::vector<double>& x) const {
  assert(machines_.empty() || x.size() == dims_);
  thread_local CountScratch scratch;
  std::vector<double>& kernel = scratch.kernel;
  if (kernel.size() < num_rows_) kernel.resize(num_rows_);
  for (std::size_t r = 0; r < num_rows_; ++r) {
    kernel[r] = EvaluateKernel(kernel_, rows_.data() + r * dims_, x.data(), dims_);
  }
  std::vector<int>& votes = scratch.votes;
  std::vector<double>& margins = scratch.margins;
  votes.assign(classes_.size(), 0);
  margins.assign(classes_.size(), 0.0);
  for (const auto& m : machines_) {
    double f = m.bias;
    for (const auto& [row, coefficient] : m.terms) f += coefficient * kernel[row];
    ++votes[f >= 0.0 ? m.positive : m.negative];
    margins[m.positive] += f;
    margins[m.negative] -= f;
  }
  return {votes.data(), margins.data()};
}

std::map<int, int> MulticlassSvm::Votes(const std::vector<double>& x) const {
  Tally tally = Count(x);
  std::map<int, int> votes;
  for (std::size_t c = 0; c < classes_.size(); ++c) votes[classes_[c]] = tally.votes[c];
  return votes;
}

int MulticlassSvm::Predict(const std::vector<double>& x) const {
  FC_CHECK_MSG(!machines_.empty(), "predict on untrained multiclass svm");
  Tally tally = Count(x);
  // Tie-break by summed signed margins toward each class.
  std::size_t best = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (tally.votes[c] > tally.votes[best] ||
        (tally.votes[c] == tally.votes[best] &&
         tally.margins[c] > tally.margins[best])) {
      best = c;
    }
  }
  return classes_[best];
}

double ClassificationAccuracy(const MulticlassSvm& model,
                              const std::vector<std::vector<double>>& x,
                              const std::vector<int>& y) {
  if (x.empty() || x.size() != y.size()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (model.Predict(x[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.size());
}

}  // namespace fc::svm
