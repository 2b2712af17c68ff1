// Kernel functions for the SVM substrate (the LibSVM stand-in).

#ifndef FORECACHE_SVM_KERNEL_H_
#define FORECACHE_SVM_KERNEL_H_

#include <cstddef>
#include <string_view>
#include <vector>

namespace fc::svm {

enum class KernelKind {
  kLinear,  ///< x . z
  kRbf,     ///< exp(-gamma * |x - z|^2) — the paper's choice (section 4.2.2)
  kPoly,    ///< (gamma * x.z + coef0)^degree
};

std::string_view KernelKindToString(KernelKind kind);

struct KernelParams {
  KernelKind kind = KernelKind::kRbf;
  double gamma = 0.5;
  double coef0 = 0.0;
  int degree = 3;
};

/// K(a, b) under `params`. Vectors must have equal lengths.
double EvaluateKernel(const KernelParams& params, const std::vector<double>& a,
                      const std::vector<double>& b);

/// K(a, b) over the first `n` coordinates of `a` and `b`.
double EvaluateKernel(const KernelParams& params, const double* a, const double* b,
                      std::size_t n);

}  // namespace fc::svm

#endif  // FORECACHE_SVM_KERNEL_H_
