#include "svm/kernel.h"

#include <cassert>
#include <cmath>

namespace fc::svm {

std::string_view KernelKindToString(KernelKind kind) {
  switch (kind) {
    case KernelKind::kLinear: return "linear";
    case KernelKind::kRbf: return "rbf";
    case KernelKind::kPoly: return "poly";
  }
  return "?";
}

double EvaluateKernel(const KernelParams& params, const std::vector<double>& a,
                      const std::vector<double>& b) {
  assert(a.size() == b.size());
  return EvaluateKernel(params, a.data(), b.data(), a.size());
}

double EvaluateKernel(const KernelParams& params, const double* a, const double* b,
                      std::size_t n) {
  switch (params.kind) {
    case KernelKind::kLinear: {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += a[i] * b[i];
      return dot;
    }
    case KernelKind::kRbf: {
      double ss = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double d = a[i] - b[i];
        ss += d * d;
      }
      return std::exp(-params.gamma * ss);
    }
    case KernelKind::kPoly: {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += a[i] * b[i];
      return std::pow(params.gamma * dot + params.coef0, params.degree);
    }
  }
  return 0.0;
}

}  // namespace fc::svm
