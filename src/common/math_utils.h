// Small numeric helpers shared across modules: summary statistics,
// ordinary-least-squares regression, and vector norms/distances.

#ifndef FORECACHE_COMMON_MATH_UTILS_H_
#define FORECACHE_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <vector>

namespace fc {

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Population standard deviation; 0 for fewer than 2 elements.
double StdDev(const std::vector<double>& xs);

/// Sample variance (n-1 denominator); 0 for fewer than 2 elements.
double SampleVariance(const std::vector<double>& xs);

/// p-th percentile (p in [0,100]) by linear interpolation; 0 if empty.
double Percentile(std::vector<double> xs, double p);

/// Result of a simple (y = intercept + slope * x) least-squares fit.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;      ///< Coefficient of determination.
  double adj_r_squared = 0.0;  ///< Adjusted for the single predictor.
  std::size_t n = 0;
};

/// Ordinary least squares over paired samples. Requires xs.size() == ys.size().
/// With fewer than 2 points, returns a zero fit.
LinearFit FitLinear(const std::vector<double>& xs, const std::vector<double>& ys);

/// Euclidean (L2) norm.
double L2Norm(const std::vector<double>& v);

/// Weighted L2 norm: sqrt(sum_i w_i * v_i^2). Sizes must match.
double WeightedL2Norm(const std::vector<double>& v, const std::vector<double>& w);

/// L1 distance between equal-length vectors.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

/// L2 distance between equal-length vectors.
double L2Distance(const std::vector<double>& a, const std::vector<double>& b);

/// Chi-squared histogram distance: 0.5 * sum (a-b)^2 / (a+b), terms whose
/// a+b is not positive skipped, summed in bin order. Standard metric for
/// comparing (unnormalized) histograms.
double ChiSquaredDistance(const std::vector<double>& a, const std::vector<double>& b);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);
int ClampInt(int x, int lo, int hi);

/// Normalizes v to sum 1 in place; no-op if the sum is not positive.
void NormalizeToSum1(std::vector<double>* v);

}  // namespace fc

#endif  // FORECACHE_COMMON_MATH_UTILS_H_
