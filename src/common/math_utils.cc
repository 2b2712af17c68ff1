#include "common/math_utils.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fc {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size()));
}

double SampleVariance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = Mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = Clamp(p, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

LinearFit FitLinear(const std::vector<double>& xs, const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  LinearFit fit;
  fit.n = xs.size();
  if (xs.size() < 2) return fit;
  double mx = Mean(xs);
  double my = Mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double dx = xs[i] - mx;
    double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy > 0.0) {
    double ss_res = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double pred = fit.intercept + fit.slope * xs[i];
      ss_res += (ys[i] - pred) * (ys[i] - pred);
    }
    fit.r_squared = 1.0 - ss_res / syy;
    auto n = static_cast<double>(xs.size());
    if (n > 2.0) {
      fit.adj_r_squared = 1.0 - (1.0 - fit.r_squared) * (n - 1.0) / (n - 2.0);
    } else {
      fit.adj_r_squared = fit.r_squared;
    }
  } else {
    fit.r_squared = 1.0;
    fit.adj_r_squared = 1.0;
  }
  return fit;
}

double L2Norm(const std::vector<double>& v) {
  double ss = 0.0;
  for (double x : v) ss += x * x;
  return std::sqrt(ss);
}

double WeightedL2Norm(const std::vector<double>& v, const std::vector<double>& w) {
  assert(v.size() == w.size());
  double ss = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) ss += w[i] * v[i] * v[i];
  return std::sqrt(ss);
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    ss += d * d;
  }
  return std::sqrt(ss);
}

double ChiSquaredDistance(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  // Each bin's term is taken with a select, so sparse histograms' empty
  // bins cost no mispredicted branch; a skipped bin adds +0.0, which leaves
  // the sum's bits alone (the sum starts at +0.0 and every kept term is
  // +0.0 or more, or NaN). The sum still runs in bin order.
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double denom = a[i] + b[i];
    double d = a[i] - b[i];
    double term = d * d / denom;
    sum += denom > 0.0 ? term : 0.0;
  }
  return 0.5 * sum;
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

int ClampInt(int x, int lo, int hi) { return std::max(lo, std::min(hi, x)); }

void NormalizeToSum1(std::vector<double>* v) {
  double sum = 0.0;
  for (double x : *v) sum += x;
  if (sum <= 0.0) return;
  for (double& x : *v) x /= sum;
}

}  // namespace fc
