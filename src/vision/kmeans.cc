#include "vision/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace fc::vision {

namespace {

double SquaredDistance(const std::vector<double>& a, const std::vector<double>& b) {
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    ss += d * d;
  }
  return ss;
}

// k-means++ seeding: first center uniform, then proportional to D^2, each
// point's squared distance to its nearest center so far. A new center only
// lowers D^2, so each round folds in the newest center alone: the same
// minimum, taken in the same center order, as a fold over every center.
std::vector<std::vector<double>> SeedCenters(
    const std::vector<std::vector<double>>& points, std::size_t k, Rng* rng) {
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  centers.push_back(points[rng->UniformUint32(static_cast<std::uint32_t>(points.size()))]);
  std::vector<double> d2(points.size(), std::numeric_limits<double>::infinity());
  while (centers.size() < k) {
    const std::vector<double>& newest = centers.back();
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(d2[i], SquaredDistance(points[i], newest));
    }
    std::size_t next = rng->WeightedIndex(d2);
    centers.push_back(points[next]);
  }
  return centers;
}

}  // namespace

std::size_t NearestCenter(const std::vector<std::vector<double>>& centers,
                          const std::vector<double>& point) {
  FC_CHECK(!centers.empty());
  const std::size_t dim = point.size();
  for (const auto& center : centers) {
    FC_CHECK_MSG(center.size() == dim,
                 "NearestCenter: the point and the centers differ in dimension");
  }
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  auto consider = [&](std::size_t c, double d) {
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  };
  // Four centers at a time: four independent sums, each still taken in
  // dimension order, then compared in center order so a tie keeps the
  // lowest index.
  const double* p = point.data();
  std::size_t c = 0;
  for (; c + 4 <= centers.size(); c += 4) {
    const double* c0 = centers[c].data();
    const double* c1 = centers[c + 1].data();
    const double* c2 = centers[c + 2].data();
    const double* c3 = centers[c + 3].data();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d0 = c0[i] - p[i];
      const double d1 = c1[i] - p[i];
      const double d2 = c2[i] - p[i];
      const double d3 = c3[i] - p[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    consider(c, s0);
    consider(c + 1, s1);
    consider(c + 2, s2);
    consider(c + 3, s3);
  }
  for (; c < centers.size(); ++c) consider(c, SquaredDistance(centers[c], point));
  return best;
}

Result<KMeansResult> KMeans(const std::vector<std::vector<double>>& points,
                            const KMeansOptions& options, Rng* rng) {
  if (points.empty()) return Status::InvalidArgument("k-means: no points");
  if (options.k == 0) return Status::InvalidArgument("k-means: k must be > 0");
  std::size_t dim = points[0].size();
  if (dim == 0) return Status::InvalidArgument("k-means: zero-dimensional points");
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("k-means: inconsistent point dimensions");
    }
  }

  std::size_t k = std::min(options.k, points.size());
  KMeansResult result;
  result.centers = SeedCenters(points, k, rng);
  result.assignments.assign(points.size(), 0);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step.
    for (std::size_t i = 0; i < points.size(); ++i) {
      result.assignments[i] = NearestCenter(result.centers, points[i]);
    }
    // Update step.
    std::vector<std::vector<double>> new_centers(k, std::vector<double>(dim, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::size_t c = result.assignments[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) new_centers[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point to keep k clusters alive.
        new_centers[c] =
            points[rng->UniformUint32(static_cast<std::uint32_t>(points.size()))];
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        new_centers[c][d] /= static_cast<double>(counts[c]);
      }
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement += std::sqrt(SquaredDistance(result.centers[c], new_centers[c]));
    }
    result.centers = std::move(new_centers);
    if (movement < options.tolerance) break;
  }

  // Final assignment + inertia.
  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.assignments[i] = NearestCenter(result.centers, points[i]);
    result.inertia += SquaredDistance(points[i], result.centers[result.assignments[i]]);
  }
  return result;
}

}  // namespace fc::vision
