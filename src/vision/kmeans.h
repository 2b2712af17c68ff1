// Lloyd's k-means with k-means++ seeding, used to build visual-word
// codebooks from SIFT descriptors.

#ifndef FORECACHE_VISION_KMEANS_H_
#define FORECACHE_VISION_KMEANS_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace fc::vision {

struct KMeansOptions {
  std::size_t k = 32;
  std::size_t max_iterations = 50;
  double tolerance = 1e-6;  ///< Stop when total center movement falls below.
};

struct KMeansResult {
  std::vector<std::vector<double>> centers;  ///< k centers (k may shrink if
                                             ///< there are fewer points).
  std::vector<std::size_t> assignments;      ///< Per-point center index.
  double inertia = 0.0;                      ///< Sum of squared distances.
  std::size_t iterations = 0;
};

/// Clusters `points` (all the same dimension) into at most `options.k`
/// groups. Deterministic given `rng`'s seed. InvalidArgument for empty input
/// or inconsistent dimensions.
Result<KMeansResult> KMeans(const std::vector<std::vector<double>>& points,
                            const KMeansOptions& options, Rng* rng);

/// Index of the center nearest to `point` (L2); a tie keeps the lowest index.
/// Preconditions, checked in every build (a violation aborts):
/// !centers.empty(), and every center has point.size() dimensions.
std::size_t NearestCenter(const std::vector<std::vector<double>>& centers,
                          const std::vector<double>& point);

}  // namespace fc::vision

#endif  // FORECACHE_VISION_KMEANS_H_
