// Visual-word codebook: k-means cluster centers over SIFT descriptors.
//
// Paper Table 2: the SIFT signature is a "histogram built from clustered
// SIFT descriptors" — i.e. a bag-of-visual-words histogram. The codebook is
// trained once during tile metadata computation (paper section 2.3) and
// shared by every tile's signature.

#ifndef FORECACHE_VISION_CODEBOOK_H_
#define FORECACHE_VISION_CODEBOOK_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "vision/sift.h"

namespace fc::vision {

class Codebook {
 public:
  Codebook() = default;

  /// Trains `num_words` centers over descriptor vectors with k-means++.
  /// InvalidArgument if descriptors is empty.
  static Result<Codebook> Train(const std::vector<std::vector<double>>& descriptors,
                                std::size_t num_words, Rng* rng);

  /// Creates a codebook directly from centers (deserialization path).
  static Result<Codebook> FromCenters(std::vector<std::vector<double>> centers);

  bool trained() const { return !centers_.empty(); }
  std::size_t num_words() const { return centers_.size(); }
  const std::vector<std::vector<double>>& centers() const { return centers_; }

  /// Index of the visual word nearest to `descriptor`.
  /// Preconditions, checked in every build (a violation aborts): trained(),
  /// and descriptor.size() equals the centers' dimension.
  std::size_t Quantize(const std::vector<double>& descriptor) const;

  /// Normalized bag-of-visual-words histogram over a feature set.
  /// Returns an all-zero histogram when `features` is empty.
  std::vector<double> BuildHistogram(const std::vector<SiftFeature>& features) const;

 private:
  std::vector<std::vector<double>> centers_;
};

}  // namespace fc::vision

#endif  // FORECACHE_VISION_CODEBOOK_H_
