// SIFT: scale-invariant feature transform, from scratch (the OpenCV stand-in).
//
// Pipeline (Lowe 2004, simplified to what tile signatures need):
//  1. Gaussian scale space across octaves.
//  2. Difference-of-Gaussians extrema detection with contrast and edge
//     (Hessian ratio) rejection.
//  3. Dominant-orientation assignment from a 36-bin gradient histogram.
//  4. 128-d descriptor: 4x4 spatial grid x 8 orientation bins of Gaussian-
//     weighted, rotation-normalized gradients; L2-normalized, clamped at
//     0.2, renormalized.
//
// DenseSift skips detection and computes unrotated descriptors on a regular
// grid at a fixed scale, capturing "entire image" structure — the property
// that makes it *worse* than sparse SIFT for ForeCache's tile matching
// (paper section 5.4.2).

#ifndef FORECACHE_VISION_SIFT_H_
#define FORECACHE_VISION_SIFT_H_

#include <cstddef>
#include <vector>

#include "vision/raster.h"

namespace fc::vision {

/// A detected interest point in image coordinates.
struct Keypoint {
  double x = 0.0;
  double y = 0.0;
  double scale = 1.0;        ///< Sigma of the level it was found at.
  double orientation = 0.0;  ///< Radians in [0, 2*pi).
  double response = 0.0;     ///< |DoG| value at the extremum.
  int octave = 0;
};

/// A keypoint plus its 128-d descriptor.
struct SiftFeature {
  Keypoint keypoint;
  std::vector<double> descriptor;  ///< Size kDescriptorDims.
};

inline constexpr std::size_t kDescriptorDims = 128;

/// Tunables for the sparse detector.
struct SiftOptions {
  int num_octaves = 3;            ///< Pyramid depth (halving resolution each).
  int scales_per_octave = 3;      ///< DoG levels searched per octave.
  double base_sigma = 1.6;        ///< Sigma of the first pyramid level.
  double contrast_threshold = 0.015;  ///< Min |DoG| for a keypoint.
  double edge_ratio = 10.0;       ///< Max Hessian eigenvalue ratio.
  std::size_t max_features = 256; ///< Keep strongest N (0 = unlimited).

  /// Rescale the input to full [0,1] range before detection. Disable when
  /// inputs are already on a known absolute scale — per-image normalization
  /// amplifies sensor noise in near-flat images into spurious keypoints.
  bool normalize_input = true;

  /// Double the image before building the pyramid (Lowe's "-1 octave");
  /// recovers small-scale keypoints on small tiles.
  bool upsample_first = false;
};

/// Sparse SIFT extractor.
class SiftExtractor {
 public:
  explicit SiftExtractor(SiftOptions options = {});

  const SiftOptions& options() const { return options_; }

  /// Detects keypoints and computes their descriptors. The input raster is
  /// range-normalized internally; callers pass raw tile data.
  std::vector<SiftFeature> Extract(const Raster& img) const;

  /// Detection only (used by tests to validate the detector separately).
  std::vector<Keypoint> DetectKeypoints(const Raster& img) const;

 private:
  SiftOptions options_;
};

/// Tunables for the dense variant.
struct DenseSiftOptions {
  std::size_t step = 8;      ///< Grid stride in pixels.
  double patch_scale = 2.0;  ///< Descriptor support sigma.
  bool normalize_input = true;  ///< See SiftOptions::normalize_input.
};

/// Dense-grid SIFT descriptors (no detection, no rotation normalization).
class DenseSiftExtractor {
 public:
  explicit DenseSiftExtractor(DenseSiftOptions options = {});

  const DenseSiftOptions& options() const { return options_; }

  std::vector<SiftFeature> Extract(const Raster& img) const;

 private:
  DenseSiftOptions options_;
};

}  // namespace fc::vision

#endif  // FORECACHE_VISION_SIFT_H_
