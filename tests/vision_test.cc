// Unit tests for the vision substrate: rasters, Gaussian ops, SIFT,
// k-means, codebooks, histograms, signatures.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <utility>

#include "common/rng.h"
#include "vision/codebook.h"
#include "vision/histogram.h"
#include "vision/kmeans.h"
#include "vision/raster.h"
#include "vision/signature.h"
#include "vision/sift.h"

namespace fc::vision {
namespace {

// A raster with a bright square blob centered at (cx, cy).
Raster BlobRaster(std::size_t size, std::size_t cx, std::size_t cy,
                  std::size_t radius, double intensity = 1.0) {
  Raster r(size, size, 0.0);
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      std::size_t dx = x > cx ? x - cx : cx - x;
      std::size_t dy = y > cy ? y - cy : cy - y;
      if (dx <= radius && dy <= radius) r.At(x, y) = intensity;
    }
  }
  return r;
}

Raster NoiseRaster(std::size_t size, std::uint64_t seed) {
  Raster r(size, size);
  Rng rng(seed);
  for (auto& v : r.mutable_data()) v = rng.UniformDouble();
  return r;
}

// ---------------------------------------------------------------------------
// Raster

TEST(RasterTest, FromDataValidatesSize) {
  EXPECT_TRUE(Raster::FromData(2, 2, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Raster::FromData(2, 2, {1, 2, 3}).ok());
}

TEST(RasterTest, ClampedAccess) {
  Raster r(2, 2);
  r.At(0, 0) = 5.0;
  EXPECT_DOUBLE_EQ(r.AtClamped(-3, -3), 5.0);
  r.At(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(r.AtClamped(10, 10), 7.0);
}

TEST(RasterTest, BilinearSample) {
  Raster r(2, 2);
  r.At(0, 0) = 0.0;
  r.At(1, 0) = 1.0;
  r.At(0, 1) = 2.0;
  r.At(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(r.Sample(0.5, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(r.Sample(0.0, 0.0), 0.0);
}

TEST(RasterTest, NormalizeRange) {
  Raster r(2, 1);
  r.At(0, 0) = 10.0;
  r.At(1, 0) = 30.0;
  r.NormalizeRange();
  EXPECT_DOUBLE_EQ(r.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.At(1, 0), 1.0);
  Raster flat(3, 1, 2.0);
  flat.NormalizeRange();  // no-op for flat images, no NaN
  EXPECT_DOUBLE_EQ(flat.At(0, 0), 2.0);
}

TEST(RasterTest, GradientsOfLinearRamp) {
  Raster r(8, 8);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) r.At(x, y) = static_cast<double>(x);
  }
  auto g = ComputeGradients(r);
  // Interior: central difference of a unit ramp = 1 in x, 0 in y.
  EXPECT_DOUBLE_EQ(g.dx.At(4, 4), 1.0);
  EXPECT_DOUBLE_EQ(g.dy.At(4, 4), 0.0);
}

TEST(RasterTest, GaussianBlurPreservesMeanRoughly) {
  auto r = NoiseRaster(32, 5);
  double mean_before = 0.0;
  for (double v : r.data()) mean_before += v;
  auto blurred = GaussianBlur(r, 2.0);
  double mean_after = 0.0;
  for (double v : blurred.data()) mean_after += v;
  EXPECT_NEAR(mean_before / r.data().size(), mean_after / blurred.data().size(),
              0.02);
}

TEST(RasterTest, GaussianBlurReducesVariance) {
  auto r = NoiseRaster(32, 6);
  auto blurred = GaussianBlur(r, 2.0);
  auto variance = [](const Raster& img) {
    double mean = 0.0;
    for (double v : img.data()) mean += v;
    mean /= img.data().size();
    double ss = 0.0;
    for (double v : img.data()) ss += (v - mean) * (v - mean);
    return ss / img.data().size();
  };
  EXPECT_LT(variance(blurred), variance(r) * 0.5);
}

TEST(RasterTest, DownsampleHalves) {
  Raster r(8, 6);
  auto d = Downsample2x(r);
  EXPECT_EQ(d.width(), 4u);
  EXPECT_EQ(d.height(), 3u);
}

TEST(RasterTest, UpsampleDoubles) {
  Raster r(4, 4, 1.0);
  auto u = Upsample2x(r);
  EXPECT_EQ(u.width(), 8u);
  EXPECT_DOUBLE_EQ(u.At(3, 3), 1.0);
}

// ---------------------------------------------------------------------------
// SIFT

TEST(SiftTest, DetectsBlobKeypoint) {
  auto img = BlobRaster(64, 32, 32, 6);
  SiftExtractor extractor;
  auto keypoints = extractor.DetectKeypoints(img);
  ASSERT_FALSE(keypoints.empty());
  // At least one keypoint near the blob center.
  bool near = false;
  for (const auto& kp : keypoints) {
    if (std::abs(kp.x - 32.0) < 8.0 && std::abs(kp.y - 32.0) < 8.0) near = true;
  }
  EXPECT_TRUE(near);
}

TEST(SiftTest, FlatImageHasNoKeypoints) {
  Raster flat(64, 64, 0.5);
  SiftExtractor extractor;
  EXPECT_TRUE(extractor.DetectKeypoints(flat).empty());
  EXPECT_TRUE(extractor.Extract(flat).empty());
}

TEST(SiftTest, TinyImageHandled) {
  Raster tiny(8, 8, 0.5);
  SiftExtractor extractor;
  EXPECT_TRUE(extractor.Extract(tiny).empty());
}

TEST(SiftTest, DescriptorsAreNormalized128D) {
  auto img = BlobRaster(64, 24, 40, 5);
  SiftExtractor extractor;
  auto features = extractor.Extract(img);
  ASSERT_FALSE(features.empty());
  for (const auto& f : features) {
    ASSERT_EQ(f.descriptor.size(), kDescriptorDims);
    double norm = 0.0;
    for (double v : f.descriptor) {
      // Values are clamped at 0.2 *before* the final renormalization, so the
      // stored entries may exceed 0.2 but stay well below 1.
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      norm += v * v;
    }
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-6);
  }
}

TEST(SiftTest, MaxFeaturesRespected) {
  auto img = NoiseRaster(96, 9);
  SiftOptions options;
  options.max_features = 5;
  SiftExtractor extractor(options);
  EXPECT_LE(extractor.Extract(img).size(), 5u);
}

TEST(SiftTest, SimilarImagesHaveSimilarDescriptors) {
  auto a = BlobRaster(64, 32, 32, 6);
  auto b = BlobRaster(64, 34, 30, 6);  // slightly shifted copy
  auto c = NoiseRaster(64, 10);        // unrelated
  SiftExtractor extractor;
  auto fa = extractor.Extract(a);
  auto fb = extractor.Extract(b);
  auto fc_ = extractor.Extract(c);
  ASSERT_FALSE(fa.empty());
  ASSERT_FALSE(fb.empty());
  ASSERT_FALSE(fc_.empty());
  auto min_dist = [](const std::vector<SiftFeature>& xs,
                     const std::vector<SiftFeature>& ys) {
    double best = 1e18;
    for (const auto& x : xs) {
      for (const auto& y : ys) {
        double ss = 0.0;
        for (std::size_t i = 0; i < x.descriptor.size(); ++i) {
          double d = x.descriptor[i] - y.descriptor[i];
          ss += d * d;
        }
        best = std::min(best, ss);
      }
    }
    return best;
  };
  EXPECT_LT(min_dist(fa, fb), min_dist(fa, fc_));
}

TEST(DenseSiftTest, CoversGrid) {
  auto img = BlobRaster(64, 32, 32, 8);
  DenseSiftExtractor extractor;
  auto features = extractor.Extract(img);
  // 64/8 = 8 grid steps per axis.
  EXPECT_EQ(features.size(), 64u);
  for (const auto& f : features) {
    EXPECT_EQ(f.descriptor.size(), kDescriptorDims);
    EXPECT_DOUBLE_EQ(f.keypoint.orientation, 0.0);
  }
}

// ---------------------------------------------------------------------------
// KMeans / Codebook

TEST(KMeansTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> points;
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Gaussian(0.0, 0.1), rng.Gaussian(0.0, 0.1)});
    points.push_back({rng.Gaussian(10.0, 0.1), rng.Gaussian(10.0, 0.1)});
  }
  KMeansOptions options;
  options.k = 2;
  Rng seed_rng(3);
  auto result = KMeans(points, options, &seed_rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->centers.size(), 2u);
  double c0 = result->centers[0][0] + result->centers[0][1];
  double c1 = result->centers[1][0] + result->centers[1][1];
  EXPECT_NEAR(std::min(c0, c1), 0.0, 1.0);
  EXPECT_NEAR(std::max(c0, c1), 20.0, 1.0);
}

TEST(KMeansTest, KLargerThanPointsShrinks) {
  std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  KMeansOptions options;
  options.k = 10;
  Rng rng(4);
  auto result = KMeans(points, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.size(), 2u);
}

TEST(KMeansTest, RejectsBadInput) {
  Rng rng(5);
  KMeansOptions options;
  EXPECT_FALSE(KMeans({}, options, &rng).ok());
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, options, &rng).ok());
}

TEST(KMeansTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> points;
  Rng data_rng(6);
  for (int i = 0; i < 64; ++i) {
    points.push_back({data_rng.UniformDouble(), data_rng.UniformDouble()});
  }
  KMeansOptions options;
  options.k = 4;
  Rng r1(7);
  Rng r2(7);
  auto a = KMeans(points, options, &r1);
  auto b = KMeans(points, options, &r2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->inertia, b->inertia);
}

TEST(CodebookTest, QuantizeAndHistogram) {
  std::vector<std::vector<double>> descriptors = {
      {0.0, 0.0}, {0.1, 0.0}, {10.0, 10.0}, {10.1, 10.0}};
  Rng rng(8);
  auto cb = Codebook::Train(descriptors, 2, &rng);
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(cb->num_words(), 2u);
  std::vector<SiftFeature> features(4);
  for (std::size_t i = 0; i < 4; ++i) features[i].descriptor = descriptors[i];
  auto hist = cb->BuildHistogram(features);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_DOUBLE_EQ(hist[0] + hist[1], 1.0);
  EXPECT_DOUBLE_EQ(hist[0], 0.5);
}

TEST(CodebookTest, FromCentersValidates) {
  EXPECT_FALSE(Codebook::FromCenters({}).ok());
  EXPECT_FALSE(Codebook::FromCenters({{1.0}, {1.0, 2.0}}).ok());
  EXPECT_TRUE(Codebook::FromCenters({{1.0}, {2.0}}).ok());
}

// ---------------------------------------------------------------------------
// Bitwise references. Each reference below is the direct form of a routine
// the library computes with less repeated work: one clamped read per blur tap
// and gradient neighbour, one sqrt, atan2 and exp per window pixel, one
// k-means++ minimum over every center, and one center at a time. The library
// keeps every sum's operands and order, so the outputs must match bit for
// bit on any machine (both sides call the same libm).

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) {
      return ::testing::AssertionFailure() << "index " << i << ": " << std::hexfloat
                                           << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Raster ReferenceBlur(const Raster& img, double sigma) {
  if (img.empty() || sigma <= 0.0) return img;
  int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<double> kernel(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    double w = std::exp(-0.5 * (i * i) / (sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = w;
    sum += w;
  }
  for (double& w : kernel) w /= sum;
  Raster tmp(img.width(), img.height());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      double acc = 0.0;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[static_cast<std::size_t>(i + radius)] *
               img.AtClamped(static_cast<std::ptrdiff_t>(x) + i,
                             static_cast<std::ptrdiff_t>(y));
      }
      tmp.At(x, y) = acc;
    }
  }
  Raster out(img.width(), img.height());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      double acc = 0.0;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[static_cast<std::size_t>(i + radius)] *
               tmp.AtClamped(static_cast<std::ptrdiff_t>(x),
                             static_cast<std::ptrdiff_t>(y) + i);
      }
      out.At(x, y) = acc;
    }
  }
  return out;
}

GradientField ReferenceGradients(const Raster& img) {
  GradientField g;
  g.dx = Raster(img.width(), img.height());
  g.dy = Raster(img.width(), img.height());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      auto xi = static_cast<std::ptrdiff_t>(x);
      auto yi = static_cast<std::ptrdiff_t>(y);
      g.dx.At(x, y) = 0.5 * (img.AtClamped(xi + 1, yi) - img.AtClamped(xi - 1, yi));
      g.dy.At(x, y) = 0.5 * (img.AtClamped(xi, yi + 1) - img.AtClamped(xi, yi - 1));
    }
  }
  return g;
}

// Values in [-1, 1) with exact zeros of both signs, and a run of -0.0 wide
// enough that some outputs read only -0.0 taps.
Raster SignedNoise(std::size_t width, std::size_t height, std::uint64_t seed) {
  Raster r(width, height);
  Rng rng(seed);
  for (auto& v : r.mutable_data()) {
    double u = rng.UniformDouble();
    v = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.UniformDouble(-1.0, 1.0);
  }
  for (std::size_t y = 0; y < height / 2; ++y) {
    for (std::size_t x = 0; x < width / 2; ++x) r.At(x, y) = -0.0;
  }
  return r;
}

// The shapes whose borders the blur and the gradients special-case: single
// pixels, lines, odd sizes, and widths and heights around the blur window.
std::vector<std::pair<std::size_t, std::size_t>> BorderShapes(int radius) {
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 9}, {9, 1}, {2, 2}, {33, 17}, {64, 64}};
  auto window = static_cast<std::size_t>(2 * radius);
  for (std::size_t w = window; w <= window + 2; ++w) {
    for (std::size_t h = window; h <= window + 2; ++h) shapes.emplace_back(w, h);
  }
  return shapes;
}

TEST(RasterReferenceTest, GaussianBlurMatchesClampedPerTapLoop) {
  std::uint64_t seed = 100;
  for (double sigma : {0.5, 1.0, 1.6, 2.26, 4.0}) {
    int radius = static_cast<int>(std::ceil(3.0 * sigma));
    for (auto [w, h] : BorderShapes(radius)) {
      SCOPED_TRACE(testing::Message() << "sigma " << sigma << ", " << w << "x" << h);
      Raster img = SignedNoise(w, h, ++seed);
      EXPECT_TRUE(SameBits(GaussianBlur(img, sigma).data(),
                           ReferenceBlur(img, sigma).data()));
      Raster negative_zero(w, h, -0.0);
      EXPECT_TRUE(SameBits(GaussianBlur(negative_zero, sigma).data(),
                           ReferenceBlur(negative_zero, sigma).data()));
    }
  }
}

TEST(RasterReferenceTest, GradientsMatchClampedNeighbours) {
  std::uint64_t seed = 200;
  for (auto [w, h] : BorderShapes(2)) {
    SCOPED_TRACE(testing::Message() << w << "x" << h);
    Raster img = SignedNoise(w, h, ++seed);
    GradientField got = ComputeGradients(img);
    GradientField want = ReferenceGradients(img);
    EXPECT_TRUE(SameBits(got.dx.data(), want.dx.data()));
    EXPECT_TRUE(SameBits(got.dy.data(), want.dy.data()));
  }
  EXPECT_TRUE(ComputeGradients(Raster()).dx.empty());
}

constexpr double kTwoPi = 2.0 * std::numbers::pi;

double ReferenceOrientation(const GradientField& grads, double x, double y,
                            double scale) {
  constexpr int kBins = 36;
  std::array<double, kBins> hist{};
  double sigma = 1.5 * scale;
  int radius = std::max(1, static_cast<int>(std::round(3.0 * sigma)));
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      auto px = static_cast<std::ptrdiff_t>(std::round(x)) + dx;
      auto py = static_cast<std::ptrdiff_t>(std::round(y)) + dy;
      double gx = grads.dx.AtClamped(px, py);
      double gy = grads.dy.AtClamped(px, py);
      double mag = std::sqrt(gx * gx + gy * gy);
      if (mag <= 0.0) continue;
      double theta = std::atan2(gy, gx);
      if (theta < 0) theta += kTwoPi;
      double w = std::exp(-0.5 * (dx * dx + dy * dy) / (sigma * sigma));
      int bin = static_cast<int>(theta / kTwoPi * kBins) % kBins;
      hist[static_cast<std::size_t>(bin)] += w * mag;
    }
  }
  int best = 0;
  for (int b = 1; b < kBins; ++b) {
    if (hist[static_cast<std::size_t>(b)] > hist[static_cast<std::size_t>(best)]) {
      best = b;
    }
  }
  double l = hist[static_cast<std::size_t>((best + kBins - 1) % kBins)];
  double c = hist[static_cast<std::size_t>(best)];
  double r = hist[static_cast<std::size_t>((best + 1) % kBins)];
  double denom = l - 2.0 * c + r;
  double offset = (std::abs(denom) > 1e-12) ? 0.5 * (l - r) / denom : 0.0;
  double theta = (best + 0.5 + offset) * kTwoPi / kBins;
  if (theta < 0) theta += kTwoPi;
  if (theta >= kTwoPi) theta -= kTwoPi;
  return theta;
}

std::vector<double> ReferenceDescriptor(const GradientField& grads, double x,
                                        double y, double scale, double orientation) {
  constexpr int kGrid = 4;
  constexpr int kOrientBins = 8;
  std::vector<double> desc(kDescriptorDims, 0.0);
  double cell_size = 3.0 * scale;
  double radius = cell_size * kGrid * 0.7071;
  int r = std::max(2, static_cast<int>(std::round(radius)));
  double cos_t = std::cos(-orientation);
  double sin_t = std::sin(-orientation);
  double window_sigma = 0.5 * kGrid * cell_size;
  for (int dy = -r; dy <= r; ++dy) {
    for (int dx = -r; dx <= r; ++dx) {
      double rx = (cos_t * dx - sin_t * dy) / cell_size + kGrid / 2.0 - 0.5;
      double ry = (sin_t * dx + cos_t * dy) / cell_size + kGrid / 2.0 - 0.5;
      if (rx <= -1.0 || rx >= kGrid || ry <= -1.0 || ry >= kGrid) continue;
      auto px = static_cast<std::ptrdiff_t>(std::round(x)) + dx;
      auto py = static_cast<std::ptrdiff_t>(std::round(y)) + dy;
      double gx = grads.dx.AtClamped(px, py);
      double gy = grads.dy.AtClamped(px, py);
      double mag = std::sqrt(gx * gx + gy * gy);
      if (mag <= 0.0) continue;
      double theta = std::atan2(gy, gx) - orientation;
      while (theta < 0) theta += kTwoPi;
      while (theta >= kTwoPi) theta -= kTwoPi;
      double w = std::exp(-0.5 * (dx * dx + dy * dy) / (window_sigma * window_sigma));
      double obin = theta / kTwoPi * kOrientBins;
      int x0 = static_cast<int>(std::floor(rx));
      int y0 = static_cast<int>(std::floor(ry));
      int o0 = static_cast<int>(std::floor(obin)) % kOrientBins;
      double fx = rx - x0;
      double fy = ry - y0;
      double fo = obin - std::floor(obin);
      for (int ix = 0; ix <= 1; ++ix) {
        int cx = x0 + ix;
        if (cx < 0 || cx >= kGrid) continue;
        double wx = ix == 0 ? 1.0 - fx : fx;
        for (int iy = 0; iy <= 1; ++iy) {
          int cy = y0 + iy;
          if (cy < 0 || cy >= kGrid) continue;
          double wy = iy == 0 ? 1.0 - fy : fy;
          for (int io = 0; io <= 1; ++io) {
            int co = (o0 + io) % kOrientBins;
            double wo = io == 0 ? 1.0 - fo : fo;
            std::size_t idx = static_cast<std::size_t>((cy * kGrid + cx) * kOrientBins + co);
            desc[idx] += w * mag * wx * wy * wo;
          }
        }
      }
    }
  }
  auto normalize = [&desc]() {
    double norm = 0.0;
    for (double v : desc) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (double& v : desc) v /= norm;
    }
  };
  normalize();
  for (double& v : desc) v = std::min(v, 0.2);
  normalize();
  return desc;
}

GradientField ReferenceDescriptorGradients(const Raster& img, bool normalize_input) {
  Raster base = img;
  if (normalize_input) base.NormalizeRange();
  return ReferenceGradients(ReferenceBlur(base, 1.0));
}

std::vector<SiftFeature> ReferenceSparseExtract(const SiftExtractor& extractor,
                                                const Raster& img) {
  std::vector<SiftFeature> features;
  auto keypoints = extractor.DetectKeypoints(img);
  if (keypoints.empty()) return features;
  GradientField grads =
      ReferenceDescriptorGradients(img, extractor.options().normalize_input);
  for (auto& kp : keypoints) {
    kp.orientation = ReferenceOrientation(grads, kp.x, kp.y, kp.scale);
    SiftFeature f;
    f.keypoint = kp;
    f.descriptor = ReferenceDescriptor(grads, kp.x, kp.y, kp.scale, kp.orientation);
    features.push_back(std::move(f));
  }
  return features;
}

std::vector<SiftFeature> ReferenceDenseExtract(const DenseSiftOptions& options,
                                               const Raster& img) {
  std::vector<SiftFeature> features;
  if (img.width() < 8 || img.height() < 8 || options.step == 0) return features;
  GradientField grads = ReferenceDescriptorGradients(img, options.normalize_input);
  for (std::size_t y = options.step / 2; y < img.height(); y += options.step) {
    for (std::size_t x = options.step / 2; x < img.width(); x += options.step) {
      SiftFeature f;
      f.keypoint.x = static_cast<double>(x);
      f.keypoint.y = static_cast<double>(y);
      f.keypoint.scale = options.patch_scale;
      f.descriptor = ReferenceDescriptor(grads, f.keypoint.x, f.keypoint.y,
                                         options.patch_scale, 0.0);
      features.push_back(std::move(f));
    }
  }
  return features;
}

::testing::AssertionResult SameFeatures(const std::vector<SiftFeature>& got,
                                        const std::vector<SiftFeature>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " features vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Keypoint& a = got[i].keypoint;
    const Keypoint& b = want[i].keypoint;
    if (!SameBits({a.x, a.y, a.scale, a.orientation, a.response},
                  {b.x, b.y, b.scale, b.orientation, b.response}) ||
        a.octave != b.octave) {
      return ::testing::AssertionFailure() << "keypoint " << i << " differs";
    }
    auto same = SameBits(got[i].descriptor, want[i].descriptor);
    if (!same) return same << " in descriptor " << i;
  }
  return ::testing::AssertionSuccess();
}

// The blob, ramp, noise, flat and non-square rasters, named.
std::vector<std::pair<std::string, Raster>> ExtractorInputs() {
  Raster ramp(64, 64);
  for (std::size_t y = 0; y < 64; ++y) {
    for (std::size_t x = 0; x < 64; ++x) ramp.At(x, y) = 0.01 * x + 0.003 * y;
  }
  Raster wide(64, 48);
  Rng rng(31);
  for (auto& v : wide.mutable_data()) v = rng.UniformDouble();
  for (std::size_t y = 18; y < 30; ++y) {
    for (std::size_t x = 40; x < 52; ++x) wide.At(x, y) += 2.0;
  }
  return {{"blob", BlobRaster(64, 24, 40, 5)},
          {"ramp", ramp},
          {"noise", NoiseRaster(64, 12)},
          {"flat", Raster(64, 64, 0.5)},
          {"64x48", wide},
          {"tile", NoiseRaster(32, 13)}};
}

TEST(SiftReferenceTest, SparseExtractMatchesPerPixelReference) {
  std::size_t compared = 0;
  for (bool upsample : {false, true}) {
    for (bool normalize : {true, false}) {
      SiftOptions options;
      options.upsample_first = upsample;
      options.normalize_input = normalize;
      SiftExtractor extractor(options);
      for (const auto& [name, img] : ExtractorInputs()) {
        SCOPED_TRACE(testing::Message() << name << ", upsample " << upsample
                                        << ", normalize " << normalize);
        auto want = ReferenceSparseExtract(extractor, img);
        EXPECT_TRUE(SameFeatures(extractor.Extract(img), want));
        compared += want.size();
      }
    }
  }
  EXPECT_GT(compared, 100u);  // the comparison is not vacuous
}

TEST(SiftReferenceTest, DenseExtractMatchesPerPixelReference) {
  for (double patch_scale : {2.0, 1.3}) {
    DenseSiftOptions options;
    options.patch_scale = patch_scale;
    DenseSiftExtractor extractor(options);
    for (const auto& [name, img] : ExtractorInputs()) {
      SCOPED_TRACE(testing::Message() << name << ", patch scale " << patch_scale);
      auto want = ReferenceDenseExtract(options, img);
      ASSERT_FALSE(want.empty());
      EXPECT_TRUE(SameFeatures(extractor.Extract(img), want));
    }
  }
}

std::size_t ReferenceNearestCenter(const std::vector<std::vector<double>>& centers,
                                   const std::vector<double>& point) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers.size(); ++c) {
    double d = 0.0;
    for (std::size_t i = 0; i < point.size(); ++i) {
      double e = centers[c][i] - point[i];
      d += e * e;
    }
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

TEST(KMeansReferenceTest, NearestCenterMatchesOneCenterAtATime) {
  Rng rng(41);
  for (std::size_t dim : {1u, 3u, 128u}) {
    for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 32u}) {
      SCOPED_TRACE(testing::Message() << "dim " << dim << ", k " << k);
      std::vector<std::vector<double>> centers(k, std::vector<double>(dim));
      for (std::size_t c = 0; c < k; ++c) {
        // Every third center duplicates the one before it: ties.
        if (c % 3 == 2) {
          centers[c] = centers[c - 1];
          continue;
        }
        for (double& v : centers[c]) v = rng.UniformDouble(-1.0, 1.0);
      }
      std::vector<std::vector<double>> points = centers;  // distance-0 ties
      for (int i = 0; i < 64; ++i) {
        std::vector<double> p(dim);
        for (double& v : p) v = rng.UniformDouble(-1.0, 1.0);
        points.push_back(std::move(p));
      }
      for (const auto& p : points) {
        EXPECT_EQ(NearestCenter(centers, p), ReferenceNearestCenter(centers, p));
      }
    }
  }
  // A tie keeps the lowest index, inside and across groups of four.
  std::vector<double> a = {1.0, 2.0};
  std::vector<double> b = {5.0, 5.0};
  EXPECT_EQ(NearestCenter({b, a, a, b, a}, a), 1u);
  EXPECT_EQ(NearestCenter({b, b, b, b, a, a, a}, a), 4u);
  EXPECT_EQ(NearestCenter({b, b, a, a}, {3.0, 3.5}), 0u);
}

TEST(KMeansDeathTest, NearestCenterRejectsAMismatchedDimension) {
  std::vector<std::vector<double>> centers = {{0, 0, 0, 0}, {1, 1, 1, 1}};
  EXPECT_DEATH(NearestCenter(centers, {0.0, 0.0}), "differ in dimension");
  EXPECT_DEATH(NearestCenter(centers, {0.0, 0.0, 0.0, 0.0, 0.0}), "differ in dimension");
  auto codebook = Codebook::FromCenters(centers);
  ASSERT_TRUE(codebook.ok());
  EXPECT_DEATH(codebook->Quantize({0.0, 0.0}), "differ in dimension");
}

// Direct k-means++ seeding: each round takes every point's minimum over all
// centers so far.
std::vector<std::vector<double>> ReferenceSeeds(
    const std::vector<std::vector<double>>& points, std::size_t k, Rng* rng) {
  std::vector<std::vector<double>> centers;
  centers.push_back(points[rng->UniformUint32(static_cast<std::uint32_t>(points.size()))]);
  std::vector<double> d2(points.size(), 0.0);
  while (centers.size() < k) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centers) {
        double ss = 0.0;
        for (std::size_t j = 0; j < c.size(); ++j) {
          double d = points[i][j] - c[j];
          ss += d * d;
        }
        best = std::min(best, ss);
      }
      d2[i] = best;
    }
    centers.push_back(points[rng->WeightedIndex(d2)]);
  }
  return centers;
}

TEST(KMeansReferenceTest, SeedingMatchesMinimumOverEveryCenter) {
  Rng data_rng(51);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> p(16);
    for (double& v : p) v = data_rng.UniformDouble();
    points.push_back(p);
    if (i % 10 == 0) points.push_back(p);  // duplicates: zero-distance minima
  }
  for (std::size_t k : {1u, 2u, 5u, 32u}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    KMeansOptions options;
    options.k = k;
    options.max_iterations = 0;  // the result's centers are the seeds
    Rng a(60 + k);
    Rng b(60 + k);
    auto result = KMeans(points, options, &a);
    ASSERT_TRUE(result.ok());
    auto want = ReferenceSeeds(points, k, &b);
    ASSERT_EQ(result->centers.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_TRUE(SameBits(result->centers[c], want[c])) << "center " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BinsAndClamping) {
  auto h = Histogram1D::Make(4, 0.0, 1.0);
  ASSERT_TRUE(h.ok());
  h->Add(-5.0);  // clamps into bin 0
  h->Add(0.1);
  h->Add(0.9);
  h->Add(5.0);  // clamps into last bin
  EXPECT_EQ(h->total(), 4u);
  EXPECT_DOUBLE_EQ(h->counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(h->counts()[3], 2.0);
}

TEST(HistogramTest, NormalizedSumsToOne) {
  auto h = Histogram1D::Make(8, -1.0, 1.0);
  ASSERT_TRUE(h.ok());
  for (int i = 0; i < 100; ++i) h->Add(-1.0 + 0.02 * i);
  double sum = 0.0;
  for (double v : h->Normalized()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, RejectsBadRange) {
  EXPECT_FALSE(Histogram1D::Make(0, 0.0, 1.0).ok());
  EXPECT_FALSE(Histogram1D::Make(4, 1.0, 1.0).ok());
}

// ---------------------------------------------------------------------------
// Signatures

TEST(SignatureTest, NormalDistMapsIntoUnitRange) {
  NormalDistSignature sig(-1.0, 1.0);
  Raster tile(16, 16, 0.0);  // all zeros: mean 0 -> 0.5 after mapping
  auto v = sig.Compute(tile);
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->size(), 2u);
  EXPECT_NEAR((*v)[0], 0.5, 1e-9);
  EXPECT_NEAR((*v)[1], 0.0, 1e-9);
}

TEST(SignatureTest, HistogramSignatureSeparatesSnowFromBare) {
  HistogramSignature sig(16, -1.0, 1.0);
  Raster snowy(16, 16, 0.8);
  Raster bare(16, 16, -0.4);
  auto a = sig.Compute(snowy);
  auto b = sig.Compute(bare);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(sig.Distance(*a, *b), 0.5);
  EXPECT_NEAR(sig.Distance(*a, *a), 0.0, 1e-12);
}

TEST(SignatureTest, SiftSignatureRequiresTraining) {
  SiftSignature sig(/*dense=*/false, 8);
  Raster tile(32, 32, 0.5);
  EXPECT_TRUE(sig.Compute(tile).status().IsFailedPrecondition());
}

TEST(SignatureTest, SiftSignatureTrainsAndComputes) {
  SiftSignature sig(/*dense=*/false, 4);
  std::vector<Raster> training;
  for (std::size_t i = 0; i < 4; ++i) {
    training.push_back(BlobRaster(64, 16 + 8 * i, 20 + 6 * i, 5));
  }
  Rng rng(30);
  ASSERT_TRUE(sig.Train(training, &rng).ok());
  auto v = sig.Compute(BlobRaster(64, 30, 30, 5));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), sig.dims());
  double sum = 0.0;
  for (double x : *v) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SignatureTest, OutlierSignatureProfiles) {
  OutlierSignature sig;
  Raster flat(16, 16, 1.0);
  auto v = sig.Compute(flat);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ((*v)[0], 1.0);  // flat tile: everything within 1 sigma

  Raster spiky(16, 16, 0.0);
  spiky.At(0, 0) = 100.0;  // one enormous outlier
  auto w = sig.Compute(spiky);
  ASSERT_TRUE(w.ok());
  EXPECT_GT((*w)[3], 0.0);
}

TEST(SignatureTest, QuantileSignatureMonotone) {
  QuantileSignature sig(0.0, 100.0);
  Raster ramp(10, 10);
  for (std::size_t i = 0; i < 100; ++i) {
    ramp.mutable_data()[i] = static_cast<double>(i);
  }
  auto v = sig.Compute(ramp);
  ASSERT_TRUE(v.ok());
  for (std::size_t i = 1; i < v->size(); ++i) {
    EXPECT_GE((*v)[i], (*v)[i - 1]);
  }
}

TEST(SignatureToolboxTest, DefaultHasPaperSignatures) {
  auto tb = SignatureToolbox::MakeDefault();
  auto kinds = tb.Kinds();
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_TRUE(tb.Get(SignatureKind::kSift).ok());
  EXPECT_TRUE(tb.Get(SignatureKind::kDenseSift).ok());
  EXPECT_FALSE(tb.Get(SignatureKind::kOutlier).ok());
  EXPECT_FALSE(tb.FullyTrained());  // SIFT codebooks untrained
}

TEST(SignatureToolboxTest, ExtensionsIncluded) {
  SignatureToolboxOptions options;
  options.include_extensions = true;
  auto tb = SignatureToolbox::MakeDefault(options);
  EXPECT_EQ(tb.Kinds().size(), 6u);
  EXPECT_TRUE(tb.Get(SignatureKind::kOutlier).ok());
}

TEST(SignatureToolboxTest, RejectsDuplicateRegistration) {
  SignatureToolbox tb;
  ASSERT_TRUE(tb.RegisterExtractor(std::make_unique<OutlierSignature>()).ok());
  EXPECT_TRUE(tb.RegisterExtractor(std::make_unique<OutlierSignature>())
                  .IsAlreadyExists());
}

TEST(SignatureToolboxTest, TrainAllThenComputeAll) {
  auto tb = SignatureToolbox::MakeDefault();
  std::vector<Raster> training;
  for (std::size_t i = 0; i < 4; ++i) {
    training.push_back(BlobRaster(64, 16 + 8 * i, 24 + 4 * i, 5));
  }
  Rng rng(31);
  ASSERT_TRUE(tb.TrainAll(training, &rng).ok());
  EXPECT_TRUE(tb.FullyTrained());
  auto sigs = tb.ComputeAll(BlobRaster(64, 32, 32, 5));
  ASSERT_TRUE(sigs.ok());
  EXPECT_EQ(sigs->size(), 4u);
}

TEST(SignatureKindTest, StringRoundTrip) {
  for (auto kind : {SignatureKind::kNormalDist, SignatureKind::kHistogram,
                    SignatureKind::kSift, SignatureKind::kDenseSift,
                    SignatureKind::kOutlier, SignatureKind::kQuantile}) {
    auto back = SignatureKindFromString(SignatureKindToString(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(SignatureKindFromString("nope").ok());
}

}  // namespace
}  // namespace fc::vision
