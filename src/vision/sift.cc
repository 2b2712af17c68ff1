#include "vision/sift.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

namespace fc::vision {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// One octave of the Gaussian/DoG pyramid.
struct Octave {
  std::vector<Raster> gaussians;  // scales_per_octave + 3 levels
  std::vector<Raster> dogs;       // gaussians.size() - 1 levels
  std::vector<double> sigmas;     // absolute sigma per gaussian level
  double pixel_scale = 1.0;       // image coords = octave coords * pixel_scale
};

std::vector<Octave> BuildPyramid(const Raster& base, const SiftOptions& opt) {
  std::vector<Octave> pyramid;
  Raster current = GaussianBlur(base, opt.base_sigma);
  double pixel_scale = 1.0;
  double k = std::pow(2.0, 1.0 / opt.scales_per_octave);

  for (int o = 0; o < opt.num_octaves; ++o) {
    if (current.width() < 8 || current.height() < 8) break;
    Octave oct;
    oct.pixel_scale = pixel_scale;
    oct.gaussians.push_back(std::move(current));
    oct.sigmas.push_back(opt.base_sigma);
    double sigma = opt.base_sigma;
    int levels = opt.scales_per_octave + 3;
    for (int s = 1; s < levels; ++s) {
      double next_sigma = sigma * k;
      // Incremental blur: sigma_delta^2 = next^2 - current^2.
      double delta = std::sqrt(std::max(1e-12, next_sigma * next_sigma - sigma * sigma));
      oct.gaussians.push_back(GaussianBlur(oct.gaussians.back(), delta));
      oct.sigmas.push_back(next_sigma);
      sigma = next_sigma;
    }
    for (std::size_t s = 0; s + 1 < oct.gaussians.size(); ++s) {
      const Raster& a = oct.gaussians[s];
      const Raster& b = oct.gaussians[s + 1];
      Raster d(a.width(), a.height());
      for (std::size_t i = 0; i < d.data().size(); ++i) {
        d.mutable_data()[i] = b.data()[i] - a.data()[i];
      }
      oct.dogs.push_back(std::move(d));
    }
    // Next octave starts from the level with double the base sigma.
    current = Downsample2x(oct.gaussians[static_cast<std::size_t>(opt.scales_per_octave)]);
    pixel_scale *= 2.0;
    pyramid.push_back(std::move(oct));
  }
  return pyramid;
}

// True if dogs[s](x,y) is a strict extremum over its 3x3x3 neighborhood.
bool IsExtremum(const std::vector<Raster>& dogs, std::size_t s, std::size_t x,
                std::size_t y) {
  double v = dogs[s].At(x, y);
  bool is_max = true;
  bool is_min = true;
  for (int ds = -1; ds <= 1; ++ds) {
    const Raster& layer = dogs[s + static_cast<std::size_t>(ds + 1) - 1];
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (ds == 0 && dx == 0 && dy == 0) continue;
        double n = layer.At(x + static_cast<std::size_t>(dx + 1) - 1,
                            y + static_cast<std::size_t>(dy + 1) - 1);
        if (n >= v) is_max = false;
        if (n <= v) is_min = false;
        if (!is_max && !is_min) return false;
      }
    }
  }
  return is_max || is_min;
}

// Rejects edge-like responses via the Hessian trace/determinant ratio test.
bool PassesEdgeTest(const Raster& dog, std::size_t x, std::size_t y,
                    double edge_ratio) {
  auto xi = static_cast<std::ptrdiff_t>(x);
  auto yi = static_cast<std::ptrdiff_t>(y);
  double dxx = dog.AtClamped(xi + 1, yi) + dog.AtClamped(xi - 1, yi) -
               2.0 * dog.AtClamped(xi, yi);
  double dyy = dog.AtClamped(xi, yi + 1) + dog.AtClamped(xi, yi - 1) -
               2.0 * dog.AtClamped(xi, yi);
  double dxy = 0.25 * (dog.AtClamped(xi + 1, yi + 1) - dog.AtClamped(xi - 1, yi + 1) -
                       dog.AtClamped(xi + 1, yi - 1) + dog.AtClamped(xi - 1, yi - 1));
  double trace = dxx + dyy;
  double det = dxx * dyy - dxy * dxy;
  if (det <= 0.0) return false;
  double r = edge_ratio;
  return trace * trace / det < (r + 1.0) * (r + 1.0) / r;
}

// Each gradient pixel's magnitude and angle, computed once per image. The
// orientation and descriptor windows read them at border-clamped pixels, and
// skip a pixel whose magnitude is <= 0, whose angle is then left at 0.
struct PolarGradients {
  explicit PolarGradients(const GradientField& g)
      : width(g.dx.width()),
        height(g.dx.height()),
        magnitude(g.dx.data().size()),
        angle(g.dx.data().size()) {
    for (std::size_t i = 0; i < magnitude.size(); ++i) {
      double gx = g.dx.data()[i];
      double gy = g.dy.data()[i];
      magnitude[i] = std::sqrt(gx * gx + gy * gy);
      angle[i] = magnitude[i] <= 0.0 ? 0.0 : std::atan2(gy, gx);
    }
  }

  // Row-major index of pixel (x, y) clamped to the image. Precondition: the
  // image is not empty.
  std::size_t ClampedIndex(std::ptrdiff_t x, std::ptrdiff_t y) const {
    x = std::clamp<std::ptrdiff_t>(x, 0, static_cast<std::ptrdiff_t>(width) - 1);
    y = std::clamp<std::ptrdiff_t>(y, 0, static_cast<std::ptrdiff_t>(height) - 1);
    return static_cast<std::size_t>(y) * width + static_cast<std::size_t>(x);
  }

  std::size_t width;
  std::size_t height;
  std::vector<double> magnitude;  // sqrt(gx * gx + gy * gy)
  std::vector<double> angle;      // atan2(gy, gx), radians in [-pi, pi]
};

// Gaussian weight exp(-0.5 * d2 / sigma^2) of a window pixel, for each
// squared offset d2 = dx * dx + dy * dy a window of `radius` holds: indexed
// by d2 in [0, 2 * radius^2].
std::vector<double> WindowWeights(int radius, double sigma) {
  std::vector<double> weights(static_cast<std::size_t>(2 * radius * radius) + 1);
  for (std::size_t d2 = 0; d2 < weights.size(); ++d2) {
    weights[d2] = std::exp(-0.5 * static_cast<int>(d2) / (sigma * sigma));
  }
  return weights;
}

// Dominant gradient orientation around (x, y) at the given scale.
double DominantOrientation(const PolarGradients& grads, double x, double y,
                           double scale) {
  constexpr int kBins = 36;
  std::array<double, kBins> hist{};
  double sigma = 1.5 * scale;
  int radius = std::max(1, static_cast<int>(std::round(3.0 * sigma)));
  const std::vector<double> weights = WindowWeights(radius, sigma);
  const auto center_x = static_cast<std::ptrdiff_t>(std::round(x));
  const auto center_y = static_cast<std::ptrdiff_t>(std::round(y));
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      const std::size_t i = grads.ClampedIndex(center_x + dx, center_y + dy);
      double mag = grads.magnitude[i];
      if (mag <= 0.0) continue;
      double theta = grads.angle[i];
      if (theta < 0) theta += kTwoPi;
      double w = weights[static_cast<std::size_t>(dx * dx + dy * dy)];
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
  // Parabolic refinement over the peak and its neighbors.
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

constexpr int kGrid = 4;        // 4x4 spatial cells
constexpr int kOrientBins = 8;  // orientations per cell

// floor(v) for v in (-1, kGrid): truncation, one lower for a negative
// non-integer.
int FloorInGrid(double v) {
  int t = static_cast<int>(v);
  return v < t ? t - 1 : t;
}

// A window pixel inside the rotated 4x4 cell grid: its offset from the
// keypoint, its Gaussian weight, and its cell coordinates (rx, ry) split into
// floor and fraction.
struct WindowPixel {
  int dx;
  int dy;
  double weight;
  int x0;
  int y0;
  double fx;
  double fy;
};

// The support of a descriptor at one scale and orientation. What depends only
// on a pixel's offset is computed here once: the rotation into the cell grid,
// the grid test and the weight. Every dense descriptor shares one window (one
// scale, orientation 0); sparse SIFT builds one per keypoint.
struct DescriptorWindow {
  DescriptorWindow(double scale, double orientation) : orientation(orientation) {
    double cell_size = 3.0 * scale;              // pixels per descriptor cell
    double radius = cell_size * kGrid * 0.7071;  // cover the rotated window
    int r = std::max(2, static_cast<int>(std::round(radius)));
    const std::vector<double> weights = WindowWeights(r, 0.5 * kGrid * cell_size);
    double cos_t = std::cos(-orientation);
    double sin_t = std::sin(-orientation);
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        // Rotate the offset into the keypoint frame.
        double rx = (cos_t * dx - sin_t * dy) / cell_size + kGrid / 2.0 - 0.5;
        double ry = (sin_t * dx + cos_t * dy) / cell_size + kGrid / 2.0 - 0.5;
        if (rx <= -1.0 || rx >= kGrid || ry <= -1.0 || ry >= kGrid) continue;
        int x0 = FloorInGrid(rx);
        int y0 = FloorInGrid(ry);
        pixels.push_back({dx, dy, weights[static_cast<std::size_t>(dx * dx + dy * dy)],
                          x0, y0, rx - x0, ry - y0});
      }
    }
  }

  double orientation;
  std::vector<WindowPixel> pixels;  // in row-major offset order
};

// One 128-d SIFT descriptor at (x, y) over `window`.
std::vector<double> ComputeSiftDescriptor(const PolarGradients& grads,
                                          const DescriptorWindow& window,
                                          double x, double y) {
  std::vector<double> desc(kDescriptorDims, 0.0);
  const auto center_x = static_cast<std::ptrdiff_t>(std::round(x));
  const auto center_y = static_cast<std::ptrdiff_t>(std::round(y));
  for (const WindowPixel& p : window.pixels) {
    const std::size_t i = grads.ClampedIndex(center_x + p.dx, center_y + p.dy);
    double mag = grads.magnitude[i];
    if (mag <= 0.0) continue;
    double theta = grads.angle[i] - window.orientation;
    while (theta < 0) theta += kTwoPi;
    while (theta >= kTwoPi) theta -= kTwoPi;
    double obin = theta / kTwoPi * kOrientBins;

    // Trilinear vote over (rx, ry, obin). obin lies in [0, kOrientBins], so
    // truncation is its floor. (At obin = -0.0 the fraction is -0.0, not
    // +0.0; a vote of either zero leaves a bin's sum, which starts at +0.0,
    // unchanged.)
    const int x0 = p.x0;
    const int y0 = p.y0;
    const double fx = p.fx;
    const double fy = p.fy;
    const double w = p.weight;
    int obin_floor = static_cast<int>(obin);
    int o0 = obin_floor % kOrientBins;
    double fo = obin - obin_floor;
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

  // Normalize, clamp, renormalize (illumination invariance).
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

}  // namespace

SiftExtractor::SiftExtractor(SiftOptions options) : options_(options) {}

std::vector<Keypoint> SiftExtractor::DetectKeypoints(const Raster& img) const {
  std::vector<Keypoint> keypoints;
  if (img.width() < 16 || img.height() < 16) return keypoints;
  Raster base = img;
  if (options_.normalize_input) base.NormalizeRange();
  double coord_scale = 1.0;
  if (options_.upsample_first) {
    base = Upsample2x(base);
    coord_scale = 0.5;
  }
  auto pyramid = BuildPyramid(base, options_);

  for (int o = 0; o < static_cast<int>(pyramid.size()); ++o) {
    const Octave& oct = pyramid[static_cast<std::size_t>(o)];
    for (std::size_t s = 1; s + 1 < oct.dogs.size(); ++s) {
      const Raster& dog = oct.dogs[s];
      for (std::size_t y = 1; y + 1 < dog.height(); ++y) {
        for (std::size_t x = 1; x + 1 < dog.width(); ++x) {
          double v = dog.At(x, y);
          if (std::abs(v) < options_.contrast_threshold) continue;
          if (!IsExtremum(oct.dogs, s, x, y)) continue;
          if (!PassesEdgeTest(dog, x, y, options_.edge_ratio)) continue;
          Keypoint kp;
          kp.x = static_cast<double>(x) * oct.pixel_scale * coord_scale;
          kp.y = static_cast<double>(y) * oct.pixel_scale * coord_scale;
          kp.scale = oct.sigmas[s] * oct.pixel_scale * coord_scale;
          kp.response = std::abs(v);
          kp.octave = o;
          keypoints.push_back(kp);
        }
      }
    }
  }

  if (options_.max_features > 0 && keypoints.size() > options_.max_features) {
    std::sort(keypoints.begin(), keypoints.end(),
              [](const Keypoint& a, const Keypoint& b) { return a.response > b.response; });
    keypoints.resize(options_.max_features);
  }
  return keypoints;
}

std::vector<SiftFeature> SiftExtractor::Extract(const Raster& img) const {
  std::vector<SiftFeature> features;
  auto keypoints = DetectKeypoints(img);
  if (keypoints.empty()) return features;
  Raster base = img;
  if (options_.normalize_input) base.NormalizeRange();
  const PolarGradients grads(ComputeGradients(GaussianBlur(base, 1.0)));
  features.reserve(keypoints.size());
  for (auto& kp : keypoints) {
    kp.orientation = DominantOrientation(grads, kp.x, kp.y, kp.scale);
    SiftFeature f;
    f.keypoint = kp;
    f.descriptor =
        ComputeSiftDescriptor(grads, DescriptorWindow(kp.scale, kp.orientation), kp.x, kp.y);
    features.push_back(std::move(f));
  }
  return features;
}

DenseSiftExtractor::DenseSiftExtractor(DenseSiftOptions options) : options_(options) {}

std::vector<SiftFeature> DenseSiftExtractor::Extract(const Raster& img) const {
  std::vector<SiftFeature> features;
  if (img.width() < 8 || img.height() < 8 || options_.step == 0) return features;
  Raster base = img;
  if (options_.normalize_input) base.NormalizeRange();
  const PolarGradients grads(ComputeGradients(GaussianBlur(base, 1.0)));
  const DescriptorWindow window(options_.patch_scale, 0.0);
  for (std::size_t y = options_.step / 2; y < img.height(); y += options_.step) {
    for (std::size_t x = options_.step / 2; x < img.width(); x += options_.step) {
      SiftFeature f;
      f.keypoint.x = static_cast<double>(x);
      f.keypoint.y = static_cast<double>(y);
      f.keypoint.scale = options_.patch_scale;
      f.keypoint.orientation = 0.0;  // dense variant is not rotation-normalized
      f.descriptor = ComputeSiftDescriptor(grads, window, f.keypoint.x, f.keypoint.y);
      features.push_back(std::move(f));
    }
  }
  return features;
}

}  // namespace fc::vision
