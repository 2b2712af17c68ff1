#include "vision/raster.h"

#include <algorithm>
#include <cmath>

#include "common/string_utils.h"

namespace fc::vision {

Raster::Raster(std::size_t width, std::size_t height, double fill)
    : width_(width), height_(height), data_(width * height, fill) {}

Result<Raster> Raster::FromData(std::size_t width, std::size_t height,
                                std::vector<double> data) {
  if (data.size() != width * height) {
    return Status::InvalidArgument(
        StrFormat("raster data size %zu != %zu x %zu", data.size(), width, height));
  }
  Raster r;
  r.width_ = width;
  r.height_ = height;
  r.data_ = std::move(data);
  return r;
}

double Raster::AtClamped(std::ptrdiff_t x, std::ptrdiff_t y) const {
  if (empty()) return 0.0;
  x = std::clamp<std::ptrdiff_t>(x, 0, static_cast<std::ptrdiff_t>(width_) - 1);
  y = std::clamp<std::ptrdiff_t>(y, 0, static_cast<std::ptrdiff_t>(height_) - 1);
  return data_[static_cast<std::size_t>(y) * width_ + static_cast<std::size_t>(x)];
}

double Raster::Sample(double x, double y) const {
  if (empty()) return 0.0;
  double fx = std::floor(x);
  double fy = std::floor(y);
  auto x0 = static_cast<std::ptrdiff_t>(fx);
  auto y0 = static_cast<std::ptrdiff_t>(fy);
  double ax = x - fx;
  double ay = y - fy;
  double v00 = AtClamped(x0, y0);
  double v10 = AtClamped(x0 + 1, y0);
  double v01 = AtClamped(x0, y0 + 1);
  double v11 = AtClamped(x0 + 1, y0 + 1);
  return (1 - ax) * (1 - ay) * v00 + ax * (1 - ay) * v10 + (1 - ax) * ay * v01 +
         ax * ay * v11;
}

std::pair<double, double> Raster::MinMax() const {
  if (empty()) return {0.0, 0.0};
  auto [mn, mx] = std::minmax_element(data_.begin(), data_.end());
  return {*mn, *mx};
}

void Raster::NormalizeRange() {
  auto [mn, mx] = MinMax();
  double span = mx - mn;
  if (span <= 0.0) return;
  for (double& v : data_) v = (v - mn) / span;
}

GradientField ComputeGradients(const Raster& img) {
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  GradientField g{Raster(w, h), Raster(w, h)};
  if (img.empty()) return g;
  const double* src = img.data().data();
  for (std::size_t y = 0; y < h; ++y) {
    // Central differences; a neighbour outside the image is clamped to the
    // border, so the edge rows and columns difference against themselves.
    const double* row = src + y * w;
    const double* up = src + (y > 0 ? y - 1 : 0) * w;
    const double* down = src + (y + 1 < h ? y + 1 : y) * w;
    double* gx = g.dx.mutable_data().data() + y * w;
    double* gy = g.dy.mutable_data().data() + y * w;
    gx[0] = 0.5 * (row[w > 1 ? 1 : 0] - row[0]);
    for (std::size_t x = 1; x + 1 < w; ++x) gx[x] = 0.5 * (row[x + 1] - row[x - 1]);
    if (w > 1) gx[w - 1] = 0.5 * (row[w - 1] - row[w - 2]);
    for (std::size_t x = 0; x < w; ++x) gy[x] = 0.5 * (down[x] - up[x]);
  }
  return g;
}

Raster GaussianBlur(const Raster& img, double sigma) {
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

  // Both passes accumulate tap-major into zeroed rows: each output still sums
  // kernel[0] * v[0] + ... + kernel[2r] * v[2r] in that order from 0.0, with
  // v[i] the source pixel at offset i - r clamped to the image, while the
  // independent outputs of a row run side by side.
  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const auto r = static_cast<std::ptrdiff_t>(radius);
  auto clamp_index = [](std::ptrdiff_t i, std::size_t n) {
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(n) - 1));
  };

  // Horizontal pass, over each row padded by r clamped pixels on either side.
  Raster tmp(w, h);
  std::vector<double> padded(w + 2 * static_cast<std::size_t>(radius));
  for (std::size_t y = 0; y < h; ++y) {
    const double* row = img.data().data() + y * w;
    for (std::size_t j = 0; j < padded.size(); ++j) {
      padded[j] = row[clamp_index(static_cast<std::ptrdiff_t>(j) - r, w)];
    }
    double* dst = tmp.mutable_data().data() + y * w;
    for (std::size_t i = 0; i < kernel.size(); ++i) {
      const double k = kernel[i];
      const double* src = padded.data() + i;
      for (std::size_t x = 0; x < w; ++x) dst[x] += k * src[x];
    }
  }
  // Vertical pass, whole rows at a time, the source row clamped to the image.
  Raster out(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    double* dst = out.mutable_data().data() + y * w;
    for (std::size_t i = 0; i < kernel.size(); ++i) {
      const double k = kernel[i];
      const double* src =
          tmp.data().data() +
          clamp_index(static_cast<std::ptrdiff_t>(y + i) - r, h) * w;
      for (std::size_t x = 0; x < w; ++x) dst[x] += k * src[x];
    }
  }
  return out;
}

Raster Downsample2x(const Raster& img) {
  std::size_t w = std::max<std::size_t>(1, img.width() / 2);
  std::size_t h = std::max<std::size_t>(1, img.height() / 2);
  Raster out(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      out.At(x, y) = img.At(std::min(2 * x, img.width() - 1),
                            std::min(2 * y, img.height() - 1));
    }
  }
  return out;
}

Raster Upsample2x(const Raster& img) {
  if (img.empty()) return img;
  std::size_t w = img.width() * 2;
  std::size_t h = img.height() * 2;
  Raster out(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      out.At(x, y) = img.Sample(static_cast<double>(x) / 2.0,
                                static_cast<double>(y) / 2.0);
    }
  }
  return out;
}

}  // namespace fc::vision
