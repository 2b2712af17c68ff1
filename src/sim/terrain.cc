#include "sim/terrain.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"

namespace fc::sim {

std::vector<MountainRange> DefaultStudyRanges() {
  // Three analogues in distinct regions. The "Rockies" are large and snowy
  // (task 1); the "Alps" are compact (task 2); the "Andes" are a long thin
  // north-south ridge (task 3) — so sensemaking there rewards panning, the
  // behavior the study observed for South America.
  return {
      MountainRange{"rockies", 0.22, 0.28, 0.16, 0.075, -1.0, 1.00},
      MountainRange{"alps", 0.68, 0.30, 0.085, 0.045, 0.35, 0.85},
      MountainRange{"andes", 0.30, 0.74, 0.20, 0.035, 1.45, 0.90},
  };
}

Terrain::Terrain(TerrainOptions options) : options_(std::move(options)) {
  if (options_.ranges.empty()) options_.ranges = DefaultStudyRanges();
  if (options_.width > 0 && options_.height > 0) {
    elevation_.reserve(static_cast<std::size_t>(options_.width * options_.height));
  }
  for (std::int64_t y = 0; y < options_.height; ++y) {
    for (std::int64_t x = 0; x < options_.width; ++x) {
      elevation_.push_back(ComputeElevation(x, y));
    }
  }
}

namespace {

// Smoothstep interpolation weight.
double Fade(double t) { return t * t * (3.0 - 2.0 * t); }

// Hash of lattice point -> [0,1].
double LatticeValue(std::int64_t ix, std::int64_t iy, std::uint64_t seed,
                    std::uint64_t salt) {
  std::uint64_t h = fc::HashSeed(
      fc::CombineSeeds(fc::CombineSeeds(seed, salt),
                       (static_cast<std::uint64_t>(ix) << 32) ^
                           static_cast<std::uint64_t>(iy & 0xFFFFFFFF)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

double Terrain::ValueNoise(double x, double y, std::uint64_t salt) const {
  double fx = std::floor(x);
  double fy = std::floor(y);
  auto ix = static_cast<std::int64_t>(fx);
  auto iy = static_cast<std::int64_t>(fy);
  double tx = Fade(x - fx);
  double ty = Fade(y - fy);
  double v00 = LatticeValue(ix, iy, options_.seed, salt);
  double v10 = LatticeValue(ix + 1, iy, options_.seed, salt);
  double v01 = LatticeValue(ix, iy + 1, options_.seed, salt);
  double v11 = LatticeValue(ix + 1, iy + 1, options_.seed, salt);
  double a = v00 * (1 - tx) + v10 * tx;
  double b = v01 * (1 - tx) + v11 * tx;
  return a * (1 - ty) + b * ty;
}

double Terrain::Fbm(double x, double y, std::uint64_t salt) const {
  double total = 0.0;
  double amplitude = 1.0;
  double frequency = options_.noise_base_frequency;
  double norm = 0.0;
  for (int o = 0; o < options_.noise_octaves; ++o) {
    total += amplitude * ValueNoise(x * frequency, y * frequency,
                                    salt + static_cast<std::uint64_t>(o) * 1315423911ULL);
    norm += amplitude;
    amplitude *= 0.5;
    frequency *= 2.0;
  }
  return norm > 0.0 ? total / norm : 0.0;
}

double Terrain::Elevation(std::int64_t x, std::int64_t y) const {
  return elevation_[static_cast<std::size_t>(y * options_.width + x)];
}

double Terrain::ComputeElevation(std::int64_t x, std::int64_t y) const {
  double u = (static_cast<double>(x) + 0.5) / static_cast<double>(options_.width);
  double v = (static_cast<double>(y) + 0.5) / static_cast<double>(options_.height);

  // Fractal base relief in [0, noise_amplitude].
  double elevation = options_.noise_amplitude * Fbm(u, v, /*salt=*/1);

  // Ridge contributions: rotated anisotropic Gaussians modulated by noise so
  // ranges have distinct peaks separated by lower passes (real ranges are
  // not uniformly snow-capped; the peak/pass alternation is what makes the
  // study's "find the snowiest tiles" tasks genuine searches). The peak
  // noise does not depend on the range.
  double peaks = Fbm(u * 9.0, v * 9.0, /*salt=*/7);
  double ridge_noise = 0.30 + 0.70 * peaks * peaks;  // sharpen the peaks
  for (const auto& range : options_.ranges) {
    double dx = u - range.center_x;
    double dy = v - range.center_y;
    double cos_a = std::cos(range.angle_rad);
    double sin_a = std::sin(range.angle_rad);
    double along = dx * cos_a + dy * sin_a;
    double across = -dx * sin_a + dy * cos_a;
    double g = std::exp(-0.5 * (along * along / (range.length * range.length) +
                                across * across / (range.width * range.width)));
    elevation += range.height * g * ridge_noise;
  }
  return elevation;
}

double Terrain::CellJitter(std::int64_t x, std::int64_t y, int day,
                           std::uint64_t salt) const {
  std::uint64_t h = fc::HashSeed(fc::CombineSeeds(
      options_.seed ^ salt,
      fc::CombineSeeds((static_cast<std::uint64_t>(x) << 20) ^
                           static_cast<std::uint64_t>(y),
                       static_cast<std::uint64_t>(day) + 101)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
}

bool Terrain::IsLand(std::int64_t x, std::int64_t y) const {
  return Elevation(x, y) > options_.sea_level;
}

double Terrain::SnowFraction(std::int64_t x, std::int64_t y, int day) const {
  if (!IsLand(x, y)) return 0.0;
  double elevation = Elevation(x, y);
  // Northern cells (small y = high latitude) keep a lower snow line —
  // mirrors the US/Canada vs South America contrast in the study data.
  double v = (static_cast<double>(y) + 0.5) / static_cast<double>(options_.height);
  double latitude_drop = 0.12 * (1.0 - v);
  // The composite day shifts the line slightly (weather over the week).
  double day_shift = 0.015 * static_cast<double>(day % 3) - 0.015;
  double line = options_.snow_line - latitude_drop + day_shift;
  double t = (elevation - line) / 0.25;  // soft transition band
  double frac = Clamp(t, 0.0, 1.0);
  // Patchiness within the transition band.
  if (frac > 0.0 && frac < 1.0) {
    double n = CellJitter(x, y, day, /*salt=*/3);
    frac = Clamp(frac + 0.25 * (n - 0.5), 0.0, 1.0);
  }
  return frac;
}

double Terrain::VisReflectance(std::int64_t x, std::int64_t y, int day) const {
  double snow = SnowFraction(x, y, day);
  // Snow is highly reflective in visible light; bare land and water are not.
  double base = IsLand(x, y) ? 0.18 : 0.08;
  double vis = base + 0.72 * snow;
  double noise = 0.02 * (CellJitter(x, y, day, /*salt=*/11) - 0.5);
  return Clamp(vis + noise, 0.01, 1.0);
}

double Terrain::SwirReflectance(std::int64_t x, std::int64_t y, int day) const {
  double snow = SnowFraction(x, y, day);
  // Snow absorbs short-wave infrared; bare land reflects moderately.
  double base = IsLand(x, y) ? 0.30 : 0.10;
  double swir = base * (1.0 - 0.85 * snow) + 0.02;
  double noise = 0.02 * (CellJitter(x, y, day, /*salt=*/13) - 0.5);
  return Clamp(swir + noise, 0.01, 1.0);
}

}  // namespace fc::sim
