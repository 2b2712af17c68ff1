#include "core/sb_recommender.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fc::core {

SbRecommender::SbRecommender(const tiles::TileMetadataStore* metadata,
                             const vision::SignatureToolbox* toolbox,
                             SbRecommenderOptions options)
    : metadata_(metadata), toolbox_(toolbox), options_(std::move(options)) {
  if (options_.signature_weights.empty()) {
    options_.signature_weights[vision::SignatureKind::kSift] = 1.0;
  }
  for (const auto& [kind, weight] : options_.signature_weights) {
    kinds_.push_back(kind);
    weights_.push_back(weight);
  }
}

SbRecommender::Signatures SbRecommender::SignaturesOf(
    const tiles::TileKey& key) const {
  Signatures signatures(kinds_.size(), nullptr);
  auto metadata = metadata_->Get(key);
  if (!metadata.ok()) return signatures;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    auto it = (*metadata)->signatures.find(kinds_[i]);
    if (it != (*metadata)->signatures.end()) signatures[i] = &it->second;
  }
  return signatures;
}

void SbRecommender::PenalizedDistances(const Signatures& a, const Signatures& b,
                                       std::int64_t manhattan,
                                       std::optional<double>* out) const {
  // Algorithm 3 line 8: d_i,A,B <- 2^(dmanh(A,B)-1) * dist_Si(...). For an
  // integer exponent ldexp is exact; beyond +-2000 it gives +inf or 0, as pow
  // does.
  double penalty = std::ldexp(
      1.0, static_cast<int>(std::clamp<std::int64_t>(manhattan - 1, -2000, 2000)));
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    auto extractor = toolbox_->Get(kinds_[i]);
    out[i] = std::nullopt;
    if (extractor.ok() && a[i] != nullptr && b[i] != nullptr) {
      out[i] = penalty * (*extractor)->Distance(*a[i], *b[i]);
    }
  }
}

std::optional<double> SbRecommender::CombinedDistance(
    const std::optional<double>* penalized, const double* kind_max,
    std::int64_t manhattan) const {
  // Algorithm 3 lines 12-13: weighted l2-norm of normalized per-signature
  // distances, divided by the physical distance.
  double sum = 0.0;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (!penalized[i].has_value()) return std::nullopt;
    double normalized = *penalized[i] / kind_max[i];
    sum += weights_[i] * normalized * normalized;
  }
  double physical = static_cast<double>(std::max<std::int64_t>(1, manhattan));
  return std::sqrt(sum) / physical;
}

Result<double> SbRecommender::PairDistance(
    const tiles::TileKey& candidate, const tiles::TileKey& reference,
    const std::map<vision::SignatureKind, double>& per_signature_max) const {
  std::int64_t manhattan = tiles::TileKey::ManhattanDistance(candidate, reference);
  std::vector<std::optional<double>> penalized(kinds_.size());
  PenalizedDistances(SignaturesOf(candidate), SignaturesOf(reference), manhattan,
                     penalized.data());
  std::vector<double> kind_max(kinds_.size(), 1.0);
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    auto it = per_signature_max.find(kinds_[i]);
    if (it != per_signature_max.end() && it->second > 0.0) kind_max[i] = it->second;
  }
  auto distance = CombinedDistance(penalized.data(), kind_max.data(), manhattan);
  if (!distance.has_value()) {
    return Status::NotFound("sb: " + candidate.ToString() + " and " +
                            reference.ToString() + " lack a common signature");
  }
  return *distance;
}

Result<RankedTiles> SbRecommender::Recommend(const PredictionContext& ctx) const {
  if (ctx.history == nullptr || ctx.spec == nullptr) {
    return Status::InvalidArgument("sb: prediction context missing history/spec");
  }

  // Reference set: the last ROI, else recent history tiles, else the
  // current tile (a degenerate but well-defined reference).
  std::vector<tiles::TileKey> references = ctx.roi;
  if (references.empty()) {
    for (const auto& r : ctx.history->entries()) {
      if (std::find(references.begin(), references.end(), r.tile) ==
          references.end()) {
        references.push_back(r.tile);
      }
    }
    constexpr std::size_t kMaxFallbackRefs = 4;
    if (references.size() > kMaxFallbackRefs) {
      references.erase(references.begin(),
                       references.end() - static_cast<std::ptrdiff_t>(kMaxFallbackRefs));
    }
  }
  if (references.empty()) references.push_back(ctx.request.tile);

  // A candidate that is itself a reference tile (the user just came from
  // it) carries no similarity information — comparing a tile with itself
  // yields distance zero and would waste the top prefetch slot on a tile
  // the user already holds. Skip such pairs (unless they are all we have).
  auto skip_self = [&references](const tiles::TileKey& cand,
                                 const tiles::TileKey& ref) {
    return references.size() > 1 && cand == ref;
  };

  // Lines 1-9: compute penalized distances and per-signature maxima. Each
  // pair's distances are kept for lines 10-15.
  const std::size_t num_kinds = kinds_.size();
  std::vector<Signatures> reference_signatures;
  reference_signatures.reserve(references.size());
  for (const auto& ref : references) reference_signatures.push_back(SignaturesOf(ref));
  std::vector<std::optional<double>> penalized(ctx.candidates.size() *
                                               references.size() * num_kinds);
  auto pair_distances = [&](std::size_t c, std::size_t r) {
    return penalized.data() + (c * references.size() + r) * num_kinds;
  };
  std::vector<double> kind_max(num_kinds, 1.0);  // d_i,MAX <- 1 (line 2)
  for (std::size_t c = 0; c < ctx.candidates.size(); ++c) {
    const auto& cand = ctx.candidates[c];
    const Signatures signatures = SignaturesOf(cand);
    for (std::size_t r = 0; r < references.size(); ++r) {
      if (skip_self(cand, references[r])) continue;
      std::optional<double>* d = pair_distances(c, r);
      PenalizedDistances(signatures, reference_signatures[r],
                         tiles::TileKey::ManhattanDistance(cand, references[r]), d);
      for (std::size_t k = 0; k < num_kinds; ++k) {
        // Candidates lacking metadata simply do not raise the max.
        if (d[k].has_value()) kind_max[k] = std::max(kind_max[k], *d[k]);
      }
    }
  }

  // Lines 10-15: normalized, weighted, physical-distance-scaled pair
  // distances, summed per candidate over all reference tiles.
  //
  // Candidates the user has requested recently are demoted below all fresh
  // candidates: the middleware's history region already holds the last n
  // tiles, so SB's job is to surface NEW tiles that look like the user's
  // recent interest ("find more mountains", section 4.3.3) — re-predicting
  // a resident tile wastes a prefetch slot.
  struct Scored {
    tiles::TileKey key;
    double distance;
    bool recently_requested;
    int tiebreak;
  };
  auto in_history = [&ctx](const tiles::TileKey& key) {
    for (const auto& r : ctx.history->entries()) {
      if (r.tile == key) return true;
    }
    return false;
  };
  std::vector<Scored> scored;
  scored.reserve(ctx.candidates.size());
  for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
    const auto& cand = ctx.candidates[i];
    double total = 0.0;
    bool any = false;
    for (std::size_t r = 0; r < references.size(); ++r) {
      if (skip_self(cand, references[r])) continue;
      auto d = CombinedDistance(pair_distances(i, r), kind_max.data(),
                                tiles::TileKey::ManhattanDistance(cand, references[r]));
      if (d.has_value()) {
        total += *d;
        any = true;
      }
    }
    // Candidates without metadata rank last (infinite distance).
    double dist = any ? total : std::numeric_limits<double>::infinity();
    scored.push_back({cand, dist, in_history(cand), static_cast<int>(i)});
  }
  std::stable_sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.recently_requested != b.recently_requested) {
      return !a.recently_requested;  // fresh tiles first
    }
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.tiebreak < b.tiebreak;
  });
  RankedTiles out;
  out.reserve(scored.size());
  for (const auto& s : scored) out.push_back(s.key);
  return out;
}

}  // namespace fc::core
