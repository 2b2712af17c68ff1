#include "core/sb_recommender.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fc::core {

namespace {

struct Scored {
  tiles::TileKey key;
  double distance;
  bool recently_requested;
  int tiebreak;
};

// Recommend's per-thread buffers, reused by every later call on the thread
// (grown, never shrunk). Recommend never nests, so one set per thread.
struct Scratch {
  std::vector<tiles::TileKey> references;
  std::vector<const std::vector<double>*> signatures;
  std::vector<std::optional<double>> penalized;
  std::vector<double> kind_max;
  std::vector<Scored> scored;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

SbRecommender::SbRecommender(const tiles::TileMetadataStore* metadata,
                             const vision::SignatureToolbox* toolbox,
                             SbRecommenderOptions options)
    : metadata_(metadata), options_(std::move(options)) {
  if (options_.signature_weights.empty()) {
    options_.signature_weights[vision::SignatureKind::kSift] = 1.0;
  }
  for (const auto& [kind, weight] : options_.signature_weights) {
    kinds_.push_back(kind);
    weights_.push_back(weight);
    auto extractor = toolbox->Get(kind);
    extractors_.push_back(extractor.ok() ? *extractor : nullptr);
  }
}

void SbRecommender::SignaturesOf(const tiles::TileKey& key,
                                 SignatureRef* out) const {
  const tiles::TileMetadata* metadata = metadata_->Find(key);
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    out[i] = nullptr;
    if (metadata == nullptr) continue;
    auto it = metadata->signatures.find(kinds_[i]);
    if (it != metadata->signatures.end()) out[i] = &it->second;
  }
}

void SbRecommender::PenalizedDistances(const SignatureRef* a, const SignatureRef* b,
                                       std::int64_t manhattan,
                                       std::optional<double>* out) const {
  // Algorithm 3 line 8: d_i,A,B <- 2^(dmanh(A,B)-1) * dist_Si(...). For an
  // integer exponent ldexp is exact; beyond +-2000 it gives +inf or 0, as pow
  // does.
  double penalty = std::ldexp(
      1.0, static_cast<int>(std::clamp<std::int64_t>(manhattan - 1, -2000, 2000)));
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    out[i] = std::nullopt;
    if (extractors_[i] != nullptr && a[i] != nullptr && b[i] != nullptr) {
      out[i] = penalty * extractors_[i]->Distance(*a[i], *b[i]);
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
  std::vector<SignatureRef> signatures(2 * kinds_.size());
  SignaturesOf(candidate, signatures.data());
  SignaturesOf(reference, signatures.data() + kinds_.size());
  std::vector<std::optional<double>> penalized(kinds_.size());
  PenalizedDistances(signatures.data(), signatures.data() + kinds_.size(), manhattan,
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
  Scratch& scratch = ThreadScratch();

  // Reference set: the last ROI, else recent history tiles, else the
  // current tile (a degenerate but well-defined reference).
  std::vector<tiles::TileKey>& references = scratch.references;
  references.assign(ctx.roi.begin(), ctx.roi.end());
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
  const std::size_t num_refs = references.size();
  scratch.signatures.resize((num_refs + 1) * num_kinds);
  SignatureRef* reference_signatures = scratch.signatures.data();
  SignatureRef* candidate_signatures = reference_signatures + num_refs * num_kinds;
  for (std::size_t r = 0; r < num_refs; ++r) {
    SignaturesOf(references[r], reference_signatures + r * num_kinds);
  }
  scratch.penalized.assign(ctx.candidates.size() * num_refs * num_kinds, std::nullopt);
  auto pair_distances = [&](std::size_t c, std::size_t r) {
    return scratch.penalized.data() + (c * num_refs + r) * num_kinds;
  };
  scratch.kind_max.assign(num_kinds, 1.0);  // d_i,MAX <- 1 (line 2)
  double* kind_max = scratch.kind_max.data();
  for (std::size_t c = 0; c < ctx.candidates.size(); ++c) {
    const auto& cand = ctx.candidates[c];
    SignaturesOf(cand, candidate_signatures);
    for (std::size_t r = 0; r < num_refs; ++r) {
      if (skip_self(cand, references[r])) continue;
      std::optional<double>* d = pair_distances(c, r);
      PenalizedDistances(candidate_signatures, reference_signatures + r * num_kinds,
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
  auto in_history = [&ctx](const tiles::TileKey& key) {
    for (const auto& r : ctx.history->entries()) {
      if (r.tile == key) return true;
    }
    return false;
  };
  std::vector<Scored>& scored = scratch.scored;
  scored.clear();
  for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
    const auto& cand = ctx.candidates[i];
    double total = 0.0;
    bool any = false;
    for (std::size_t r = 0; r < num_refs; ++r) {
      if (skip_self(cand, references[r])) continue;
      auto d = CombinedDistance(pair_distances(i, r), kind_max,
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
  StableInsertionSort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
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
