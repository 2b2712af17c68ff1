// Recommendation-model interface (paper section 4.3.1).
//
// Given a request r, candidate tiles C, and session history H, a recommender
// orders C by how likely the user is to request each tile next. The
// prediction engine trims each model's list to its cache allocation.

#ifndef FORECACHE_CORE_RECOMMENDER_H_
#define FORECACHE_CORE_RECOMMENDER_H_

#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/request.h"
#include "tiles/tile_key.h"

namespace fc::core {

/// Everything a recommender may consult for one prediction.
struct PredictionContext {
  TileRequest request;                    ///< The request r just served.
  const SessionHistory* history = nullptr;  ///< H (required).
  std::vector<tiles::TileKey> candidates;   ///< C, derived by the engine.
  std::vector<tiles::TileKey> roi;          ///< Most recent ROI (may be empty).
  const tiles::PyramidSpec* spec = nullptr; ///< Pyramid geometry (required).
};

/// A ranked prediction: tiles ordered most-likely-first.
using RankedTiles = std::vector<tiles::TileKey>;

class Recommender {
 public:
  virtual ~Recommender() = default;

  virtual std::string_view name() const = 0;

  /// Trains from recorded sessions; default no-op for stateless models.
  virtual Status Train(const std::vector<Trace>& traces);

  /// Orders ctx.candidates most-likely-first. Implementations must return a
  /// permutation of the candidate set (the engine relies on completeness to
  /// fill larger allocations).
  virtual Result<RankedTiles> Recommend(const PredictionContext& ctx) const = 0;
};

/// The candidate set C: all tiles at most `d` moves away from `from`
/// (paper section 4.3.1; default d = 1 gives the 9 one-move neighbors,
/// fewer at borders). Excludes `from` itself; deduplicated; deterministic
/// order (move-enum order at d=1, BFS order for d>1).
std::vector<tiles::TileKey> CandidateTiles(const tiles::TileKey& from,
                                           const tiles::PyramidSpec& spec, int d = 1);

/// CandidateTiles into `out`, replacing its contents (reuses its capacity).
void CandidateTiles(const tiles::TileKey& from, const tiles::PyramidSpec& spec,
                    int d, std::vector<tiles::TileKey>* out);

/// Sorts [first, last) by the strict weak order `less`, keeping equal
/// elements in order: std::stable_sort's result without its temporary
/// buffer. Quadratic; meant for the short candidate lists recommenders rank.
template <typename It, typename Less>
void StableInsertionSort(It first, It last, Less less) {
  for (It i = first; i != last; ++i) {
    auto value = std::move(*i);
    It j = i;
    for (; j != first && less(value, *(j - 1)); --j) *j = std::move(*(j - 1));
    *j = std::move(value);
  }
}

}  // namespace fc::core

#endif  // FORECACHE_CORE_RECOMMENDER_H_
