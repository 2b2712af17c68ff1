#include "core/recommender.h"

#include <algorithm>

namespace fc::core {

Status Recommender::Train(const std::vector<Trace>&) { return Status::OK(); }

std::vector<tiles::TileKey> CandidateTiles(const tiles::TileKey& from,
                                           const tiles::PyramidSpec& spec, int d) {
  std::vector<tiles::TileKey> result;
  CandidateTiles(from, spec, d, &result);
  return result;
}

void CandidateTiles(const tiles::TileKey& from, const tiles::PyramidSpec& spec,
                    int d, std::vector<tiles::TileKey>* out) {
  out->clear();
  // BFS over the move graph to depth d; at d=1 this yields move-enum order.
  // `out` is the queue: depth k's frontier is the range found at depth k-1
  // (the first frontier is `from` alone), and a tile is new unless it is
  // `from` or already found, which a scan of the short list decides.
  auto visit = [&](const tiles::TileKey& key) {
    for (Move m : AllMoves()) {
      auto to = ApplyMove(key, m, spec);
      if (to.has_value() && *to != from &&
          std::find(out->begin(), out->end(), *to) == out->end()) {
        out->push_back(*to);
      }
    }
  };
  if (d <= 0) return;
  visit(from);
  std::size_t frontier_end = 0;
  for (int depth = 1; depth < d; ++depth) {
    const std::size_t frontier_begin = frontier_end;
    frontier_end = out->size();
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      visit(tiles::TileKey((*out)[i]));  // a copy: visit may grow `out`
    }
  }
}

}  // namespace fc::core
