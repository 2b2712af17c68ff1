#include "core/ab_recommender.h"

#include <algorithm>

namespace fc::core {

AbRecommender::AbRecommender(markov::MarkovChain chain)
    : chain_(std::make_shared<markov::MarkovChain>(std::move(chain))) {}

Result<AbRecommender> AbRecommender::Make(AbRecommenderOptions options) {
  FC_ASSIGN_OR_RETURN(auto chain,
                      markov::MarkovChain::Make(kNumMoves, options.history_length,
                                                options.kneser_ney_discount));
  return AbRecommender(std::move(chain));
}

Status AbRecommender::Train(const std::vector<Trace>& traces) {
  for (const auto& trace : traces) {
    FC_RETURN_IF_ERROR(chain_->Observe(trace.MoveSymbols()));
  }
  chain_->Finalize();
  return Status::OK();
}

double AbRecommender::MoveProbability(const SessionHistory& history,
                                      Move move) const {
  return chain_->TransitionProbability(history.MoveSymbols(),
                                       static_cast<int>(move));
}

Result<RankedTiles> AbRecommender::Recommend(const PredictionContext& ctx) const {
  if (ctx.history == nullptr || ctx.spec == nullptr) {
    return Status::InvalidArgument("ab: prediction context missing history/spec");
  }
  // The chain conditions on the last history_length() moves only: read
  // those, oldest first, from the end of the history.
  int recent[markov::NGramModel::kMaxOrder];
  const std::size_t want = chain_->history_length();  // < kMaxOrder
  std::size_t have = 0;
  const auto& entries = ctx.history->entries();
  for (auto it = entries.rbegin(); it != entries.rend() && have < want; ++it) {
    if (it->move.has_value()) recent[want - 1 - have++] = static_cast<int>(*it->move);
  }
  const double* dist =
      chain_->NextMoveRow(std::span<const int>(recent + (want - have), have));

  // Score each candidate by the probability of the move reaching it. At
  // d > 1 the first hop dominates; unreachable-in-one candidates get the
  // probability of the best first hop toward them (approximated by 0 — they
  // sort after all one-hop candidates, keeping the permutation complete).
  struct Scored {
    tiles::TileKey key;
    double score;
    int tiebreak;
  };
  thread_local std::vector<Scored> scored;
  scored.clear();
  for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
    const auto& cand = ctx.candidates[i];
    double score = 0.0;
    auto move = MoveBetween(ctx.request.tile, cand);
    if (move.has_value()) {
      score = dist[static_cast<std::size_t>(*move)];
    }
    scored.push_back({cand, score, static_cast<int>(i)});
  }
  StableInsertionSort(scored.begin(), scored.end(),
                      [](const Scored& a, const Scored& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.tiebreak < b.tiebreak;
                      });
  RankedTiles out;
  out.reserve(scored.size());
  for (const auto& s : scored) out.push_back(s.key);
  return out;
}

}  // namespace fc::core
