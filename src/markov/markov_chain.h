// MarkovChain: the paper's n-th-order action model (Algorithm 2).
//
// A "Markov-n" chain has one state per length-n move sequence and learns
// transition frequencies F[(v_{i-n},...,v_{i-1}) -> v_i] from training
// traces, smoothed with Kneser-Ney. Implemented as an order-(n+1) NGramModel.

#ifndef FORECACHE_MARKOV_MARKOV_CHAIN_H_
#define FORECACHE_MARKOV_MARKOV_CHAIN_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "markov/ngram_model.h"

namespace fc::markov {

class MarkovChain {
 public:
  /// `history_length` is the paper's n (state = last n moves). InvalidArgument
  /// via NGramModel::Make on bad parameters.
  static Result<MarkovChain> Make(std::size_t vocab_size, std::size_t history_length,
                                  double discount = 0.75);

  std::size_t history_length() const { return history_length_; }
  std::size_t vocab_size() const { return model_.vocab_size(); }

  /// Algorithm 2, PROCESSTRACES: accumulates transition frequencies from a
  /// set of move-sequence traces, then finalizes smoothing.
  Status Train(const std::vector<std::vector<int>>& traces);

  /// Adds one trace's counts without finalizing (incremental training).
  Status Observe(const std::vector<int>& trace);

  /// Recomputes smoothing after Observe calls.
  void Finalize() { model_.Finalize(); }

  /// P(next move | recent moves); uses the last `history_length` entries.
  double TransitionProbability(const std::vector<int>& recent_moves, int next) const;

  /// Full next-move distribution (sums to 1).
  std::vector<double> NextMoveDistribution(const std::vector<int>& recent_moves) const;

  /// The same distribution read in place from the model's context table
  /// (vocab_size() values; see NGramModel::DistributionRow). Requires a
  /// trained or finalized chain.
  const double* NextMoveRow(std::span<const int> recent_moves) const {
    return model_.DistributionRow(recent_moves);
  }

  /// Number of distinct states (length-n sequences) observed in training.
  std::size_t ObservedStates() const { return model_.DistinctGrams(history_length_); }

  const NGramModel& model() const { return model_; }

 private:
  MarkovChain(NGramModel model, std::size_t history_length)
      : model_(std::move(model)), history_length_(history_length) {}

  NGramModel model_;
  std::size_t history_length_;
};

}  // namespace fc::markov

#endif  // FORECACHE_MARKOV_MARKOV_CHAIN_H_
