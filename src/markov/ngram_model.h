// Interpolated Kneser-Ney n-gram language model (the BerkeleyLM stand-in).
//
// ForeCache's Action-Based recommender is an n-th-order Markov chain over
// the 9-move vocabulary, smoothed with Kneser-Ney (paper section 4.3.2,
// Algorithm 2). Symbols are small integers in [0, vocab_size).

#ifndef FORECACHE_MARKOV_NGRAM_MODEL_H_
#define FORECACHE_MARKOV_NGRAM_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace fc::markov {

/// Interpolated Kneser-Ney model of a fixed maximum order.
///
/// "Order" is the gram length: an order-4 model conditions on 3 previous
/// symbols (the paper's Markov3). Counts are accumulated with
/// ObserveSequence; Finalize() derives continuation counts; Probability()
/// then evaluates the smoothed distribution.
class NGramModel {
 public:
  /// InvalidArgument if vocab_size is 0 or > 32, order is 0 or > 12, or
  /// discount outside (0, 1).
  static Result<NGramModel> Make(std::size_t vocab_size, std::size_t order,
                                 double discount = 0.75);

  std::size_t vocab_size() const { return vocab_size_; }
  std::size_t order() const { return order_; }
  double discount() const { return discount_; }

  /// Accumulates all m-gram counts (m = 1..order) from one symbol sequence.
  /// Symbols outside [0, vocab_size) are rejected.
  Status ObserveSequence(const std::vector<int>& sequence);

  /// Derives continuation counts. Must be called after all ObserveSequence
  /// calls and before Probability/Distribution. Idempotent.
  void Finalize();

  /// P(next | context) under interpolated Kneser-Ney. Uses the last
  /// (order-1) symbols of `context` (shorter contexts back off naturally);
  /// a symbol outside the vocabulary ends the usable context, since no
  /// counted gram contains one. Uniform over the vocabulary when the model
  /// has seen no data.
  double Probability(const std::vector<int>& context, int next) const;

  /// The full next-symbol distribution for a context (sums to 1).
  std::vector<double> Distribution(const std::vector<int>& context) const;

  /// Raw count of the full m-gram `gram` (context+next), 0 if unseen or if
  /// a symbol lies outside the vocabulary.
  std::uint64_t RawCount(const std::vector<int>& gram) const;

  /// Total number of distinct observed grams of length `m` (1-based).
  std::size_t DistinctGrams(std::size_t m) const;

 private:
  NGramModel(std::size_t vocab_size, std::size_t order, double discount);

  // Packs up to `order` symbols, 5 bits each, plus a length tag.
  static std::uint64_t PackGram(const int* symbols, std::size_t len);

  // Interpolated KN probability of every symbol after `context`, in one
  // pass up from the unigram level: each order's counts and denominator are
  // looked up once per context.
  std::vector<double> Interpolate(const std::vector<int>& context) const;

  bool InVocabulary(int symbol) const {
    return symbol >= 0 && static_cast<std::size_t>(symbol) < vocab_size_;
  }

  std::size_t vocab_size_;
  std::size_t order_;
  double discount_;
  bool finalized_ = false;

  // counts_[m-1]: full m-gram counts, keyed by packed gram.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> counts_;
  // cont_[m-1]: continuation counts N1+(. gram) for m-grams (m < order).
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> cont_;
};

}  // namespace fc::markov

#endif  // FORECACHE_MARKOV_NGRAM_MODEL_H_
