// Interpolated Kneser-Ney n-gram language model (the BerkeleyLM stand-in).
//
// ForeCache's Action-Based recommender is an n-th-order Markov chain over
// the 9-move vocabulary, smoothed with Kneser-Ney (paper section 4.3.2,
// Algorithm 2). Symbols are small integers in [0, vocab_size).

#ifndef FORECACHE_MARKOV_NGRAM_MODEL_H_
#define FORECACHE_MARKOV_NGRAM_MODEL_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace fc::markov {

/// Interpolated Kneser-Ney model of a fixed maximum order.
///
/// "Order" is the gram length: an order-4 model conditions on 3 previous
/// symbols (the paper's Markov3). Counts are accumulated with
/// ObserveSequence; Finalize() derives continuation counts and tabulates
/// the smoothed distribution of every observed context; Probability() and
/// Distribution() then read that table.
///
/// A context is observed when some counted gram extends it by one symbol.
/// Observed contexts are suffix-closed (every counted gram's suffixes were
/// counted too), and the interpolation of an unobserved context skips
/// exactly the levels above its longest observed suffix, so every context
/// has the row of its longest observed suffix, bit for bit.
class NGramModel {
 public:
  static constexpr std::size_t kMaxOrder = 12;

  /// InvalidArgument if vocab_size is 0 or > 32, order is 0 or > kMaxOrder,
  /// or discount outside (0, 1).
  static Result<NGramModel> Make(std::size_t vocab_size, std::size_t order,
                                 double discount = 0.75);

  std::size_t vocab_size() const { return vocab_size_; }
  std::size_t order() const { return order_; }
  double discount() const { return discount_; }

  /// Accumulates all m-gram counts (m = 1..order) from one symbol sequence.
  /// Symbols outside [0, vocab_size) are rejected.
  Status ObserveSequence(const std::vector<int>& sequence);

  /// Derives continuation counts and rebuilds the context table. Must be
  /// called after all ObserveSequence calls and before
  /// Probability/Distribution; an order-1 model, whose table is its one
  /// unigram row, keeps it current on every ObserveSequence and needs no
  /// call. Idempotent.
  void Finalize();

  /// P(next | context) under interpolated Kneser-Ney. Uses the last
  /// (order-1) symbols of `context` (shorter contexts back off naturally);
  /// a symbol outside the vocabulary ends the usable context, since no
  /// counted gram contains one. Uniform over the vocabulary when the model
  /// has seen no data.
  double Probability(const std::vector<int>& context, int next) const;

  /// The full next-symbol distribution for a context (sums to 1).
  std::vector<double> Distribution(const std::vector<int>& context) const;

  /// The row Distribution(context) copies, read in place from the context
  /// table: vocab_size() values, valid until the next ObserveSequence or
  /// Finalize.
  const double* DistributionRow(std::span<const int> context) const;

  /// Raw count of the full m-gram `gram` (context+next), 0 if unseen or if
  /// a symbol lies outside the vocabulary.
  std::uint64_t RawCount(const std::vector<int>& gram) const;

  /// Total number of distinct observed grams of length `m` (1-based).
  std::size_t DistinctGrams(std::size_t m) const;

 private:
  NGramModel(std::size_t vocab_size, std::size_t order, double discount);

  // Packs up to `order` symbols, 5 bits each, plus a length tag.
  static std::uint64_t PackGram(const int* symbols, std::size_t len);

  // The table builder: interpolated KN probabilities of every symbol, up
  // from the unigram level. InterpolateUnigrams writes the unigram level
  // (the empty context's row) to `p`. InterpolateLevel applies order m to
  // `p` for the m-1 symbols at `context` (oldest first), looking each count
  // and the denominator up once; false, with `p` untouched, when no counted
  // gram extends the context (the level is skipped).
  void InterpolateUnigrams(double* p) const;
  bool InterpolateLevel(const int* context, std::size_t m, double* p) const;

  // Tabulates the row of every observed context (Finalize).
  void BuildTable();

  // Node of `context`'s longest observed suffix: the walk stops at the
  // order-1 symbol limit, at a symbol outside the vocabulary (no counted
  // gram contains one) or at the first unobserved suffix.
  std::size_t ContextNode(std::span<const int> context) const;

  // `context`'s row of `table` (rows_ or distributions_).
  const double* Row(const std::vector<double>& table,
                    std::span<const int> context) const;

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

  // The context table, one node per observed context; node 0 is the empty
  // context. children_[n * vocab_size_ + s] is the node of symbol s
  // followed by node n's context (0: unobserved, as the empty context is
  // no node's child). rows_ holds each node's interpolated row
  // (Probability), distributions_ the row normalized to sum 1
  // (Distribution), vocab_size_ values per node.
  std::vector<std::uint32_t> children_;
  std::vector<double> rows_;
  std::vector<double> distributions_;
};

}  // namespace fc::markov

#endif  // FORECACHE_MARKOV_NGRAM_MODEL_H_
