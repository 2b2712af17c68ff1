// Unit tests for the n-gram / Kneser-Ney substrate and the Markov chain.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "markov/markov_chain.h"
#include "markov/ngram_model.h"

namespace fc::markov {
namespace {

// ---------------------------------------------------------------------------
// NGramModel construction

TEST(NGramModelTest, ValidatesParameters) {
  EXPECT_FALSE(NGramModel::Make(0, 3).ok());
  EXPECT_FALSE(NGramModel::Make(40, 3).ok());
  EXPECT_FALSE(NGramModel::Make(9, 0).ok());
  EXPECT_FALSE(NGramModel::Make(9, 13).ok());
  EXPECT_FALSE(NGramModel::Make(9, 3, 0.0).ok());
  EXPECT_FALSE(NGramModel::Make(9, 3, 1.0).ok());
  EXPECT_TRUE(NGramModel::Make(9, 3).ok());
}

TEST(NGramModelTest, RejectsOutOfVocabSymbols) {
  auto model = NGramModel::Make(3, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->ObserveSequence({0, 1, 3}).ok());
  EXPECT_FALSE(model->ObserveSequence({-1}).ok());
}

TEST(NGramModelTest, CountsGrams) {
  auto model = NGramModel::Make(3, 2);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->ObserveSequence({0, 1, 0, 1, 2}).ok());
  model->Finalize();
  EXPECT_EQ(model->RawCount({0, 1}), 2u);
  EXPECT_EQ(model->RawCount({1, 0}), 1u);
  EXPECT_EQ(model->RawCount({1, 2}), 1u);
  EXPECT_EQ(model->RawCount({2, 2}), 0u);
  EXPECT_EQ(model->RawCount({0}), 2u);
  EXPECT_EQ(model->DistinctGrams(2), 3u);
}

// ---------------------------------------------------------------------------
// Probabilities

TEST(NGramModelTest, DistributionSumsToOne) {
  auto model = NGramModel::Make(4, 3);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->ObserveSequence({0, 1, 2, 3, 0, 1, 2, 0, 1}).ok());
  model->Finalize();
  for (const std::vector<int>& ctx :
       {std::vector<int>{}, {0}, {0, 1}, {3, 3}, {2, 1, 0}}) {
    auto dist = model->Distribution(ctx);
    double sum = 0.0;
    for (double p : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double p : dist) EXPECT_GT(p, 0.0);  // smoothing: no zero mass
  }
}

TEST(NGramModelTest, LearnsStrongPattern) {
  auto model = NGramModel::Make(4, 3);
  ASSERT_TRUE(model.ok());
  // Deterministic cycle 0 -> 1 -> 2 -> 0.
  std::vector<int> cycle;
  for (int i = 0; i < 60; ++i) cycle.push_back(i % 3);
  ASSERT_TRUE(model->ObserveSequence(cycle).ok());
  model->Finalize();
  // After (0, 1) the continuation is always 2.
  double p2 = model->Probability({0, 1}, 2);
  EXPECT_GT(p2, 0.8);
  EXPECT_GT(p2, model->Probability({0, 1}, 0));
  EXPECT_GT(p2, model->Probability({0, 1}, 3));
}

TEST(NGramModelTest, UnseenContextBacksOff) {
  auto model = NGramModel::Make(4, 3);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->ObserveSequence({0, 1, 0, 1, 0, 1}).ok());
  model->Finalize();
  // Context (3, 3) never occurs; probabilities fall back to lower orders
  // and still form a distribution favoring frequent symbols.
  double p0 = model->Probability({3, 3}, 0);
  double p3 = model->Probability({3, 3}, 3);
  EXPECT_GT(p0, p3);
}

TEST(NGramModelTest, EmptyModelIsUniform) {
  auto model = NGramModel::Make(5, 2);
  ASSERT_TRUE(model.ok());
  model->Finalize();
  for (int s = 0; s < 5; ++s) {
    EXPECT_NEAR(model->Probability({}, s), 0.2, 1e-9);
  }
}

TEST(NGramModelTest, KneserNeyContinuationEffect) {
  // Classic KN behavior: a symbol that appears often but only after one
  // context ("Francisco" after "San") gets a LOWER unigram-backoff weight
  // than a symbol appearing in many contexts.
  auto model = NGramModel::Make(6, 2);
  ASSERT_TRUE(model.ok());
  // Symbol 1 occurs 8 times, always after 0. Symbol 2 occurs 4 times after
  // 4 different predecessors (3, 4, 5, 0).
  ASSERT_TRUE(model->ObserveSequence({0, 1, 0, 1, 0, 1, 0, 1,
                                      0, 1, 0, 1, 0, 1, 0, 1,
                                      3, 2, 4, 2, 5, 2, 0, 2}).ok());
  model->Finalize();
  // Under an unseen context, continuation counts dominate: symbol 2
  // (diverse contexts) should outrank symbol 1 (one context) even though
  // symbol 1 is twice as frequent.
  double p1 = model->Probability({5}, 1);  // context (5) never precedes 1
  double p2 = model->Probability({3}, 2);  // context (3) precedes 2 once
  (void)p2;
  double cont1 = model->Probability({2}, 1);  // (2) precedes nothing
  double cont2 = model->Probability({2}, 2);
  EXPECT_GT(cont2, cont1);
  EXPECT_GT(p1, 0.0);
}

TEST(NGramModelTest, LongerContextUsesSuffix) {
  auto model = NGramModel::Make(3, 2);  // order 2: context of 1 symbol
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->ObserveSequence({0, 1, 0, 1, 0, 2}).ok());
  model->Finalize();
  // Passing a longer history must use only the last symbol.
  EXPECT_DOUBLE_EQ(model->Probability({2, 2, 2, 0}, 1),
                   model->Probability({0}, 1));
}

// An order-4 model (the AB recommender's Markov3) over 9 moves, trained on
// 8 seeded sequences of 30 moves that repeat the previous move about half
// the time.
NGramModel SeededOrder4Model() {
  auto model = NGramModel::Make(9, 4);
  EXPECT_TRUE(model.ok());
  Rng rng(2016);
  for (int s = 0; s < 8; ++s) {
    std::vector<int> sequence;
    int move = static_cast<int>(rng.UniformUint32(9));
    for (int i = 0; i < 30; ++i) {
      sequence.push_back(move);
      if (rng.UniformUint32(2) != 0) move = static_cast<int>(rng.UniformUint32(9));
    }
    EXPECT_TRUE(model->ObserveSequence(sequence).ok());
  }
  model->Finalize();
  return std::move(model).value();
}

// Distribution and Probability of the seeded model, bit for bit, for
// contexts of length 0 to 5; neither {3, 6, 1} nor its suffix {6, 1} was
// ever seen. The path uses only + - * / and max, so these hold on any
// IEEE-754 machine.
TEST(NGramModelTest, KneserNeyGoldens) {
  struct Golden {
    std::vector<int> context;
    std::array<double, 9> distribution;
    std::array<double, 9> probability;
  };
  const Golden goldens[] = {
    {{},
     {0x1.92e29f79b4759p-4, 0x1.4fbcda3ac10cap-4, 0x1.4fbcda3ac10cap-4,
      0x1.d60864b8a7de8p-4, 0x1.2e29f79b47583p-3, 0x1.0c9714fbcda3bp-3,
      0x1.92e29f79b4759p-4, 0x1.0c9714fbcda3bp-3, 0x1.d60864b8a7de8p-4},
     {0x1.92e29f79b4758p-4, 0x1.4fbcda3ac10c9p-4, 0x1.4fbcda3ac10c9p-4,
      0x1.d60864b8a7de7p-4, 0x1.2e29f79b47582p-3, 0x1.0c9714fbcda3ap-3,
      0x1.92e29f79b4758p-4, 0x1.0c9714fbcda3ap-3, 0x1.d60864b8a7de7p-4}},
    {{5},
     {0x1.b868abd196d5cp-5, 0x1.51b66f16f5628p-3, 0x1.8315f89811c64p-5,
      0x1.edbb5f0b1be56p-5, 0x1.2c3062bf13023p-4, 0x1.adcb2bb1fd881p-2,
      0x1.b868abd196d5cp-5, 0x1.11870922507a6p-4, 0x1.edbb5f0b1be56p-5},
     {0x1.b868abd196d5cp-5, 0x1.51b66f16f5628p-3, 0x1.8315f89811c64p-5,
      0x1.edbb5f0b1be56p-5, 0x1.2c3062bf13023p-4, 0x1.adcb2bb1fd881p-2,
      0x1.b868abd196d5cp-5, 0x1.11870922507a6p-4, 0x1.edbb5f0b1be56p-5}},
    {{4, 4},
     {0x1.5ca693da8d65bp-7, 0x1.94905e01adbe8p-4, 0x1.228ad08b75d4bp-7,
      0x1.96c25729a4f6ap-7, 0x1.f8384cf61f1edp-2, 0x1.2bd2cdf650b4cp-3,
      0x1.248f558c6dc2ap-3, 0x1.343364c92f327p-4, 0x1.96c25729a4f6ap-7},
     {0x1.5ca693da8d65bp-7, 0x1.94905e01adbe8p-4, 0x1.228ad08b75d4bp-7,
      0x1.96c25729a4f6ap-7, 0x1.f8384cf61f1edp-2, 0x1.2bd2cdf650b4cp-3,
      0x1.248f558c6dc2ap-3, 0x1.343364c92f327p-4, 0x1.96c25729a4f6ap-7}},
    {{1, 0, 0},
     {0x1.00779b4758219p-1, 0x1.a8eb04325c53dp-7, 0x1.5c8eb04325c53p-3,
      0x1.9cb8a7de6d1d4p-5, 0x1.c7368eb04325ap-5, 0x1.53ef368eb0431p-6,
      0x1.fde6d1d608649p-7, 0x1.e3ef368eb043p-6, 0x1.272e29f79b475p-3},
     {0x1.00779b475821ap-1, 0x1.a8eb04325c53fp-7, 0x1.5c8eb04325c54p-3,
      0x1.9cb8a7de6d1d6p-5, 0x1.c7368eb04325cp-5, 0x1.53ef368eb0432p-6,
      0x1.fde6d1d60864bp-7, 0x1.e3ef368eb0432p-6, 0x1.272e29f79b476p-3}},
    {{5, 5, 5},
     {0x1.17ca06c162d61p-8, 0x1.07e29bc205a9dp-5, 0x1.4e9ddc515509p-4,
      0x1.39aa3c6169104p-8, 0x1.5cda82215bddbp-5, 0x1.4201aac52f566p-1,
      0x1.17ca06c162d61p-8, 0x1.e92f0bfdeba7p-5, 0x1.21e569fb2360ap-3},
     {0x1.17ca06c162d61p-8, 0x1.07e29bc205a9dp-5, 0x1.4e9ddc515509p-4,
      0x1.39aa3c6169104p-8, 0x1.5cda82215bddbp-5, 0x1.4201aac52f566p-1,
      0x1.17ca06c162d61p-8, 0x1.e92f0bfdeba7p-5, 0x1.21e569fb2360ap-3}},
    {{3, 6, 1},
     {0x1.1d60864b8a7dep-4, 0x1.569ae5acd4201p-2, 0x1.407a1620cf8cp-5,
      0x1.3d6cbbb538d8cp-4, 0x1.7d852688958e6p-4, 0x1.68eb04325c53ep-3,
      0x1.809280f42c41ap-5, 0x1.5d78f11ee7338p-4, 0x1.3d6cbbb538d8cp-4},
     {0x1.1d60864b8a7dep-4, 0x1.569ae5acd4201p-2, 0x1.407a1620cf8cp-5,
      0x1.3d6cbbb538d8cp-4, 0x1.7d852688958e6p-4, 0x1.68eb04325c53ep-3,
      0x1.809280f42c41ap-5, 0x1.5d78f11ee7338p-4, 0x1.3d6cbbb538d8cp-4}},
    {{7, 7, 7, 7},
     {0x1.8a78bc87961d1p-6, 0x1.b8fa83111c16p-5, 0x1.63ea0c447057dp-7,
      0x1.c5f8e5d9e81c6p-7, 0x1.1403dfb7aff08p-6, 0x1.ddc014a928ffap-5,
      0x1.a29e2f21e5874p-4, 0x1.698d3c5e43cb1p-1, 0x1.c5f8e5d9e81c6p-7},
     {0x1.8a78bc87961d1p-6, 0x1.b8fa83111c16p-5, 0x1.63ea0c447057dp-7,
      0x1.c5f8e5d9e81c6p-7, 0x1.1403dfb7aff08p-6, 0x1.ddc014a928ffap-5,
      0x1.a29e2f21e5874p-4, 0x1.698d3c5e43cb1p-1, 0x1.c5f8e5d9e81c6p-7}},
    {{2, 8, 8, 5, 5},
     {0x1.083ecd7dc0e69p-7, 0x1.0ee4ed520ab28p-5, 0x1.f9517305e887ep-7,
      0x1.283d3906aa566p-7, 0x1.af63d95b74a2ap-5, 0x1.603c09ad596a3p-1,
      0x1.083ecd7dc0e69p-7, 0x1.58c7fe8d3d809p-3, 0x1.1ca7250bddb3bp-6},
     {0x1.083ecd7dc0e6ap-7, 0x1.0ee4ed520ab29p-5, 0x1.f9517305e888p-7,
      0x1.283d3906aa567p-7, 0x1.af63d95b74a2cp-5, 0x1.603c09ad596a4p-1,
      0x1.083ecd7dc0e6ap-7, 0x1.58c7fe8d3d80ap-3, 0x1.1ca7250bddb3cp-6}},
    {{4, 7, 7, 7, 5},
     {0x1.ef75c14bc9b09p-6, 0x1.7bed3cf9d40eep-4, 0x1.b378b7ab13ff1p-6,
      0x1.e2b72caec7f63p-2, 0x1.51b66f16f5628p-5, 0x1.e38491283d393p-3,
      0x1.ef75c14bc9b09p-6, 0x1.33b7ea469a89cp-5, 0x1.15b965763fb11p-5},
     {0x1.ef75c14bc9b08p-6, 0x1.7bed3cf9d40edp-4, 0x1.b378b7ab13ffp-6,
      0x1.e2b72caec7f62p-2, 0x1.51b66f16f5627p-5, 0x1.e38491283d392p-3,
      0x1.ef75c14bc9b08p-6, 0x1.33b7ea469a89bp-5, 0x1.15b965763fb1p-5}},
    {{0, 8, 8},
     {0x1.2dd752f748a2cp-7, 0x1.52f748a2b422dp-8, 0x1.52f748a2b422dp-8,
      0x1.528917c80b31p-6, 0x1.746e9f0b839aep-6, 0x1.34c4b5365797dp-4,
      0x1.2dd752f748a2cp-7, 0x1.1434151759da5p-5, 0x1.a331d296dde36p-1},
     {0x1.2dd752f748a2cp-7, 0x1.52f748a2b422dp-8, 0x1.52f748a2b422dp-8,
      0x1.528917c80b31p-6, 0x1.746e9f0b839aep-6, 0x1.34c4b5365797dp-4,
      0x1.2dd752f748a2cp-7, 0x1.1434151759da5p-5, 0x1.a331d296dde36p-1}},
  };
  NGramModel model = SeededOrder4Model();
  for (const auto& g : goldens) {
    auto dist = model.Distribution(g.context);
    ASSERT_EQ(dist.size(), 9u);
    for (int w = 0; w < 9; ++w) {
      EXPECT_EQ(dist[w], g.distribution[w]) << "context size " << g.context.size();
      EXPECT_EQ(model.Probability(g.context, w), g.probability[w])
          << "context size " << g.context.size();
    }
  }
}

// No counted gram contains a symbol outside the vocabulary, so the usable
// context starts after the last such symbol instead of reading the counts
// of the gram its packed bits alias.
TEST(NGramModelTest, OutOfVocabularySymbolEndsTheContext) {
  NGramModel model = SeededOrder4Model();
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> cases = {
      {{1, 33}, {}}, {{1, -1}, {}}, {{33, 1}, {1}}};
  for (const auto& [context, usable] : cases) {
    EXPECT_EQ(model.Distribution(context), model.Distribution(usable));
    for (int w = 0; w < 9; ++w) {
      EXPECT_EQ(model.Probability(context, w), model.Probability(usable, w));
    }
  }
  EXPECT_GT(model.RawCount({1, 1}), 0u);
  EXPECT_EQ(model.RawCount({1, 33}), 0u);
}

// ---------------------------------------------------------------------------
// The context table against a per-call Kneser-Ney pass written here

// Interpolated Kneser-Ney computed on every call, from counts tallied here:
// the per-call pass the model ran before Finalize tabulated it, in the same
// arithmetic order (unigram level, then orders 2..usable+1 over the usable
// context's suffixes, skipping an order no counted gram extends).
class ReferenceKneserNey {
 public:
  ReferenceKneserNey(std::size_t vocab, std::size_t order, double discount)
      : vocab_(vocab), order_(order), discount_(discount) {}

  void Observe(const std::vector<int>& sequence) {
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      for (std::size_t m = 1; m <= std::min(order_, i + 1); ++m) {
        ++counts_[std::vector<int>(sequence.begin() + static_cast<std::ptrdiff_t>(i + 1 - m),
                                   sequence.begin() + static_cast<std::ptrdiff_t>(i + 1))];
      }
    }
    // Continuation count of g: distinct v with v.g counted.
    cont_.clear();
    for (const auto& [gram, count] : counts_) {
      if (gram.size() >= 2) ++cont_[std::vector<int>(gram.begin() + 1, gram.end())];
    }
  }

  std::vector<double> Interpolate(const std::vector<int>& context) const {
    auto lookup = [&](const std::vector<int>& gram) -> double {
      const auto& table = gram.size() == order_ ? counts_ : cont_;
      auto it = table.find(gram);
      return it == table.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double uniform = 1.0 / static_cast<double>(vocab_);
    std::vector<double> p(vocab_, uniform);
    double total = 0.0;
    std::size_t distinct = 0;
    for (const auto& [gram, count] : counts_) {
      if (gram.size() != 1) continue;
      double c = order_ > 1 ? lookup(gram) : static_cast<double>(count);
      if (c > 0.0) ++distinct;
      total += c;
    }
    if (total > 0.0) {
      double lambda = discount_ * static_cast<double>(distinct) / total;
      for (std::size_t w = 0; w < vocab_; ++w) {
        std::vector<int> unigram = {static_cast<int>(w)};
        double c = lookup(unigram);
        p[w] = std::max(c - discount_, 0.0) / total + lambda * uniform;
      }
    }
    std::size_t usable = 0;
    while (usable < order_ - 1 && usable < context.size()) {
      int s = context[context.size() - 1 - usable];
      if (s < 0 || static_cast<std::size_t>(s) >= vocab_) break;
      ++usable;
    }
    for (std::size_t m = 2; m <= usable + 1; ++m) {
      std::vector<int> gram(context.end() - static_cast<std::ptrdiff_t>(m - 1),
                            context.end());
      gram.push_back(0);
      std::vector<double> counts(vocab_);
      double denom = 0.0;
      std::size_t followers = 0;
      for (std::size_t w = 0; w < vocab_; ++w) {
        gram.back() = static_cast<int>(w);
        counts[w] = lookup(gram);
        if (counts[w] > 0.0) {
          denom += counts[w];
          ++followers;
        }
      }
      if (denom <= 0.0) continue;
      double lambda = discount_ * static_cast<double>(followers) / denom;
      for (std::size_t w = 0; w < vocab_; ++w) {
        p[w] = std::max(counts[w] - discount_, 0.0) / denom + lambda * p[w];
      }
    }
    return p;
  }

  std::vector<double> Distribution(const std::vector<int>& context) const {
    std::vector<double> p = Interpolate(context);
    double total = 0.0;
    for (double x : p) total += x;
    if (total > 0.0) {
      for (double& x : p) x /= total;
    }
    return p;
  }

 private:
  std::size_t vocab_;
  std::size_t order_;
  double discount_;
  std::map<std::vector<int>, std::uint64_t> counts_;  // grams of length 1..order
  std::map<std::vector<int>, std::uint64_t> cont_;    // grams of length 1..order-1
};

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Distribution, DistributionRow and Probability of `model` for `context`
// equal the reference's bit for bit.
void ExpectMatchesReference(const NGramModel& model, const ReferenceKneserNey& ref,
                            const std::vector<int>& context) {
  const std::vector<double> want_p = ref.Interpolate(context);
  const std::vector<double> want_dist = ref.Distribution(context);
  const std::vector<double> dist = model.Distribution(context);
  ASSERT_EQ(dist.size(), want_dist.size());
  const double* row = model.DistributionRow(context);
  for (std::size_t w = 0; w < want_dist.size(); ++w) {
    ASSERT_EQ(Bits(dist[w]), Bits(want_dist[w])) << "symbol " << w;
    ASSERT_EQ(Bits(row[w]), Bits(want_dist[w])) << "symbol " << w;
    ASSERT_EQ(Bits(model.Probability(context, static_cast<int>(w))), Bits(want_p[w]))
        << "symbol " << w;
  }
  EXPECT_EQ(model.Probability(context, -1), 0.0);
  EXPECT_EQ(model.Probability(context, static_cast<int>(want_dist.size())), 0.0);
}

struct KnParams {
  std::size_t vocab;
  std::size_t order;
  double discount;
};

class KneserNeyReferenceTest : public ::testing::TestWithParam<KnParams> {};

// Every context of length 0 to order-1 (random ones where there are too
// many), contexts cut by a symbol outside the vocabulary, and contexts
// longer than the order, on seeded sequences that repeat the previous
// symbol about half the time.
TEST_P(KneserNeyReferenceTest, TableMatchesPerCallPass) {
  const KnParams params = GetParam();
  const auto vocab = static_cast<std::uint32_t>(params.vocab);
  auto model = NGramModel::Make(params.vocab, params.order, params.discount);
  ASSERT_TRUE(model.ok());
  ReferenceKneserNey ref(params.vocab, params.order, params.discount);
  Rng rng(CombineSeeds(params.vocab * 131 + params.order, 7));
  for (int s = 0; s < 12; ++s) {
    std::vector<int> sequence;
    int symbol = static_cast<int>(rng.UniformUint32(vocab));
    const int length = 5 + static_cast<int>(rng.UniformUint32(40));
    for (int i = 0; i < length; ++i) {
      sequence.push_back(symbol);
      if (rng.UniformUint32(2) != 0) symbol = static_cast<int>(rng.UniformUint32(vocab));
    }
    ASSERT_TRUE(model->ObserveSequence(sequence).ok());
    ref.Observe(sequence);
  }
  model->Finalize();

  std::vector<std::vector<int>> contexts;
  for (std::size_t len = 0; len < params.order; ++len) {
    double all = std::pow(static_cast<double>(params.vocab), static_cast<double>(len));
    if (all <= 1000.0) {
      for (std::size_t n = 0; n < static_cast<std::size_t>(all); ++n) {
        std::vector<int> context(len);
        std::size_t rest = n;
        for (std::size_t i = 0; i < len; ++i) {
          context[i] = static_cast<int>(rest % params.vocab);
          rest /= params.vocab;
        }
        contexts.push_back(context);
      }
    } else {
      for (int n = 0; n < 300; ++n) {
        std::vector<int> context(len);
        for (int& symbol : context) symbol = static_cast<int>(rng.UniformUint32(vocab));
        contexts.push_back(context);
      }
    }
  }
  for (int n = 0; n < 200; ++n) {
    // Longer than the order, some cut by -1, vocab or 40 at a random place.
    std::vector<int> context(params.order + rng.UniformUint32(4));
    for (int& symbol : context) symbol = static_cast<int>(rng.UniformUint32(vocab));
    if (n % 2 == 0) {
      const int outside[] = {-1, static_cast<int>(params.vocab), 40};
      context[rng.UniformUint32(static_cast<std::uint32_t>(context.size()))] =
          outside[rng.UniformUint32(3)];
    }
    contexts.push_back(context);
  }
  for (const auto& context : contexts) {
    ExpectMatchesReference(*model, ref, context);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "context of size " << context.size();
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, KneserNeyReferenceTest,
    ::testing::Values(KnParams{9, 4, 0.75}, KnParams{9, 2, 0.75},
                      KnParams{2, 2, 0.5}, KnParams{3, 6, 0.9},
                      KnParams{5, 3, 0.25}, KnParams{4, 5, 0.6},
                      KnParams{9, 11, 0.75}, KnParams{32, 3, 0.75},
                      KnParams{9, 1, 0.75}));

// An order-1 model needs no Finalize: its table, the unigram row, is
// current after construction and after every ObserveSequence.
TEST(KneserNeyReferenceTest, UnfinalizedOrderOneModel) {
  auto model = NGramModel::Make(5, 1, 0.4);
  ASSERT_TRUE(model.ok());
  ReferenceKneserNey ref(5, 1, 0.4);
  ExpectMatchesReference(*model, ref, {});
  ASSERT_TRUE(model->ObserveSequence({0, 1, 1, 4, 1, 0}).ok());
  ref.Observe({0, 1, 1, 4, 1, 0});
  for (const std::vector<int>& context : {std::vector<int>{}, {3}, {2, -1}}) {
    ExpectMatchesReference(*model, ref, context);
  }
  model->Finalize();
  ExpectMatchesReference(*model, ref, {1, 2});
  ASSERT_TRUE(model->ObserveSequence({3, 3, 3}).ok());
  ref.Observe({3, 3, 3});
  ExpectMatchesReference(*model, ref, {0});
}

// Finalize rebuilds the table from every sequence observed so far.
TEST(KneserNeyReferenceTest, FinalizeRebuildsTheTable) {
  auto model = NGramModel::Make(4, 3);
  ASSERT_TRUE(model.ok());
  ReferenceKneserNey ref(4, 3, 0.75);
  ASSERT_TRUE(model->ObserveSequence({0, 1, 2, 0, 1}).ok());
  ref.Observe({0, 1, 2, 0, 1});
  model->Finalize();
  ExpectMatchesReference(*model, ref, {0, 1});
  ASSERT_TRUE(model->ObserveSequence({3, 3, 2, 3, 3, 1}).ok());
  ref.Observe({3, 3, 2, 3, 3, 1});
  model->Finalize();
  for (const std::vector<int>& context :
       {std::vector<int>{}, {3}, {3, 3}, {2, 3}, {0, 1}, {1, 3, 3}}) {
    ExpectMatchesReference(*model, ref, context);
  }
}

// ---------------------------------------------------------------------------
// MarkovChain (Algorithm 2 wrapper)

TEST(MarkovChainTest, HistoryLengthMapsToOrder) {
  auto chain = MarkovChain::Make(9, 3);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->history_length(), 3u);
  EXPECT_EQ(chain->model().order(), 4u);
}

TEST(MarkovChainTest, TrainOnTraces) {
  auto chain = MarkovChain::Make(4, 2);
  ASSERT_TRUE(chain.ok());
  std::vector<std::vector<int>> traces = {
      {0, 0, 1, 0, 0, 1}, {0, 0, 1, 0, 0, 1}, {2, 2, 3}};
  ASSERT_TRUE(chain->Train(traces).ok());
  // After (0, 0), next is always 1 in training.
  auto dist = chain->NextMoveDistribution({0, 0});
  EXPECT_GT(dist[1], dist[0]);
  EXPECT_GT(dist[1], 0.5);
  EXPECT_GT(chain->ObservedStates(), 0u);
}

TEST(MarkovChainTest, MomentumLikePatternLearned) {
  // "pan right three times -> pan right again" (paper's example).
  auto chain = MarkovChain::Make(9, 3);
  ASSERT_TRUE(chain.ok());
  std::vector<int> repeat_right(40, 1);  // move 1 = pan right
  ASSERT_TRUE(chain->Train({repeat_right}).ok());
  EXPECT_GT(chain->TransitionProbability({1, 1, 1}, 1), 0.9);
}

TEST(MarkovChainTest, DistributionAlwaysNormalized) {
  auto chain = MarkovChain::Make(9, 3);
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(chain->Train({{0, 4, 5, 8, 2, 3, 1}}).ok());
  for (const std::vector<int>& ctx :
       {std::vector<int>{}, {0}, {8, 8, 8}, {4, 5, 8}}) {
    auto dist = chain->NextMoveDistribution(ctx);
    double sum = 0.0;
    for (double p : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MarkovChainTest, IncrementalObserveThenFinalize) {
  auto chain = MarkovChain::Make(3, 2);
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(chain->Observe({0, 1, 0, 1}).ok());
  ASSERT_TRUE(chain->Observe({0, 1, 0, 1}).ok());
  chain->Finalize();
  EXPECT_GT(chain->TransitionProbability({1, 0}, 1), 0.5);
}

// Parameterized: every order n in 1..10 yields valid distributions (the
// paper sweeps Markov2..Markov10 in section 5.4.2).
class MarkovOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarkovOrderTest, ValidDistributionsAtAllOrders) {
  auto chain = MarkovChain::Make(9, GetParam());
  ASSERT_TRUE(chain.ok());
  std::vector<int> trace;
  for (int i = 0; i < 100; ++i) trace.push_back((i * 7 + i / 3) % 9);
  ASSERT_TRUE(chain->Train({trace}).ok());
  std::vector<int> ctx;
  for (std::size_t i = 0; i < GetParam(); ++i) {
    ctx.push_back(static_cast<int>(i % 9));
  }
  auto dist = chain->NextMoveDistribution(ctx);
  double sum = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, MarkovOrderTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace fc::markov
