#include "markov/ngram_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_utils.h"

namespace fc::markov {

namespace {
constexpr std::size_t kBitsPerSymbol = 5;
constexpr std::size_t kMaxOrder = 12;
constexpr std::size_t kMaxVocab = 32;
}  // namespace

NGramModel::NGramModel(std::size_t vocab_size, std::size_t order, double discount)
    : vocab_size_(vocab_size), order_(order), discount_(discount) {
  counts_.resize(order_);
  cont_.resize(order_);
}

Result<NGramModel> NGramModel::Make(std::size_t vocab_size, std::size_t order,
                                    double discount) {
  if (vocab_size == 0 || vocab_size > kMaxVocab) {
    return Status::InvalidArgument(
        StrFormat("vocab_size must be in [1, %zu], got %zu", kMaxVocab, vocab_size));
  }
  if (order == 0 || order > kMaxOrder) {
    return Status::InvalidArgument(
        StrFormat("order must be in [1, %zu], got %zu", kMaxOrder, order));
  }
  if (discount <= 0.0 || discount >= 1.0) {
    return Status::InvalidArgument("discount must lie in (0, 1)");
  }
  return NGramModel(vocab_size, order, discount);
}

std::uint64_t NGramModel::PackGram(const int* symbols, std::size_t len) {
  // Length tag in the top bits keeps grams of different lengths distinct.
  std::uint64_t key = static_cast<std::uint64_t>(len) << 60;
  for (std::size_t i = 0; i < len; ++i) {
    key = (key & 0xF000000000000000ULL) |
          (((key & 0x0FFFFFFFFFFFFFFFULL) << kBitsPerSymbol) |
           static_cast<std::uint64_t>(symbols[i]));
  }
  return key;
}

Status NGramModel::ObserveSequence(const std::vector<int>& sequence) {
  for (int s : sequence) {
    if (!InVocabulary(s)) {
      return Status::InvalidArgument(StrFormat("symbol %d outside vocabulary", s));
    }
  }
  finalized_ = false;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    // All m-grams ending at position i.
    std::size_t max_m = std::min(order_, i + 1);
    for (std::size_t m = 1; m <= max_m; ++m) {
      std::uint64_t key = PackGram(&sequence[i + 1 - m], m);
      ++counts_[m - 1][key];
    }
  }
  return Status::OK();
}

void NGramModel::Finalize() {
  if (finalized_) return;
  for (auto& c : cont_) c.clear();
  // Continuation count of an m-gram g: number of distinct symbols v such
  // that the (m+1)-gram v.g was observed. Derived from order-(m+1) counts.
  for (std::size_t m = 1; m < order_; ++m) {
    for (const auto& [key, count] : counts_[m]) {  // (m+1)-grams
      (void)count;
      // Strip the leftmost symbol: keep the low m*kBitsPerSymbol bits,
      // retag with length m.
      std::uint64_t payload = key & 0x0FFFFFFFFFFFFFFFULL;
      std::uint64_t mask = (m * kBitsPerSymbol >= 60)
                               ? 0x0FFFFFFFFFFFFFFFULL
                               : ((1ULL << (m * kBitsPerSymbol)) - 1);
      std::uint64_t suffix = (static_cast<std::uint64_t>(m) << 60) | (payload & mask);
      ++cont_[m - 1][suffix];
    }
  }
  finalized_ = true;
}

std::uint64_t NGramModel::RawCount(const std::vector<int>& gram) const {
  if (gram.empty() || gram.size() > order_) return 0;
  for (int s : gram) {
    if (!InVocabulary(s)) return 0;
  }
  std::uint64_t key = PackGram(gram.data(), gram.size());
  const auto& map = counts_[gram.size() - 1];
  auto it = map.find(key);
  return it == map.end() ? 0 : it->second;
}

std::size_t NGramModel::DistinctGrams(std::size_t m) const {
  if (m == 0 || m > order_) return 0;
  return counts_[m - 1].size();
}

std::vector<double> NGramModel::Interpolate(const std::vector<int>& context) const {
  FC_CHECK_MSG(finalized_ || order_ == 1, "call Finalize() before Probability()");
  const double uniform = 1.0 / static_cast<double>(vocab_size_);
  std::vector<double> p(vocab_size_, uniform);

  // Unigram level: continuation counts when available (true KN), raw
  // counts for an order-1 model. Discount-interpolate with the uniform
  // distribution so unseen symbols keep non-zero mass.
  const auto& unigrams = (order_ > 1) ? cont_[0] : counts_[0];
  double total = 0.0;
  for (const auto& [key, c] : unigrams) {
    (void)key;
    total += static_cast<double>(c);
  }
  if (total > 0.0) {
    double lambda = discount_ * static_cast<double>(unigrams.size()) / total;
    for (std::size_t w = 0; w < vocab_size_; ++w) {
      int sym = static_cast<int>(w);
      auto it = unigrams.find(PackGram(&sym, 1));
      double c = it == unigrams.end() ? 0.0 : static_cast<double>(it->second);
      p[w] = std::max(c - discount_, 0.0) / total + lambda * uniform;
    }
  }

  // The usable context: its last (order-1) symbols, cut after the last
  // symbol outside the vocabulary (no counted gram contains one).
  std::size_t usable = 0;
  while (usable < order_ - 1 && usable < context.size() &&
         InVocabulary(context[context.size() - 1 - usable])) {
    ++usable;
  }
  const int* ctx = context.data() + (context.size() - usable);

  // Orders m = 2..usable+1 interpolate with the level below. The highest
  // order uses raw counts; lower orders use continuation counts.
  int gram[kMaxOrder] = {};
  double counts[kMaxVocab] = {};
  for (std::size_t m = 2; m <= usable + 1; ++m) {
    const auto& table = (m == order_) ? counts_[m - 1] : cont_[m - 1];
    std::copy(ctx + usable - (m - 1), ctx + usable, gram);
    // Denominator: total mass for this context; also count distinct followers.
    double denom = 0.0;
    std::size_t followers = 0;
    for (std::size_t w = 0; w < vocab_size_; ++w) {
      gram[m - 1] = static_cast<int>(w);
      auto it = table.find(PackGram(gram, m));
      counts[w] = it == table.end() ? 0.0 : static_cast<double>(it->second);
      if (counts[w] > 0.0) {
        denom += counts[w];
        ++followers;
      }
    }
    if (denom <= 0.0) continue;  // unseen context: full backoff
    double lambda = discount_ * static_cast<double>(followers) / denom;
    for (std::size_t w = 0; w < vocab_size_; ++w) {
      p[w] = std::max(counts[w] - discount_, 0.0) / denom + lambda * p[w];
    }
  }
  return p;
}

double NGramModel::Probability(const std::vector<int>& context, int next) const {
  if (!InVocabulary(next)) return 0.0;
  return Interpolate(context)[static_cast<std::size_t>(next)];
}

std::vector<double> NGramModel::Distribution(const std::vector<int>& context) const {
  std::vector<double> dist = Interpolate(context);
  double total = 0.0;
  for (double p : dist) total += p;
  if (total > 0.0) {
    for (double& p : dist) p /= total;
  }
  return dist;
}

}  // namespace fc::markov
