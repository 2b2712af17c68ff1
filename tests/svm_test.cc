// Unit tests for the SVM substrate: kernels, scaler, SMO training,
// multiclass voting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "svm/kernel.h"
#include "svm/scaler.h"
#include "svm/svm.h"

namespace fc::svm {
namespace {

// ---------------------------------------------------------------------------
// Kernels

TEST(KernelTest, Linear) {
  KernelParams params;
  params.kind = KernelKind::kLinear;
  EXPECT_DOUBLE_EQ(EvaluateKernel(params, {1, 2}, {3, 4}), 11.0);
}

TEST(KernelTest, RbfIdenticalIsOne) {
  KernelParams params;
  params.kind = KernelKind::kRbf;
  params.gamma = 0.5;
  EXPECT_DOUBLE_EQ(EvaluateKernel(params, {1, 2}, {1, 2}), 1.0);
  // Decays with distance.
  double near = EvaluateKernel(params, {0, 0}, {0.1, 0});
  double far = EvaluateKernel(params, {0, 0}, {3, 0});
  EXPECT_GT(near, far);
  EXPECT_NEAR(far, std::exp(-0.5 * 9.0), 1e-12);
}

TEST(KernelTest, Poly) {
  KernelParams params;
  params.kind = KernelKind::kPoly;
  params.gamma = 1.0;
  params.coef0 = 1.0;
  params.degree = 2;
  EXPECT_DOUBLE_EQ(EvaluateKernel(params, {1, 0}, {1, 0}), 4.0);  // (1+1)^2
}

// ---------------------------------------------------------------------------
// Scaler

TEST(ScalerTest, StandardizesColumns) {
  FeatureScaler scaler;
  ASSERT_TRUE(scaler.Fit({{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}}).ok());
  auto t = scaler.Transform({2.0, 10.0});
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // constant column -> 0
  auto hi = scaler.Transform({4.0, 10.0});
  EXPECT_GT(hi[0], 1.0);
}

TEST(ScalerTest, RejectsBadInput) {
  FeatureScaler scaler;
  EXPECT_FALSE(scaler.Fit({}).ok());
  EXPECT_FALSE(scaler.Fit({{1.0}, {1.0, 2.0}}).ok());
}

// ---------------------------------------------------------------------------
// BinarySvm

TEST(BinarySvmTest, ValidatesInput) {
  SvmOptions options;
  EXPECT_FALSE(BinarySvm::Train({}, {}, options).ok());
  EXPECT_FALSE(BinarySvm::Train({{1.0}}, {2}, options).ok());       // bad label
  EXPECT_FALSE(BinarySvm::Train({{1.0}}, {1}, options).ok());       // one class
  EXPECT_FALSE(BinarySvm::Train({{1.0}, {2.0}}, {1}, options).ok());  // sizes
}

TEST(BinarySvmTest, LinearlySeparable) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    x.push_back({rng.Gaussian(-2.0, 0.3), rng.Gaussian(-2.0, 0.3)});
    y.push_back(-1);
    x.push_back({rng.Gaussian(2.0, 0.3), rng.Gaussian(2.0, 0.3)});
    y.push_back(1);
  }
  // Linear kernel: the margin extends to arbitrarily far points (RBF decision
  // values decay back toward the bias away from the support vectors).
  SvmOptions options;
  options.kernel.kind = KernelKind::kLinear;
  auto model = BinarySvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->num_support_vectors(), 0u);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (model->Predict(x[i]) == y[i]) ++correct;
  }
  EXPECT_GE(correct, static_cast<int>(x.size()) - 2);
  // Far-away points classified confidently.
  EXPECT_EQ(model->Predict({-5.0, -5.0}), -1);
  EXPECT_EQ(model->Predict({5.0, 5.0}), 1);
  EXPECT_GT(model->DecisionValue({5.0, 5.0}), 0.5);
}

TEST(BinarySvmTest, RbfSolvesXor) {
  // XOR is not linearly separable; the RBF kernel must handle it.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(43);
  for (int i = 0; i < 30; ++i) {
    double jx = rng.Gaussian(0.0, 0.08);
    double jy = rng.Gaussian(0.0, 0.08);
    x.push_back({0.0 + jx, 0.0 + jy});
    y.push_back(1);
    x.push_back({1.0 + jx, 1.0 + jy});
    y.push_back(1);
    x.push_back({0.0 + jx, 1.0 + jy});
    y.push_back(-1);
    x.push_back({1.0 + jx, 0.0 + jy});
    y.push_back(-1);
  }
  SvmOptions options;
  options.kernel.gamma = 2.0;
  options.c = 10.0;
  auto model = BinarySvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict({0.0, 0.0}), 1);
  EXPECT_EQ(model->Predict({1.0, 1.0}), 1);
  EXPECT_EQ(model->Predict({0.0, 1.0}), -1);
  EXPECT_EQ(model->Predict({1.0, 0.0}), -1);
}

TEST(BinarySvmTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(47);
  for (int i = 0; i < 30; ++i) {
    x.push_back({rng.Gaussian(-1, 0.5)});
    y.push_back(-1);
    x.push_back({rng.Gaussian(1, 0.5)});
    y.push_back(1);
  }
  SvmOptions options;
  auto a = BinarySvm::Train(x, y, options);
  auto b = BinarySvm::Train(x, y, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->bias(), b->bias());
  EXPECT_EQ(a->num_support_vectors(), b->num_support_vectors());
  EXPECT_DOUBLE_EQ(a->DecisionValue({0.3}), b->DecisionValue({0.3}));
}

// ---------------------------------------------------------------------------
// MulticlassSvm

TEST(MulticlassSvmTest, ThreeGaussianBlobs) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(53);
  const std::vector<std::pair<double, double>> centers = {
      {0.0, 0.0}, {4.0, 0.0}, {2.0, 3.5}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      x.push_back({rng.Gaussian(centers[c].first, 0.4),
                   rng.Gaussian(centers[c].second, 0.4)});
      y.push_back(c);
    }
  }
  SvmOptions options;
  options.kernel.gamma = 1.0;
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->classes().size(), 3u);
  EXPECT_EQ(model->num_machines(), 3u);  // 3 choose 2
  EXPECT_EQ(model->Predict({0.0, 0.0}), 0);
  EXPECT_EQ(model->Predict({4.0, 0.0}), 1);
  EXPECT_EQ(model->Predict({2.0, 3.5}), 2);
  EXPECT_GT(ClassificationAccuracy(*model, x, y), 0.95);
}

TEST(MulticlassSvmTest, ArbitraryLabelValues) {
  std::vector<std::vector<double>> x = {{0.0}, {0.1}, {5.0}, {5.1}};
  std::vector<int> y = {-7, -7, 42, 42};
  SvmOptions options;
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict({0.05}), -7);
  EXPECT_EQ(model->Predict({5.05}), 42);
}

TEST(MulticlassSvmTest, RequiresTwoClasses) {
  SvmOptions options;
  EXPECT_FALSE(MulticlassSvm::Train({{1.0}, {2.0}}, {3, 3}, options).ok());
}

TEST(MulticlassSvmTest, VotesExposed) {
  std::vector<std::vector<double>> x = {{0.0}, {0.2}, {5.0}, {5.2}, {10.0}, {10.2}};
  std::vector<int> y = {0, 0, 1, 1, 2, 2};
  SvmOptions options;
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  auto votes = model->Votes({0.1});
  int total = 0;
  for (const auto& [cls, count] : votes) total += count;
  EXPECT_EQ(total, 3);  // one vote per pairwise machine
  EXPECT_EQ(votes[0], 2);  // class 0 wins both of its pairings
}

TEST(MulticlassSvmTest, AccuracyHelperHandlesEmpty) {
  MulticlassSvm model;
  EXPECT_DOUBLE_EQ(ClassificationAccuracy(model, {}, {}), 0.0);
}

TEST(MulticlassSvmTest, UntrainedVotesAreEmpty) {
  MulticlassSvm model;
  EXPECT_TRUE(model.Votes({1.0, 2.0}).empty());
}

// Rows on a small integer grid, like the phase features (tile position,
// level, move flags): most training rows repeat, some under another label.
struct GridData {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
};

GridData DuplicatedRows(int num_classes, std::uint64_t seed) {
  GridData data;
  Rng rng(seed);
  for (int i = 0; i < 120; ++i) {
    std::vector<double> row = {static_cast<double>(rng.UniformInt(0, 3)),
                               static_cast<double>(rng.UniformInt(0, 2)),
                               static_cast<double>(rng.UniformInt(0, 1))};
    int noise = rng.UniformUint32(5) == 0 ? 1 : 0;
    data.x.push_back(row);
    data.y.push_back(
        (static_cast<int>(row[0] + 2.0 * row[1] + row[2]) + noise) % num_classes);
  }
  return data;
}

// The one-vs-one rule over BinarySvm machines trained on the same pairwise
// subsets with the same options: each machine votes for its positive class
// when its decision value is >= 0, and a tie breaks toward the class with
// the larger summed signed margin.
class ReferenceOneVsOne {
 public:
  ReferenceOneVsOne(const GridData& data, const SvmOptions& options) {
    classes_ = data.y;
    std::sort(classes_.begin(), classes_.end());
    classes_.erase(std::unique(classes_.begin(), classes_.end()), classes_.end());
    for (std::size_t a = 0; a < classes_.size(); ++a) {
      for (std::size_t b = a + 1; b < classes_.size(); ++b) {
        std::vector<std::vector<double>> xs;
        std::vector<int> ys;
        for (std::size_t i = 0; i < data.x.size(); ++i) {
          if (data.y[i] == classes_[a] || data.y[i] == classes_[b]) {
            xs.push_back(data.x[i]);
            ys.push_back(data.y[i] == classes_[a] ? 1 : -1);
          }
        }
        auto svm = BinarySvm::Train(xs, ys, options);
        EXPECT_TRUE(svm.ok());
        machines_.push_back({classes_[a], classes_[b], *svm});
      }
    }
  }

  std::map<int, int> Votes(const std::vector<double>& x) const {
    std::map<int, int> votes;
    for (int c : classes_) votes[c] = 0;
    for (const auto& m : machines_) {
      ++votes[m.svm.Predict(x) == 1 ? m.positive : m.negative];
    }
    return votes;
  }

  // Also reports whether the vote was tied, so the margin rule ran.
  int Predict(const std::vector<double>& x, bool* tied) const {
    auto votes = Votes(x);
    std::map<int, double> margin;
    for (const auto& m : machines_) {
      double d = m.svm.DecisionValue(x);
      margin[m.positive] += d;
      margin[m.negative] -= d;
    }
    int best = classes_[0];
    *tied = false;
    for (int c : classes_) {
      if (c != best && votes[c] == votes[best]) *tied = true;
      if (votes[c] > votes[best] ||
          (votes[c] == votes[best] && margin[c] > margin[best])) {
        best = c;
      }
    }
    return best;
  }

 private:
  struct Machine {
    int positive;
    int negative;
    BinarySvm svm;
  };
  std::vector<int> classes_;
  std::vector<Machine> machines_;
};

TEST(MulticlassSvmTest, MatchesPairwiseBinaryMachines) {
  int ties = 0;
  for (KernelKind kind : {KernelKind::kLinear, KernelKind::kRbf, KernelKind::kPoly}) {
    for (int num_classes = 3; num_classes <= 5; ++num_classes) {
      SCOPED_TRACE(std::string(KernelKindToString(kind)) + " with " +
                   std::to_string(num_classes) + " classes");
      SvmOptions options;
      options.kernel.kind = kind;
      options.kernel.gamma = 0.7;
      options.kernel.coef0 = 1.0;
      options.kernel.degree = 2;
      GridData data = DuplicatedRows(num_classes, 100 + num_classes);
      auto model = MulticlassSvm::Train(data.x, data.y, options);
      ASSERT_TRUE(model.ok());
      ReferenceOneVsOne reference(data, options);

      std::vector<std::vector<double>> points = data.x;  // training rows too
      Rng rng(7 * num_classes);
      for (int i = 0; i < 100; ++i) {
        points.push_back({rng.UniformDouble(-1.0, 4.0), rng.UniformDouble(-1.0, 3.0),
                          rng.UniformDouble(-0.5, 1.5)});
      }
      for (const auto& p : points) {
        bool tied = false;
        EXPECT_EQ(model->Predict(p), reference.Predict(p, &tied));
        EXPECT_EQ(model->Votes(p), reference.Votes(p));
        if (tied) ++ties;
      }
    }
  }
  EXPECT_GT(ties, 0);  // the margin tie-break was exercised
}

}  // namespace
}  // namespace fc::svm
