#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "src/common/check.h"
#include "src/common/float_eq.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/ml/fit_cache.h"
#include "src/ml/knn.h"
#include "src/ml/linear_regression.h"
#include "src/ml/mlp.h"
#include "src/ml/model_selection.h"
#include "src/ml/random_forest.h"
#include "src/ml/regressor.h"
#include "src/ml/svr.h"

namespace mudi {
namespace {

// Builds a dataset from a target function over a 2-D grid with mild noise.
void MakeDataset(const std::function<double(double, double)>& f, size_t n, uint64_t seed,
                 std::vector<std::vector<double>>* x, std::vector<double>* y,
                 double noise_sigma = 0.0) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(0.0, 1.0);
    double b = rng.Uniform(0.0, 1.0);
    x->push_back({a, b});
    double noise = noise_sigma > 0.0 ? rng.Normal(0.0, noise_sigma) : 0.0;
    y->push_back(f(a, b) + noise);
  }
}

double TestError(const Regressor& model, const std::function<double(double, double)>& f,
                 uint64_t seed) {
  Rng rng(seed);
  double total = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(0.05, 0.95);
    double b = rng.Uniform(0.05, 0.95);
    total += std::abs(model.Predict({a, b}) - f(a, b));
  }
  return total / n;
}

// ---------------------------------------------------------------------------
// FeatureScaler
// ---------------------------------------------------------------------------

TEST(FeatureScalerTest, StandardizesToZeroMeanUnitVar) {
  FeatureScaler scaler;
  std::vector<std::vector<double>> x{{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}};
  scaler.Fit(x);
  auto t = scaler.TransformAll(x);
  double mean0 = (t[0][0] + t[1][0] + t[2][0]) / 3.0;
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(t[2][0] - t[0][0], 2.0 * t[2][0], 1e-9);  // symmetric around 0
}

TEST(FeatureScalerTest, ConstantFeatureDoesNotBlowUp) {
  FeatureScaler scaler;
  scaler.Fit({{5.0}, {5.0}, {5.0}});
  auto t = scaler.Transform({5.0});
  EXPECT_DOUBLE_EQ(t[0], 0.0);
}

// ---------------------------------------------------------------------------
// Individual regressors
// ---------------------------------------------------------------------------

TEST(LinearRegressorTest, RecoversLinearFunction) {
  auto f = [](double a, double b) { return 3.0 * a - 2.0 * b + 1.0; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 50, 1, &x, &y);
  LinearRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 99), 0.02);
}

TEST(LinearRegressorTest, NameIsLinear) { EXPECT_EQ(LinearRegressor().name(), "Linear"); }

TEST(KnnRegressorTest, InterpolatesSmoothFunction) {
  auto f = [](double a, double b) { return std::sin(3.0 * a) + b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 400, 2, &x, &y);
  KnnRegressor model(5);
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 98), 0.12);
}

TEST(KnnRegressorTest, ExactOnTrainingPoint) {
  KnnRegressor model(1);
  model.Fit({{0.0, 0.0}, {1.0, 1.0}}, {5.0, 9.0});
  EXPECT_NEAR(model.Predict({0.0, 0.0}), 5.0, 1e-3);
  EXPECT_NEAR(model.Predict({1.0, 1.0}), 9.0, 1e-3);
}

TEST(RandomForestTest, LearnsNonlinearFunction) {
  auto f = [](double a, double b) { return a * b + (a > 0.5 ? 2.0 : 0.0); };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 600, 3, &x, &y);
  RandomForestRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 97), 0.35);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return a + b; }, 100, 4, &x, &y);
  RandomForestRegressor m1, m2;
  m1.Fit(x, y);
  m2.Fit(x, y);
  EXPECT_DOUBLE_EQ(m1.Predict({0.3, 0.7}), m2.Predict({0.3, 0.7}));
}

TEST(RandomForestTest, ConstantTargetYieldsConstant) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double, double) { return 7.0; }, 50, 5, &x, &y);
  RandomForestRegressor model;
  model.Fit(x, y);
  EXPECT_NEAR(model.Predict({0.5, 0.5}), 7.0, 1e-9);
}

TEST(SvrRegressorTest, LearnsSmoothFunction) {
  auto f = [](double a, double b) { return std::exp(-a) + 0.5 * b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 300, 6, &x, &y);
  SvrRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 96), 0.08);
}

TEST(SvrRegressorTest, CentersTarget) {
  // Large constant offset should not hurt the kernel model.
  auto f = [](double a, double b) { return 1000.0 + a + b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 200, 7, &x, &y);
  SvrRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 95), 0.5);
}

TEST(MlpRegressorTest, LearnsNonlinearFunction) {
  auto f = [](double a, double b) { return std::tanh(2.0 * a - 1.0) + 0.3 * b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 300, 8, &x, &y);
  MlpRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 94), 0.12);
}

TEST(MlpRegressorTest, HandlesScaledTargets) {
  auto f = [](double a, double b) { return 500.0 * a - 300.0 * b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 300, 9, &x, &y);
  MlpRegressor model;
  model.Fit(x, y);
  EXPECT_LT(TestError(model, f, 93), 30.0);
}

// Parameterized: every zoo regressor fits a simple linear map acceptably.
class ZooRegressorTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZooRegressorTest, FitsLinearMapReasonably) {
  auto factories = DefaultRegressorZoo();
  auto model = factories[GetParam()]();
  auto f = [](double a, double b) { return 4.0 * a + b; };
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset(f, 250, 10 + GetParam(), &x, &y);
  model->Fit(x, y);
  EXPECT_LT(TestError(*model, f, 92), 0.6) << model->name();
}

TEST_P(ZooRegressorTest, RefitReplacesOldModel) {
  auto factories = DefaultRegressorZoo();
  auto model = factories[GetParam()]();
  std::vector<std::vector<double>> x1, x2;
  std::vector<double> y1, y2;
  MakeDataset([](double a, double) { return a; }, 120, 20, &x1, &y1);
  MakeDataset([](double a, double) { return -a; }, 120, 21, &x2, &y2);
  model->Fit(x1, y1);
  double before = model->Predict({0.9, 0.5});
  model->Fit(x2, y2);
  double after = model->Predict({0.9, 0.5});
  EXPECT_GT(before, 0.3) << model->name();
  EXPECT_LT(after, -0.3) << model->name();
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, ZooRegressorTest, ::testing::Range<size_t>(0, 5));

// ---------------------------------------------------------------------------
// Model selection
// ---------------------------------------------------------------------------

TEST(ModelSelectionTest, KFoldErrorSmallForEasyProblem) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return 2.0 * a + b + 5.0; }, 100, 30, &x, &y);
  double err = KFoldRelativeError(
      [] { return std::unique_ptr<Regressor>(std::make_unique<LinearRegressor>()); }, x, y);
  EXPECT_LT(err, 0.01);
}

TEST(ModelSelectionTest, SelectsLowCvErrorModel) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return 3.0 * a - b; }, 120, 31, &x, &y, 0.01);
  auto result = SelectBestModel(DefaultRegressorZoo(), x, y);
  ASSERT_NE(result.model, nullptr);
  EXPECT_LT(result.cv_error, 0.6);
  EXPECT_FALSE(result.model_name.empty());
}

TEST(ModelSelectionTest, WinnerIsRefitOnAllData) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return a + b; }, 60, 32, &x, &y);
  auto result = SelectBestModel(DefaultRegressorZoo(), x, y);
  // Refit model should predict near truth on a training point.
  EXPECT_NEAR(result.model->Predict(x[0]), y[0], 0.3);
}

TEST(ModelSelectionTest, DefaultZooHasFiveFamilies) {
  EXPECT_EQ(DefaultRegressorZoo().size(), 5u);
}

// ---------------------------------------------------------------------------
// Fit kernels against scalar references (DESIGN.md §12.5)
//
// The MLP's flat, vectorised Adam kernel and the random forest's scratch-
// reusing split search must reproduce, to the last bit, the straightforward
// scalar code they replaced. That code is kept here, verbatim in arithmetic,
// as the reference.
// ---------------------------------------------------------------------------

// The nested-vector, per-parameter-lambda MLP: forward, then one Adam update
// per parameter interleaved with the backward pass.
class ReferenceMlp : public Regressor {
 public:
  explicit ReferenceMlp(MlpOptions options) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override {
    scaler_.Fit(x);
    auto xs = scaler_.TransformAll(x);
    size_t n = xs.size();
    size_t d = xs[0].size();
    size_t h = options_.hidden_units;
    y_mean_ = Mean(y);
    double sd = StdDev(y);
    y_scale_ = sd > 1e-9 ? sd : 1.0;
    std::vector<double> yn(n);
    for (size_t i = 0; i < n; ++i) {
      yn[i] = (y[i] - y_mean_) / y_scale_;
    }
    Rng rng(options_.seed);
    double init = 1.0 / std::sqrt(static_cast<double>(d));
    w1_.assign(h, std::vector<double>(d));
    b1_.assign(h, 0.0);
    w2_.assign(h, 0.0);
    b2_ = 0.0;
    for (size_t u = 0; u < h; ++u) {
      for (size_t j = 0; j < d; ++j) {
        w1_[u][j] = rng.Uniform(-init, init);
      }
      w2_[u] = rng.Uniform(-init, init);
    }
    auto zeros_like_w1 = [&] {
      return std::vector<std::vector<double>>(h, std::vector<double>(d));
    };
    auto m_w1 = zeros_like_w1(), v_w1 = zeros_like_w1();
    std::vector<double> m_b1(h), v_b1(h), m_w2(h), v_w2(h);
    double m_b2 = 0.0, v_b2 = 0.0;
    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    double lr = options_.learning_rate;
    std::vector<double> act(h);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    int step = 0;
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      rng.Shuffle(order);
      for (size_t oi = 0; oi < n; ++oi) {
        size_t i = order[oi];
        for (size_t u = 0; u < h; ++u) {
          double z = b1_[u];
          for (size_t j = 0; j < d; ++j) {
            z += w1_[u][j] * xs[i][j];
          }
          act[u] = std::tanh(z);
        }
        double pred = b2_;
        for (size_t u = 0; u < h; ++u) {
          pred += w2_[u] * act[u];
        }
        double err = pred - yn[i];
        ++step;
        double bc1 = 1.0 - std::pow(beta1, step);
        double bc2 = 1.0 - std::pow(beta2, step);
        auto adam = [&](double& w, double& m, double& v, double grad) {
          m = beta1 * m + (1.0 - beta1) * grad;
          v = beta2 * v + (1.0 - beta2) * grad * grad;
          w -= lr * (m / bc1) / (std::sqrt(v / bc2) + eps);
        };
        adam(b2_, m_b2, v_b2, err);
        for (size_t u = 0; u < h; ++u) {
          double g_w2 = err * act[u];
          double delta = err * w2_[u] * (1.0 - act[u] * act[u]);
          adam(w2_[u], m_w2[u], v_w2[u], g_w2);
          adam(b1_[u], m_b1[u], v_b1[u], delta);
          for (size_t j = 0; j < d; ++j) {
            adam(w1_[u][j], m_w1[u][j], v_w1[u][j], delta * xs[i][j]);
          }
        }
      }
    }
  }

  double Predict(const std::vector<double>& x) const override {
    auto q = scaler_.Transform(x);
    double pred = b2_;
    for (size_t u = 0; u < w1_.size(); ++u) {
      double z = b1_[u];
      for (size_t j = 0; j < q.size(); ++j) {
        z += w1_[u][j] * q[j];
      }
      pred += w2_[u] * std::tanh(z);
    }
    return pred * y_scale_ + y_mean_;
  }

  std::string name() const override { return "MLP"; }

 private:
  MlpOptions options_;
  FeatureScaler scaler_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  std::vector<std::vector<double>> w1_;
  std::vector<double> b1_;
  std::vector<double> w2_;
  double b2_ = 0.0;
};

// The allocate-per-split forest: a fresh column, prefix sums, feature list
// and child index lists at every split.
class ReferenceForest : public Regressor {
 public:
  explicit ReferenceForest(RandomForestOptions options) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override {
    size_t d = x[0].size();
    Rng rng(options_.seed);
    trees_.clear();
    size_t features_per_split = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(options_.feature_fraction * static_cast<double>(d))));
    for (size_t t = 0; t < options_.num_trees; ++t) {
      std::vector<Node> nodes;
      std::vector<size_t> root_idx(x.size());
      for (size_t i = 0; i < x.size(); ++i) {
        root_idx[i] = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(x.size()) - 1));
      }
      struct WorkItem {
        std::vector<size_t> idx;
        size_t depth;
        size_t slot;
      };
      std::vector<WorkItem> stack;
      nodes.emplace_back();
      stack.push_back({std::move(root_idx), 0, 0});
      while (!stack.empty()) {
        WorkItem item = std::move(stack.back());
        stack.pop_back();
        nodes[item.slot].value = SubsetMean(y, item.idx);
        bool should_split = item.depth < options_.max_depth &&
                            item.idx.size() >= 2 * options_.min_samples_leaf &&
                            SubsetSse(y, item.idx) > 1e-12;
        if (!should_split) {
          continue;
        }
        std::vector<int> features(d);
        for (size_t j = 0; j < d; ++j) {
          features[j] = static_cast<int>(j);
        }
        rng.Shuffle(features);
        features.resize(features_per_split);
        int best_feature = -1;
        double best_threshold = 0.0;
        double best_score = std::numeric_limits<double>::infinity();
        for (int f : features) {
          std::vector<std::pair<double, double>> col;
          for (size_t i : item.idx) {
            col.emplace_back(x[i][static_cast<size_t>(f)], y[i]);
          }
          std::sort(col.begin(), col.end());
          size_t n = col.size();
          std::vector<double> prefix_sum(n + 1, 0.0), prefix_sq(n + 1, 0.0);
          for (size_t i = 0; i < n; ++i) {
            prefix_sum[i + 1] = prefix_sum[i] + col[i].second;
            prefix_sq[i + 1] = prefix_sq[i] + col[i].second * col[i].second;
          }
          for (size_t split = options_.min_samples_leaf; split + options_.min_samples_leaf <= n;
               ++split) {
            if (ExactEq(col[split - 1].first, col[split].first)) {
              continue;
            }
            double ls = prefix_sum[split];
            double lq = prefix_sq[split];
            double rs = prefix_sum[n] - ls;
            double rq = prefix_sq[n] - lq;
            double nl = static_cast<double>(split);
            double nr = static_cast<double>(n - split);
            double sse = (lq - ls * ls / nl) + (rq - rs * rs / nr);
            if (sse < best_score) {
              best_score = sse;
              best_feature = f;
              best_threshold = 0.5 * (col[split - 1].first + col[split].first);
            }
          }
        }
        if (best_feature < 0) {
          continue;
        }
        std::vector<size_t> left_idx, right_idx;
        for (size_t i : item.idx) {
          if (x[i][static_cast<size_t>(best_feature)] <= best_threshold) {
            left_idx.push_back(i);
          } else {
            right_idx.push_back(i);
          }
        }
        if (left_idx.size() < options_.min_samples_leaf ||
            right_idx.size() < options_.min_samples_leaf) {
          continue;
        }
        size_t left_slot = nodes.size();
        nodes.emplace_back();
        size_t right_slot = nodes.size();
        nodes.emplace_back();
        nodes[item.slot].feature = best_feature;
        nodes[item.slot].threshold = best_threshold;
        nodes[item.slot].left = left_slot;
        nodes[item.slot].right = right_slot;
        stack.push_back({std::move(left_idx), item.depth + 1, left_slot});
        stack.push_back({std::move(right_idx), item.depth + 1, right_slot});
      }
      trees_.push_back(std::move(nodes));
    }
  }

  double Predict(const std::vector<double>& x) const override {
    double sum = 0.0;
    for (const auto& nodes : trees_) {
      size_t idx = 0;
      while (nodes[idx].feature >= 0) {
        const Node& n = nodes[idx];
        idx = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
      }
      sum += nodes[idx].value;
    }
    return sum / static_cast<double>(trees_.size());
  }

  std::string name() const override { return "RF"; }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    size_t left = 0;
    size_t right = 0;
  };

  static double SubsetMean(const std::vector<double>& y, const std::vector<size_t>& idx) {
    double sum = 0.0;
    for (size_t i : idx) {
      sum += y[i];
    }
    return idx.empty() ? 0.0 : sum / static_cast<double>(idx.size());
  }

  static double SubsetSse(const std::vector<double>& y, const std::vector<size_t>& idx) {
    double mean = SubsetMean(y, idx);
    double sse = 0.0;
    for (size_t i : idx) {
      sse += (y[i] - mean) * (y[i] - mean);
    }
    return sse;
  }

  RandomForestOptions options_;
  std::vector<std::vector<Node>> trees_;
};

// A seeded dataset shaped like the Interference Modeler's: d − 1 small
// integer counts (ties are common) plus one continuous feature, and a smooth
// nonlinear target with noise. Column 0 is constant when `constant_column`.
void MakeKernelDataset(size_t n, size_t d, bool constant_column, uint64_t seed,
                       std::vector<std::vector<double>>* x, std::vector<double>* y) {
  Rng rng(seed);
  x->assign(n, std::vector<double>(d));
  y->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double target = 0.0;
    for (size_t j = 0; j < d; ++j) {
      double v = j + 1 == d ? rng.Uniform(0.0, 9.0) : static_cast<double>(rng.UniformInt(0, 6));
      if (constant_column && j == 0) {
        v = 3.0;
      }
      (*x)[i][j] = v;
      target += std::sin(0.7 * v + static_cast<double>(j)) * (1.0 + 0.1 * static_cast<double>(j));
    }
    (*y)[i] = std::log1p(std::abs(target)) + rng.Normal(0.0, 0.05);
  }
}

// Training rows (so probes sit exactly on split thresholds' neighbours) plus
// seeded off-grid rows.
std::vector<std::vector<double>> KernelProbes(const std::vector<std::vector<double>>& x,
                                              uint64_t seed) {
  std::vector<std::vector<double>> probes = x;
  Rng rng(seed);
  for (int k = 0; k < 16; ++k) {
    std::vector<double> row(x[0].size());
    for (double& v : row) {
      v = rng.Uniform(-1.0, 10.0);
    }
    probes.push_back(std::move(row));
  }
  return probes;
}

// Bit-for-bit prediction equality over every probe.
void ExpectSamePredictions(const Regressor& got, const Regressor& want,
                           const std::vector<std::vector<double>>& probes,
                           const std::string& label) {
  for (size_t k = 0; k < probes.size(); ++k) {
    double g = got.Predict(probes[k]);
    double w = want.Predict(probes[k]);
    ASSERT_EQ(std::bit_cast<uint64_t>(g), std::bit_cast<uint64_t>(w))
        << label << " probe " << k << ": " << g << " vs " << w;
  }
}

struct KernelCase {
  size_t n;
  size_t d;
  bool constant_column;
};

std::vector<KernelCase> KernelCases() {
  std::vector<KernelCase> cases;
  for (size_t n : {2, 3, 5, 8, 13, 21, 34, 55, 70}) {
    cases.push_back({n, 1, false});
    cases.push_back({n, 12, false});
    cases.push_back({n, 12, true});
  }
  return cases;
}

TEST(MlpKernelTest, BitIdenticalToScalarReference) {
  uint64_t seed = 100;
  for (const KernelCase& c : KernelCases()) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    MakeKernelDataset(c.n, c.d, c.constant_column, ++seed, &x, &y);
    auto probes = KernelProbes(x, seed);
    // Epoch budgets: a short run whose steps may all sit below the ~350
    // where 1 - 0.9^step rounds to exactly 1.0, one that crosses it, the
    // model-selection budget (300) and the winner refit (600).
    for (size_t epochs : {size_t{3}, 350 / c.n + 2, size_t{300}, size_t{600}}) {
      if (epochs == 600 && c.n > 34) {
        continue;  // keep the suite fast; n = 34 already runs 20 400 steps
      }
      MlpOptions options;
      options.epochs = epochs;
      options.seed = seed;
      options.hidden_units = c.n % 2 == 0 ? 16 : 5;
      MlpRegressor got(options);
      ReferenceMlp want(options);
      got.Fit(x, y);
      want.Fit(x, y);
      ExpectSamePredictions(got, want, probes,
                            "n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                                (c.constant_column ? " const" : "") +
                                " epochs=" + std::to_string(epochs));
    }
  }
}

// A refit on a different sample and feature count leaves no trace of the
// first fit's flat state.
TEST(MlpKernelTest, RefitIsBitIdenticalToFreshFit) {
  std::vector<std::vector<double>> x1, x2;
  std::vector<double> y1, y2;
  MakeKernelDataset(20, 12, false, 7, &x1, &y1);
  MakeKernelDataset(9, 1, false, 8, &x2, &y2);
  MlpOptions options;
  options.epochs = 40;
  MlpRegressor reused(options), fresh(options);
  reused.Fit(x1, y1);
  reused.Fit(x2, y2);
  fresh.Fit(x2, y2);
  ExpectSamePredictions(reused, fresh, KernelProbes(x2, 9), "refit");
}

TEST(RandomForestKernelTest, BitIdenticalToReference) {
  uint64_t seed = 500;
  for (const KernelCase& c : KernelCases()) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    MakeKernelDataset(c.n, c.d, c.constant_column, ++seed, &x, &y);
    auto probes = KernelProbes(x, seed);
    std::vector<RandomForestOptions> variants(4);
    variants[1].min_samples_leaf = 1;
    variants[1].num_trees = 7;
    variants[2].max_depth = 2;
    variants[2].feature_fraction = 0.3;
    variants[3].max_depth = 30;
    variants[3].min_samples_leaf = 1;
    variants[3].feature_fraction = 1.0;
    for (size_t v = 0; v < variants.size(); ++v) {
      variants[v].seed = seed + v;
      RandomForestRegressor got(variants[v]);
      ReferenceForest want(variants[v]);
      got.Fit(x, y);
      want.Fit(x, y);
      ExpectSamePredictions(got, want, probes,
                            "n=" + std::to_string(c.n) + " d=" + std::to_string(c.d) +
                                (c.constant_column ? " const" : "") + " variant " +
                                std::to_string(v));
    }
  }
}

// The default zoo with the reference MLP and forest in place of the kernels.
std::vector<RegressorFactory> ReferenceZoo() {
  std::vector<RegressorFactory> zoo = DefaultRegressorZoo();
  zoo[0] = [] {
    return std::unique_ptr<Regressor>(std::make_unique<ReferenceForest>(RandomForestOptions{}));
  };
  zoo[4] = [] {
    MlpOptions options;
    options.epochs = 300;
    return std::unique_ptr<Regressor>(std::make_unique<ReferenceMlp>(options));
  };
  return zoo;
}

// One batch shaped like InterferenceModeler::Fit: 6 services × 4 curve
// parameters = 24 tasks over 12 features, 5 folds. Winner names, CV errors
// and refit predictions must all match the reference zoo exactly.
TEST(FitKernelSelectionTest, ModelerShapedBatchMatchesReferenceZoo) {
  constexpr size_t kServices = 6;
  constexpr size_t kParams = 4;
  std::vector<std::vector<std::vector<double>>> xs(kServices);
  std::vector<std::vector<std::vector<double>>> ys(kServices,
                                                   std::vector<std::vector<double>>(kParams));
  std::vector<FitTask> tasks;
  for (size_t s = 0; s < kServices; ++s) {
    size_t n = 6 + 5 * s;  // 6 .. 31 co-location samples
    std::vector<double> base;
    MakeKernelDataset(n, 12, s % 3 == 0, 900 + s, &xs[s], &base);
    for (size_t p = 0; p < kParams; ++p) {
      ys[s][p].resize(n);
      for (size_t i = 0; i < n; ++i) {
        // Per-parameter targets: log-magnitudes, a level, and a cutoff.
        ys[s][p][i] =
            p == 2 ? 0.2 + 0.05 * base[i] : base[i] * (1.0 + 0.3 * static_cast<double>(p));
      }
      tasks.push_back(FitTask{&xs[s], &ys[s][p], 5});
    }
  }
  FitCache::Global().Clear();
  auto got = SelectBestModelsCached(DefaultRegressorZoo(), tasks);
  FitCache::Global().Clear();  // the cache keys on data, not on the zoo
  auto want = SelectBestModelsCached(ReferenceZoo(), tasks);
  FitCache::Global().Clear();
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    EXPECT_FALSE(got[t].from_cache);
    EXPECT_EQ(got[t].model_name, want[t].model_name);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[t].cv_error), std::bit_cast<uint64_t>(want[t].cv_error));
    ExpectSamePredictions(*got[t].model, *want[t].model, KernelProbes(*tasks[t].x, t), "winner");
  }
  // The batch refits at least one MLP winner and one forest.
  auto wins = [&](const std::string& name) {
    return std::count_if(got.begin(), got.end(),
                         [&](const SharedSelectionResult& r) { return r.model_name == name; });
  };
  EXPECT_GT(wins("MLP"), 0);
  EXPECT_GT(wins("RF"), 0);
  // The MLP and the forest rarely win every task, so compare their CV errors
  // directly on one service's tasks as well.
  auto zoo = DefaultRegressorZoo();
  auto reference = ReferenceZoo();
  for (size_t t = 0; t < kParams; ++t) {
    for (size_t f : {size_t{0}, size_t{4}}) {
      double g = KFoldRelativeError(zoo[f], *tasks[t].x, *tasks[t].y, 5);
      double w = KFoldRelativeError(reference[f], *tasks[t].x, *tasks[t].y, 5);
      EXPECT_EQ(std::bit_cast<uint64_t>(g), std::bit_cast<uint64_t>(w))
          << "task " << t << " factory " << f;
    }
  }
}

// ---------------------------------------------------------------------------
// Early-exit selection. The reference below is the selection rule without any
// bound: every fold of every factory, summed in fold order, strict `<` in zoo
// order, winner refit on all data. The bounded selection must return the same
// bits.
// ---------------------------------------------------------------------------

double ReferenceKFoldError(const RegressorFactory& factory,
                           const std::vector<std::vector<double>>& x,
                           const std::vector<double>& y, size_t folds) {
  folds = std::min(folds, x.size());
  double total_err = 0.0;
  size_t total_count = 0;
  for (size_t fold = 0; fold < folds; ++fold) {
    std::vector<std::vector<double>> train_x, test_x;
    std::vector<double> train_y, test_y;
    for (size_t i = 0; i < x.size(); ++i) {
      if (i % folds == fold) {
        test_x.push_back(x[i]);
        test_y.push_back(y[i]);
      } else {
        train_x.push_back(x[i]);
        train_y.push_back(y[i]);
      }
    }
    auto model = factory();
    model->Fit(train_x, train_y);
    for (size_t i = 0; i < test_x.size(); ++i) {
      double pred = model->Predict(test_x[i]);
      double denom = std::max(std::abs(test_y[i]), 1e-6);
      total_err += std::abs(pred - test_y[i]) / denom;
      ++total_count;
    }
  }
  return total_err / static_cast<double>(total_count);
}

ModelSelectionResult ReferenceSelection(const std::vector<RegressorFactory>& factories,
                                        const std::vector<std::vector<double>>& x,
                                        const std::vector<double>& y, size_t folds) {
  ModelSelectionResult result;
  result.cv_error = std::numeric_limits<double>::infinity();
  size_t winner = factories.size();
  for (size_t f = 0; f < factories.size(); ++f) {
    double err = ReferenceKFoldError(factories[f], x, y, folds);
    if (err < result.cv_error) {
      result.cv_error = err;
      winner = f;
    }
  }
  MUDI_CHECK_LT(winner, factories.size());
  result.model = factories[winner]();
  result.model->Fit(x, y);
  result.model_name = result.model->name();
  return result;
}

// Forwards to another regressor under its own name, so one zoo can hold two
// factories whose CV errors tie exactly.
class RenamedRegressor : public Regressor {
 public:
  RenamedRegressor(std::unique_ptr<Regressor> inner, std::string name)
      : inner_(std::move(inner)), name_(std::move(name)) {}
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override {
    inner_->Fit(x, y);
  }
  double Predict(const std::vector<double>& x) const override { return inner_->Predict(x); }
  std::string name() const override { return name_; }

 private:
  std::unique_ptr<Regressor> inner_;
  std::string name_;
};

RegressorFactory RenamedLinear(const std::string& name) {
  return [name] {
    return std::unique_ptr<Regressor>(
        std::make_unique<RenamedRegressor>(std::make_unique<LinearRegressor>(), name));
  };
}

TEST(ModelSelectionTest, KFoldBoundStopsOnlyOnceThePrefixReachesIt) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeKernelDataset(30, 12, false, 77, &x, &y);
  for (const RegressorFactory& factory : DefaultRegressorZoo()) {
    const double want = ReferenceKFoldError(factory, x, y, 5);
    size_t skipped = 99;
    double unbounded = KFoldRelativeError(factory, x, y, 5,
                                          std::numeric_limits<double>::infinity(), &skipped);
    EXPECT_EQ(std::bit_cast<uint64_t>(unbounded), std::bit_cast<uint64_t>(want));
    EXPECT_EQ(skipped, 0u);
    EXPECT_EQ(std::bit_cast<uint64_t>(KFoldRelativeError(factory, x, y, 5)),
              std::bit_cast<uint64_t>(want));
    // Bounds below the full error: an exit reports a partial mean at or
    // above the bound and never above the full error.
    for (double scale : {0.05, 0.5, 0.999}) {
      const double bound = want * scale;
      double got = KFoldRelativeError(factory, x, y, 5, bound, &skipped);
      EXPECT_GE(got, bound) << "scale " << scale;
      EXPECT_LE(got, want) << "scale " << scale;
      EXPECT_LT(skipped, 5u);
    }
    // A positive bound is never reached before the first fold.
    KFoldRelativeError(factory, x, y, 5, want, &skipped);
    EXPECT_LE(skipped, 4u);
    // A zero bound is reached by the empty prefix: no fold is fitted.
    EXPECT_EQ(KFoldRelativeError(factory, x, y, 5, 0.0, &skipped), 0.0);
    EXPECT_EQ(skipped, 5u);
    // A bound the full error never reaches runs every fold.
    EXPECT_EQ(std::bit_cast<uint64_t>(KFoldRelativeError(factory, x, y, 5, want * 2.0 + 1.0,
                                                         &skipped)),
              std::bit_cast<uint64_t>(want));
    EXPECT_EQ(skipped, 0u);
  }
}

TEST(ModelSelectionTest, EarlyExitSelectionMatchesUnboundedReference) {
  struct Case {
    std::string label;
    std::vector<std::vector<double>> x;
    std::vector<double> y;
  };
  std::vector<Case> cases;
  // The modeler's shape: 6 services × 4 curve parameters over 12 features.
  for (size_t s = 0; s < 6; ++s) {
    size_t n = 6 + 5 * s;
    Case base{"service " + std::to_string(s), {}, {}};
    MakeKernelDataset(n, 12, s % 3 == 0, 900 + s, &base.x, &base.y);
    for (size_t p = 0; p < 4; ++p) {
      Case c{base.label + " param " + std::to_string(p), base.x, base.y};
      for (double& v : c.y) {
        v = p == 2 ? 0.2 + 0.05 * v : v * (1.0 + 0.3 * static_cast<double>(p));
      }
      cases.push_back(std::move(c));
    }
  }
  // Modeler-sized tasks (n = 30, d = 12) on seeds where the MLP wins while
  // bounded by the other four, which themselves skip folds.
  for (uint64_t seed : {uint64_t{10}, uint64_t{33}}) {
    Case c{"mlp seed " + std::to_string(seed), {}, {}};
    MakeKernelDataset(30, 12, false, seed, &c.x, &c.y);
    cases.push_back(std::move(c));
  }
  // A constant target: the forest and kNN both predict it exactly, so the
  // forest must win a 0-error tie and no later factory fits a single fold.
  {
    Case c{"constant", {}, {}};
    MakeKernelDataset(20, 12, false, 31, &c.x, &c.y);
    std::fill(c.y.begin(), c.y.end(), 3.0);
    cases.push_back(std::move(c));
  }

  std::vector<FitTask> tasks;
  for (const Case& c : cases) {
    tasks.push_back(FitTask{&c.x, &c.y, 5});
  }
  const std::vector<RegressorFactory> zoo = DefaultRegressorZoo();
  FitCache::Global().Clear();
  auto batch = SelectBestModelsCached(zoo, tasks);
  FitCache::Global().Clear();
  ASSERT_EQ(batch.size(), cases.size());
  size_t mlp_wins = 0;
  size_t skipped = 0;
  for (size_t t = 0; t < cases.size(); ++t) {
    SCOPED_TRACE(cases[t].label);
    ModelSelectionResult want = ReferenceSelection(zoo, cases[t].x, cases[t].y, 5);
    ModelSelectionResult single = SelectBestModel(zoo, cases[t].x, cases[t].y, 5);
    auto probes = KernelProbes(cases[t].x, t);
    EXPECT_FALSE(batch[t].from_cache);
    EXPECT_EQ(batch[t].model_name, want.model_name);
    EXPECT_EQ(single.model_name, want.model_name);
    EXPECT_EQ(std::bit_cast<uint64_t>(batch[t].cv_error), std::bit_cast<uint64_t>(want.cv_error));
    EXPECT_EQ(std::bit_cast<uint64_t>(single.cv_error), std::bit_cast<uint64_t>(want.cv_error));
    EXPECT_EQ(batch[t].cv_folds_skipped, single.cv_folds_skipped);
    ExpectSamePredictions(*batch[t].model, *want.model, probes, "batch");
    ExpectSamePredictions(*single.model, *want.model, probes, "single");
    mlp_wins += want.model_name == "MLP" ? 1 : 0;
    skipped += single.cv_folds_skipped;
  }
  EXPECT_EQ(batch.back().model_name, "RF");
  EXPECT_EQ(batch.back().cv_folds_skipped, 5u * (zoo.size() - 1));
  EXPECT_GE(mlp_wins, 2u);
  EXPECT_GT(skipped, 0u);

  // Two factories with identical fits on a linear target tie exactly, and
  // the earlier one must keep the tie.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  MakeDataset([](double a, double b) { return 2.0 * a + b + 5.0; }, 40, 33, &x, &y, 0.01);
  const std::vector<RegressorFactory> twins = {
      RenamedLinear("Linear-first"), zoo[2], RenamedLinear("Linear-second")};
  ModelSelectionResult want = ReferenceSelection(twins, x, y, 5);
  ModelSelectionResult got = SelectBestModel(twins, x, y, 5);
  EXPECT_EQ(want.model_name, "Linear-first");
  EXPECT_EQ(got.model_name, "Linear-first");
  EXPECT_EQ(std::bit_cast<uint64_t>(got.cv_error), std::bit_cast<uint64_t>(want.cv_error));
  ExpectSamePredictions(*got.model, *want.model, KernelProbes(x, 5), "twins");
}

}  // namespace
}  // namespace mudi
