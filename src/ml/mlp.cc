#include "src/ml/mlp.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/float_eq.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace mudi {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

// One Adam step over `count` parameters with their moments and gradients.
// Each parameter reads only its own state and gradient, so the loop is
// straight-line and vectorises; every value is computed by the same IEEE
// operations in the same order as a scalar update (DESIGN.md §12.5). Once
// 1 - beta1^step has rounded to exactly 1.0 (from step 356 on), m / bc1 is
// exactly m and the divide is skipped.
void AdamStep(double* w, double* m, double* v, const double* g, size_t count, double lr,
              double bc1, double bc2) {
  if (ExactEq(bc1, 1.0)) {
    for (size_t k = 0; k < count; ++k) {
      m[k] = kBeta1 * m[k] + (1.0 - kBeta1) * g[k];
      v[k] = kBeta2 * v[k] + (1.0 - kBeta2) * g[k] * g[k];
      w[k] -= lr * m[k] / (std::sqrt(v[k] / bc2) + kEps);
    }
    return;
  }
  for (size_t k = 0; k < count; ++k) {
    m[k] = kBeta1 * m[k] + (1.0 - kBeta1) * g[k];
    v[k] = kBeta2 * v[k] + (1.0 - kBeta2) * g[k] * g[k];
    w[k] -= lr * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + kEps);
  }
}

}  // namespace

void MlpRegressor::Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  MUDI_CHECK(!x.empty());
  MUDI_CHECK_EQ(x.size(), y.size());
  scaler_.Fit(x);
  size_t n = x.size();
  size_t d = x[0].size();
  size_t h = options_.hidden_units;
  d_ = d;
  std::vector<double> xs(n * d);  // scaled inputs, n × d row-major
  for (size_t i = 0; i < n; ++i) {
    scaler_.TransformInto(x[i], xs.data() + i * d);
  }

  y_mean_ = Mean(y);
  double sd = StdDev(y);
  y_scale_ = sd > 1e-9 ? sd : 1.0;
  std::vector<double> yn(n);
  for (size_t i = 0; i < n; ++i) {
    yn[i] = (y[i] - y_mean_) / y_scale_;
  }

  Rng rng(options_.seed);
  double init = 1.0 / std::sqrt(static_cast<double>(d));
  w1_.assign(h * d, 0.0);
  b1_.assign(h, 0.0);
  w2_.assign(h, 0.0);
  b2_ = 0.0;
  for (size_t u = 0; u < h; ++u) {
    for (size_t j = 0; j < d; ++j) {
      w1_[u * d + j] = rng.Uniform(-init, init);
    }
    w2_[u] = rng.Uniform(-init, init);
  }

  // Adam moments, laid out like the parameters they follow.
  std::vector<double> m_w1(h * d), v_w1(h * d);
  std::vector<double> m_b1(h), v_b1(h), m_w2(h), v_w2(h);
  double m_b2 = 0.0, v_b2 = 0.0;
  double lr = options_.learning_rate;

  // Per-sample scratch: activations and the gradient of each group.
  std::vector<double> act(h), delta(h), g_w2(h), g_w1(h * d);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }

  int step = 0;
  // MUDI_HOT_PATH  every sample of every epoch; all buffers are sized above.
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t oi = 0; oi < n; ++oi) {
      const double* xi = xs.data() + order[oi] * d;
      // Forward.
      for (size_t u = 0; u < h; ++u) {
        const double* row = w1_.data() + u * d;
        double z = b1_[u];
        for (size_t j = 0; j < d; ++j) {
          z += row[j] * xi[j];
        }
        act[u] = std::tanh(z);
      }
      double pred = b2_;
      for (size_t u = 0; u < h; ++u) {
        pred += w2_[u] * act[u];
      }
      double err = pred - yn[order[oi]];

      // Backward (squared loss): every gradient from the pre-update weights.
      for (size_t u = 0; u < h; ++u) {
        g_w2[u] = err * act[u];
        delta[u] = err * w2_[u] * (1.0 - act[u] * act[u]);
      }
      for (size_t u = 0; u < h; ++u) {
        for (size_t j = 0; j < d; ++j) {
          g_w1[u * d + j] = delta[u] * xi[j];
        }
      }

      // Adam, one straight-line pass per parameter group.
      ++step;
      double bc1 = 1.0 - std::pow(kBeta1, step);
      double bc2 = 1.0 - std::pow(kBeta2, step);
      AdamStep(&b2_, &m_b2, &v_b2, &err, 1, lr, bc1, bc2);
      AdamStep(w2_.data(), m_w2.data(), v_w2.data(), g_w2.data(), h, lr, bc1, bc2);
      AdamStep(b1_.data(), m_b1.data(), v_b1.data(), delta.data(), h, lr, bc1, bc2);
      AdamStep(w1_.data(), m_w1.data(), v_w1.data(), g_w1.data(), h * d, lr, bc1, bc2);
    }
  }
  // MUDI_HOT_PATH_END
}

double MlpRegressor::Predict(const std::vector<double>& x) const {
  MUDI_CHECK(!b1_.empty());
  auto q = scaler_.Transform(x);
  double pred = b2_;
  for (size_t u = 0; u < b1_.size(); ++u) {
    double z = b1_[u];
    for (size_t j = 0; j < d_; ++j) {
      z += w1_[u * d_ + j] * q[j];
    }
    pred += w2_[u] * std::tanh(z);
  }
  return pred * y_scale_ + y_mean_;
}

}  // namespace mudi
