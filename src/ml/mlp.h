// Small fully-connected MLP regressor (one hidden tanh layer, Adam), used
// both as an Interference-Modeler candidate and as the "MLP fitting" baseline
// of Tab. 2.
#ifndef SRC_ML_MLP_H_
#define SRC_ML_MLP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ml/regressor.h"

namespace mudi {

struct MlpOptions {
  size_t hidden_units = 16;
  size_t epochs = 600;
  double learning_rate = 1e-2;
  uint64_t seed = 13;
};

class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(MlpOptions options = {}) : options_(options) {}

  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "MLP"; }

 private:
  MlpOptions options_;
  FeatureScaler scaler_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  size_t d_ = 0;  // input features
  // Weights: hidden layer (h × d, row-major) + bias (h), output layer (h) +
  // bias. Flat so the Adam update runs over contiguous memory (DESIGN.md
  // §12.5).
  std::vector<double> w1_;
  std::vector<double> b1_;
  std::vector<double> w2_;
  double b2_ = 0.0;
};

}  // namespace mudi

#endif  // SRC_ML_MLP_H_
