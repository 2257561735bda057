// Common interface for the lightweight regression models the Interference
// Modeler chooses among (random forest, SVR, kNN, linear, MLP). The paper
// (§4.1.2) trains one model per output metric and selects the best per metric.
#ifndef SRC_ML_REGRESSOR_H_
#define SRC_ML_REGRESSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mudi {

class Regressor {
 public:
  virtual ~Regressor() = default;

  // Fits on feature rows x (n × d) and targets y (n). Must tolerate repeated
  // calls (refit from scratch each time).
  virtual void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) = 0;

  // Predicts the target for one feature row. Only valid after Fit().
  virtual double Predict(const std::vector<double>& x) const = 0;

  virtual std::string name() const = 0;
};

using RegressorFactory = std::function<std::unique_ptr<Regressor>()>;

// Per-feature standardization (zero mean, unit variance) shared by the
// distance- and gradient-based models.
class FeatureScaler {
 public:
  void Fit(const std::vector<std::vector<double>>& x);
  std::vector<double> Transform(const std::vector<double>& x) const;
  // Transform(x) written to out[0 .. x.size()).
  void TransformInto(const std::vector<double>& x, double* out) const;
  std::vector<std::vector<double>> TransformAll(const std::vector<std::vector<double>>& x) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace mudi

#endif  // SRC_ML_REGRESSOR_H_
