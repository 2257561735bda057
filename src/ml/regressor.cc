#include "src/ml/regressor.h"

#include <cmath>

#include "src/common/check.h"

namespace mudi {

void FeatureScaler::Fit(const std::vector<std::vector<double>>& x) {
  MUDI_CHECK(!x.empty());
  size_t d = x[0].size();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  for (const auto& row : x) {
    MUDI_CHECK_EQ(row.size(), d);
    for (size_t j = 0; j < d; ++j) {
      mean_[j] += row[j];
    }
  }
  for (size_t j = 0; j < d; ++j) {
    mean_[j] /= static_cast<double>(x.size());
  }
  std::vector<double> var(d, 0.0);
  for (const auto& row : x) {
    for (size_t j = 0; j < d; ++j) {
      var[j] += (row[j] - mean_[j]) * (row[j] - mean_[j]);
    }
  }
  for (size_t j = 0; j < d; ++j) {
    double sd = std::sqrt(var[j] / static_cast<double>(x.size()));
    inv_std_[j] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }
}

std::vector<double> FeatureScaler::Transform(const std::vector<double>& x) const {
  std::vector<double> out(x.size());
  TransformInto(x, out.data());
  return out;
}

void FeatureScaler::TransformInto(const std::vector<double>& x, double* out) const {
  MUDI_CHECK_EQ(x.size(), mean_.size());
  for (size_t j = 0; j < x.size(); ++j) {
    out[j] = (x[j] - mean_[j]) * inv_std_[j];
  }
}

std::vector<std::vector<double>> FeatureScaler::TransformAll(
    const std::vector<std::vector<double>>& x) const {
  std::vector<std::vector<double>> out;
  out.reserve(x.size());
  for (const auto& row : x) {
    out.push_back(Transform(row));
  }
  return out;
}

}  // namespace mudi
