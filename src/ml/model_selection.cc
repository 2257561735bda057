#include "src/ml/model_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/ml/fit_cache.h"
#include "src/ml/fit_pool.h"
#include "src/ml/knn.h"
#include "src/ml/linear_regression.h"
#include "src/ml/mlp.h"
#include "src/ml/random_forest.h"
#include "src/ml/svr.h"

namespace mudi {

double KFoldRelativeError(const RegressorFactory& factory,
                          const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y, size_t folds, double bound,
                          size_t* folds_skipped) {
  MUDI_CHECK_EQ(x.size(), y.size());
  MUDI_CHECK_GE(x.size(), 2u);
  folds = std::min(folds, x.size());
  MUDI_CHECK_GE(folds, 2u);

  // With 2 <= folds <= n every fold has test and training samples, so the
  // full sum has exactly n terms. The terms are non-negative and rounding is
  // monotone, so every prefix of the sum in this fold order, over n, is at
  // most the final error: a prefix that reaches the bound proves the final
  // error does too. A NaN prefix never compares >= and so never exits.
  const bool bounded = bound < std::numeric_limits<double>::infinity();
  const double n = static_cast<double>(x.size());
  double total_err = 0.0;
  size_t fold = 0;
  for (; fold < folds; ++fold) {
    if (bounded && total_err / n >= bound) {
      break;
    }
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
    }
  }
  if (folds_skipped != nullptr) {
    *folds_skipped = folds - fold;
  }
  return total_err / n;
}

std::vector<RegressorFactory> DefaultRegressorZoo() {
  return {
      [] { return std::unique_ptr<Regressor>(std::make_unique<RandomForestRegressor>()); },
      [] { return std::unique_ptr<Regressor>(std::make_unique<SvrRegressor>()); },
      [] { return std::unique_ptr<Regressor>(std::make_unique<KnnRegressor>()); },
      [] { return std::unique_ptr<Regressor>(std::make_unique<LinearRegressor>()); },
      [] {
        MlpOptions options;
        options.epochs = 300;  // CV folds and the winner's refit alike
        return std::unique_ptr<Regressor>(std::make_unique<MlpRegressor>(options));
      },
  };
}

ModelSelectionResult SelectBestModel(const std::vector<RegressorFactory>& factories,
                                     const std::vector<std::vector<double>>& x,
                                     const std::vector<double>& y, size_t folds) {
  MUDI_CHECK(!factories.empty());
  ModelSelectionResult result;
  double best_err = std::numeric_limits<double>::infinity();
  const RegressorFactory* best_factory = nullptr;
  for (const auto& factory : factories) {
    // Bounded by the earlier factories' best: a partial error that reaches
    // it loses the strict `<` whatever the remaining folds would add.
    size_t skipped = 0;
    double err = KFoldRelativeError(factory, x, y, folds, best_err, &skipped);
    result.cv_folds_skipped += skipped;
    if (err < best_err) {
      best_err = err;
      best_factory = &factory;
    }
  }
  MUDI_CHECK(best_factory != nullptr);
  result.model = (*best_factory)();
  result.model->Fit(x, y);
  result.model_name = result.model->name();
  result.cv_error = best_err;
  return result;
}

std::vector<SharedSelectionResult> SelectBestModelsCached(
    const std::vector<RegressorFactory>& factories, const std::vector<FitTask>& tasks) {
  MUDI_CHECK(!factories.empty());
  std::vector<SharedSelectionResult> results(tasks.size());

  // Resolve cache hits first so only genuinely new datasets pay for CV.
  std::vector<size_t> pending;  // indices into tasks, ascending
  std::vector<FitFingerprint> keys(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const FitTask& task = tasks[i];
    MUDI_CHECK(task.x != nullptr && task.y != nullptr);
    keys[i] = FingerprintSamples(*task.x, *task.y, task.folds);
    if (std::shared_ptr<const CachedFit> hit = FitCache::Global().Find(keys[i])) {
      results[i].model = hit->model;
      results[i].model_name = hit->model_name;
      results[i].cv_error = hit->cv_error;
      results[i].from_cache = true;
    } else {
      pending.push_back(i);
    }
  }

  // One shard per pending task. SelectBestModel is a pure, internally seeded
  // function of the task's data, and each shard writes only its own slot.
  std::vector<ModelSelectionResult> fresh(pending.size());
  FitPool::ParallelFor(pending.size(), [&](size_t p) {
    const FitTask& task = tasks[pending[p]];
    fresh[p] = SelectBestModel(factories, *task.x, *task.y, task.folds);
  });

  // Fixed-order result and cache fill on the calling thread.
  for (size_t p = 0; p < pending.size(); ++p) {
    SharedSelectionResult& out = results[pending[p]];
    out.model = std::shared_ptr<const Regressor>(std::move(fresh[p].model));
    out.model_name = std::move(fresh[p].model_name);
    out.cv_error = fresh[p].cv_error;
    out.cv_folds_skipped = fresh[p].cv_folds_skipped;
    auto cached = std::make_shared<CachedFit>();
    cached->model = out.model;
    cached->model_name = out.model_name;
    cached->cv_error = out.cv_error;
    FitCache::Global().Insert(keys[pending[p]], std::move(cached));
  }
  return results;
}

}  // namespace mudi
