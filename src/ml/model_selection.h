// K-fold cross-validation and best-model selection. The Interference Modeler
// "determines the optimal model as the learner for each metric individually"
// (§4.1.2); this module implements that selection over the Regressor zoo.
#ifndef SRC_ML_MODEL_SELECTION_H_
#define SRC_ML_MODEL_SELECTION_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/ml/regressor.h"

namespace mudi {

// Mean |pred − true| / max(|true|, eps) over k-fold CV splits, summed in
// fold order. With a finite `bound`, once the running sum over n reaches it
// (checked before each fold) the remaining folds are skipped and that partial
// mean is returned: >= bound, <= the full error. `folds_skipped`, when given,
// receives the number of folds skipped.
double KFoldRelativeError(const RegressorFactory& factory,
                          const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y, size_t folds = 5,
                          double bound = std::numeric_limits<double>::infinity(),
                          size_t* folds_skipped = nullptr);

struct ModelSelectionResult {
  std::unique_ptr<Regressor> model;  // refit on all data
  std::string model_name;
  double cv_error = 0.0;
  size_t cv_folds_skipped = 0;  // folds the early exit did not fit
};

// Factories for the default candidate zoo: RF, SVR, kNN, Linear, MLP.
std::vector<RegressorFactory> DefaultRegressorZoo();

// Cross-validates the factories in order, each bounded by the best error
// before it (exact: DESIGN.md §12.3), and returns the one with the lowest
// error, refit on all data; an earlier factory wins a tie.
ModelSelectionResult SelectBestModel(const std::vector<RegressorFactory>& factories,
                                     const std::vector<std::vector<double>>& x,
                                     const std::vector<double>& y, size_t folds = 5);

// One independent selection problem in a batch; the pointed-to data must
// outlive the SelectBestModelsCached call.
struct FitTask {
  const std::vector<std::vector<double>>* x = nullptr;
  const std::vector<double>* y = nullptr;
  size_t folds = 5;
};

struct SharedSelectionResult {
  std::shared_ptr<const Regressor> model;  // winner refit on all data
  std::string model_name;
  double cv_error = 0.0;
  size_t cv_folds_skipped = 0;  // 0 for a cache hit
  bool from_cache = false;
};

// Batch counterpart of SelectBestModel: memoized through FitCache and
// parallelized through FitPool. Tasks already in the cache are returned
// immediately; each remaining task runs SelectBestModel as one pool shard
// and writes only its own slot, and the cache is filled in task order, so
// the returned vector is bit-identical for any MUDI_FIT_THREADS setting.
std::vector<SharedSelectionResult> SelectBestModelsCached(
    const std::vector<RegressorFactory>& factories, const std::vector<FitTask>& tasks);

}  // namespace mudi

#endif  // SRC_ML_MODEL_SELECTION_H_
