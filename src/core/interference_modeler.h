// Interference Modeler (paper §4.1.2, module ② of Fig. 6).
//
// Learns, per inference service, the mapping from (co-located training
// network architecture, inference batching size) to the parameters of the
// piece-wise linear latency function: Y = [k1, k2, Δ0, l0]. One lightweight
// model is trained per output metric, and the best model family (RF, SVR,
// kNN, Linear, MLP) is selected per metric by cross-validation. The model is
// incrementally updatable as new co-locations are profiled (Fig. 12).
#ifndef SRC_CORE_INTERFERENCE_MODELER_H_
#define SRC_CORE_INTERFERENCE_MODELER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/core/latency_profiler.h"
#include "src/ml/model_selection.h"
#include "src/ml/piecewise_linear.h"
#include "src/workload/layers.h"

namespace mudi {

// The four predicted curve parameters.
enum class CurveParam : size_t { kK1 = 0, kK2, kCutoffX, kCutoffY };
inline constexpr size_t kNumCurveParams = 4;
const char* CurveParamName(CurveParam param);

class InterferenceModeler {
 public:
  InterferenceModeler();

  // Adds a profiled curve as a training sample for its service. The feature
  // is the cumulative layer census of the curve's co-located training tasks
  // plus the batching size; solo curves (no training) are skipped.
  void AddSample(const ProfiledCurve& curve);
  void AddSamplesFromProfiler(const LatencyProfiler& profiler);

  // (Re)trains the per-service, per-parameter learners; call after adding
  // samples. `folds` controls the model-selection cross-validation. Fits are
  // memoized process-wide (FitCache) and fanned out deterministically
  // (FitPool) — see SelectBestModelsCached.
  void Fit(size_t folds = 5);

  // Shard accounting for the most recent Fit(): how many (service, param)
  // selections were served from the cache vs computed fresh, and how many CV
  // folds the fresh selections' early exit skipped. Observational, and a
  // pure function of the data, so equal for every MUDI_FIT_THREADS.
  size_t last_fit_cached() const { return last_fit_cached_; }
  size_t last_fit_computed() const { return last_fit_computed_; }
  size_t last_fit_folds_skipped() const { return last_fit_folds_skipped_; }

  // Predicts the piece-wise linear latency curve for `service_index` when
  // co-located with training task(s) of cumulative architecture `arch` at
  // batching size `batch`. Requires Fit() first.
  PiecewiseLinearModel Predict(size_t service_index, const NetworkArchitecture& arch,
                               int batch) const;

  bool fitted() const { return fitted_; }
  size_t num_samples(size_t service_index) const;

  // Name of the selected model family for (service, param) — Fig. 11 labels.
  std::string SelectedModelName(size_t service_index, CurveParam param) const;

  // Feature encoding shared with tests: 11 layer counts + log2(batch).
  static std::vector<double> EncodeFeatures(const NetworkArchitecture& arch, int batch);

 private:
  struct ServiceModels {
    std::vector<std::vector<double>> x;
    std::array<std::vector<double>, kNumCurveParams> y;
    // Shared because fitted models are immutable (Predict is const) and may
    // be held jointly by this modeler and the process-global FitCache.
    std::array<std::shared_ptr<const Regressor>, kNumCurveParams> model;
    std::array<std::string, kNumCurveParams> model_name;
  };

  std::vector<ServiceModels> per_service_;
  bool fitted_ = false;
  size_t last_fit_cached_ = 0;
  size_t last_fit_computed_ = 0;
  size_t last_fit_folds_skipped_ = 0;
};

}  // namespace mudi

#endif  // SRC_CORE_INTERFERENCE_MODELER_H_
