#include "src/core/interference_modeler.h"

#include <cmath>

#include "src/common/check.h"
#include "src/workload/models.h"

namespace mudi {

const char* CurveParamName(CurveParam param) {
  switch (param) {
    case CurveParam::kK1:
      return "k1";
    case CurveParam::kK2:
      return "k2";
    case CurveParam::kCutoffX:
      return "delta0";
    case CurveParam::kCutoffY:
      return "l0";
  }
  return "?";
}

InterferenceModeler::InterferenceModeler()
    : per_service_(ModelZoo::InferenceServices().size()) {}

std::vector<double> InterferenceModeler::EncodeFeatures(const NetworkArchitecture& arch,
                                                        int batch) {
  std::vector<double> features = arch.ToFeatureVector();
  features.push_back(std::log2(static_cast<double>(batch)));
  return features;
}

void InterferenceModeler::AddSample(const ProfiledCurve& curve) {
  if (curve.key.training_types.empty()) {
    return;  // solo curves carry no interference signal
  }
  MUDI_CHECK_LT(curve.key.service_index, per_service_.size());
  const auto& tasks = ModelZoo::TrainingTasks();
  NetworkArchitecture cumulative;
  for (size_t type : curve.key.training_types) {
    MUDI_CHECK_LT(type, tasks.size());
    cumulative = cumulative.Plus(tasks[type].arch);
  }
  ServiceModels& sm = per_service_[curve.key.service_index];
  sm.x.push_back(EncodeFeatures(cumulative, curve.key.batch));
  // Slopes and levels span orders of magnitude across batching sizes, so
  // the learners regress log-magnitudes (slopes are <= 0 by construction);
  // Predict() inverts the transform.
  sm.y[static_cast<size_t>(CurveParam::kK1)].push_back(
      std::log(std::max(-curve.model.k1, 1e-3)));
  sm.y[static_cast<size_t>(CurveParam::kK2)].push_back(
      std::log(std::max(-curve.model.k2, 1e-3)));
  sm.y[static_cast<size_t>(CurveParam::kCutoffX)].push_back(curve.model.x0);
  sm.y[static_cast<size_t>(CurveParam::kCutoffY)].push_back(
      std::log(std::max(curve.model.y0, 1e-3)));
  fitted_ = false;
}

void InterferenceModeler::AddSamplesFromProfiler(const LatencyProfiler& profiler) {
  for (const auto& [key, curve] : profiler.curves()) {
    AddSample(curve);
  }
}

void InterferenceModeler::Fit(size_t folds) {
  auto zoo = DefaultRegressorZoo();
  // Flatten every (service, param) selection into one batch so the cache
  // lookup and the worker-pool fan-out see all shards at once. Slot order is
  // the service/param iteration order, which fixes the reduction order.
  std::vector<FitTask> tasks;
  std::vector<std::pair<ServiceModels*, size_t>> slots;
  for (auto& sm : per_service_) {
    if (sm.x.size() < 4) {
      continue;  // not enough co-location samples for this service yet
    }
    for (size_t p = 0; p < kNumCurveParams; ++p) {
      tasks.push_back(FitTask{&sm.x, &sm.y[p], folds});
      slots.emplace_back(&sm, p);
    }
  }
  std::vector<SharedSelectionResult> results = SelectBestModelsCached(zoo, tasks);
  last_fit_cached_ = 0;
  last_fit_computed_ = 0;
  last_fit_folds_skipped_ = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].first->model[slots[i].second] = results[i].model;
    slots[i].first->model_name[slots[i].second] = results[i].model_name;
    if (results[i].from_cache) {
      ++last_fit_cached_;
    } else {
      ++last_fit_computed_;
    }
    last_fit_folds_skipped_ += results[i].cv_folds_skipped;
  }
  fitted_ = true;
}

PiecewiseLinearModel InterferenceModeler::Predict(size_t service_index,
                                                  const NetworkArchitecture& arch,
                                                  int batch) const {
  MUDI_CHECK(fitted_);
  MUDI_CHECK_LT(service_index, per_service_.size());
  const ServiceModels& sm = per_service_[service_index];
  MUDI_CHECK(sm.model[0] != nullptr);
  auto features = EncodeFeatures(arch, batch);
  PiecewiseLinearModel model;
  model.k1 = -std::exp(sm.model[static_cast<size_t>(CurveParam::kK1)]->Predict(features));
  model.k2 = -std::exp(sm.model[static_cast<size_t>(CurveParam::kK2)]->Predict(features));
  model.x0 = sm.model[static_cast<size_t>(CurveParam::kCutoffX)]->Predict(features);
  model.y0 = std::exp(sm.model[static_cast<size_t>(CurveParam::kCutoffY)]->Predict(features));
  // Structural sanity: the cutoff must stay inside (0, 1); slopes of a
  // latency-vs-resources curve are non-positive.
  if (model.x0 < 0.05) {
    model.x0 = 0.05;
  } else if (model.x0 > 0.95) {
    model.x0 = 0.95;
  }
  if (model.k1 > 0.0) {
    model.k1 = 0.0;
  }
  if (model.k2 > 0.0) {
    model.k2 = 0.0;
  }
  return model;
}

size_t InterferenceModeler::num_samples(size_t service_index) const {
  MUDI_CHECK_LT(service_index, per_service_.size());
  return per_service_[service_index].x.size();
}

std::string InterferenceModeler::SelectedModelName(size_t service_index,
                                                   CurveParam param) const {
  MUDI_CHECK_LT(service_index, per_service_.size());
  return per_service_[service_index].model_name[static_cast<size_t>(param)];
}

}  // namespace mudi
