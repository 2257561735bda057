#include "src/replay/probe.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/replay/probe_key.h"
#include "src/workload/models.h"

namespace mudi {
namespace replay {

namespace {

// Swap slowdown `instance` would see with the device's inference replica at
// `inf_batch` (<= 0: as configured). A larger batch can force the task's
// working set to swap, and the Training Agent would observe those slower
// (paged) iterations, so the probe must anticipate that memory pressure.
double HypotheticalSwapFactor(const GpuDevice& dev, const TrainingInstance& instance,
                              const InferenceServiceSpec& service, int inf_batch) {
  TrainingInstance hypothetical = instance;
  if (inf_batch > 0) {
    double required = InferenceMemoryMb(service, inf_batch);
    for (const TrainingInstance& t : dev.trainings()) {
      required += t.mem_required_mb;
    }
    double deficit = std::max(0.0, required - dev.memory_mb());
    hypothetical.mem_swapped_mb = std::min(deficit, 0.85 * instance.mem_required_mb);
  }
  return SwapSlowdownFactor(hypothetical);
}

}  // namespace

void CollectColocation(const GpuDevice& dev, int exclude_task_id,
                       std::vector<ColocatedTraining>& out) {
  const auto& tasks = ModelZoo::TrainingTasks();
  out.clear();
  for (const TrainingInstance& t : dev.trainings()) {
    if (!t.paused && t.task_id != exclude_task_id) {
      out.push_back(ColocatedTraining{&tasks[t.type_index], t.gpu_fraction});
    }
  }
}

ProbePipeline::ProbePipeline(const PerfOracle& oracle, Rng& rng, ReplaySource* source,
                             DecisionRecorder* recorder)
    : oracle_(oracle), rng_(rng), source_(source), recorder_(recorder) {}

std::optional<double> ProbePipeline::Lookup(uint64_t key) {
  // A served answer leaves the oracle and rng_ untouched, so a fidelity
  // replay's noise stream stays aligned with the recorded run.
  return source_ != nullptr ? source_->TakeObservation(key) : std::nullopt;
}

void ProbePipeline::Record(ObsKind kind, const GpuDevice& dev, double sim_ms, uint64_t key,
                           double value) {
  if (recorder_ != nullptr) {
    recorder_->RecordObservation(kind, sim_ms, dev.id(), key, value);
  }
}

double ProbePipeline::InferenceLatencyMs(const GpuDevice& dev, double sim_ms, int batch,
                                         double gpu_fraction) {
  CollectColocation(dev, kNoTask, colocated_);
  const size_t service = dev.inference().service_index;
  const double scale = dev.EffectiveComputeScale();
  uint64_t key = 0;
  if (keyed()) {
    key = InferenceProbeKey(static_cast<uint32_t>(service), batch, gpu_fraction, colocated_,
                            scale);
    if (std::optional<double> recorded = Lookup(key)) {
      return *recorded;
    }
  }
  double lat = oracle_
                   .ObserveInferenceBatchLatency(ModelZoo::InferenceServices()[service], batch,
                                                 gpu_fraction, colocated_, rng_)
                   .total_ms() /
               scale;
  Record(ObsKind::kProbeInference, dev, sim_ms, key, lat);
  return lat;
}

double ProbePipeline::TrainingIterMs(const GpuDevice& dev, double sim_ms, double qps, int task_id,
                                     double train_fraction, int inf_batch, double inf_fraction) {
  const TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  const InferenceInstance& inference = dev.inference();
  InferenceLoad load;
  load.spec = &ModelZoo::InferenceServices()[inference.service_index];
  load.batch_size = inf_batch > 0 ? inf_batch : inference.batch_size;
  load.gpu_fraction = inf_fraction > 0.0 ? inf_fraction : inference.gpu_fraction;
  load.qps = qps;

  CollectColocation(dev, task_id, colocated_);
  double clamped =
      std::clamp(train_fraction > 0.0 ? train_fraction : instance->gpu_fraction, 0.02, 1.0);
  double swap_factor = HypotheticalSwapFactor(dev, *instance, *load.spec, inf_batch);
  const double scale = dev.EffectiveComputeScale();
  uint64_t key = 0;
  if (keyed()) {
    key = TrainingProbeKey(static_cast<uint32_t>(instance->type_index), clamped,
                           static_cast<uint32_t>(inference.service_index), load.batch_size,
                           load.gpu_fraction, load.qps, colocated_, swap_factor, scale);
    if (std::optional<double> recorded = Lookup(key)) {
      return *recorded;
    }
  }
  double iter = oracle_.ObserveTrainingIterationMs(
      ModelZoo::TrainingTasks()[instance->type_index], clamped, load, colocated_, rng_);
  double result = iter * swap_factor / scale;
  Record(ObsKind::kProbeTraining, dev, sim_ms, key, result);
  return result;
}

}  // namespace replay
}  // namespace mudi
