// The what-if probe pipeline (paper §5.3): the one implementation of
// SchedulingEnv::ProbeInferenceLatencyMs / ProbeTrainingIterMs.
//
// Both environments a policy runs against answer probes through it: the live
// harness (ClusterExperiment) with the experiment's oracle and probe stream,
// and counterfactual replay (ReplayEnv) with its private fallback oracle.
// Because the co-location list, the hypothetical-swap factor and the content
// key (probe_key.h) are built here once, the key a recorded run writes is
// the key a replay looks up by construction, not by keeping two copies equal.
//
// One probe runs these steps:
//   1. collect the unpaused co-resident trainings (for a training probe,
//      all but the probed task);
//   2. for a training probe, derive the hypothetical-swap factor of the
//      probed inference batch;
//   3. derive the content key, only when a source or recorder is attached
//      (an unrecorded live run never hashes);
//   4. serve the recorded answer when the source has one;
//   5. otherwise draw from the caller's oracle and noise stream,
//   6. divide by the device's effective compute scale,
//   7. and record the answer as an observation when a recorder is attached.
#ifndef SRC_REPLAY_PROBE_H_
#define SRC_REPLAY_PROBE_H_

#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/gpu/gpu_device.h"
#include "src/gpu/perf_oracle.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_source.h"

namespace mudi {
namespace replay {

// Sentinel for CollectColocation: exclude no task.
inline constexpr int kNoTask = -1;

// Replaces `out` with the unpaused trainings resident on `dev`, in residency
// order, skipping task `exclude_task_id`. Every spec pointer points into
// ModelZoo::TrainingTasks().
void CollectColocation(const GpuDevice& dev, int exclude_task_id,
                       std::vector<ColocatedTraining>& out);

class ProbePipeline {
 public:
  // `oracle` and `rng` answer what the source cannot and must outlive the
  // pipeline. `source` (may be null) is consulted first; `recorder` (may be
  // null) receives every answer drawn from the oracle.
  ProbePipeline(const PerfOracle& oracle, Rng& rng, ReplaySource* source,
                DecisionRecorder* recorder);

  // Latency of one inference batch of `batch` at `gpu_fraction` on `dev`.
  double InferenceLatencyMs(const GpuDevice& dev, double sim_ms, int batch, double gpu_fraction);

  // Iteration time of training `task_id` on `dev`. `qps` is the request rate
  // the device's inference load carries; a non-positive `train_fraction`,
  // `inf_batch` or `inf_fraction` keeps the device's current value.
  double TrainingIterMs(const GpuDevice& dev, double sim_ms, double qps, int task_id,
                        double train_fraction, int inf_batch, double inf_fraction);

 private:
  bool keyed() const { return source_ != nullptr || recorder_ != nullptr; }
  std::optional<double> Lookup(uint64_t key);
  void Record(ObsKind kind, const GpuDevice& dev, double sim_ms, uint64_t key, double value);

  const PerfOracle& oracle_;
  Rng& rng_;
  ReplaySource* source_;
  DecisionRecorder* recorder_;
  std::vector<ColocatedTraining> colocated_;  // reused by every probe
};

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_PROBE_H_
