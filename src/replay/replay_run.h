// Counterfactual replay (mode C): re-run the *decision stream* of a recorded
// trace against a different (or the same) policy, with NO simulation at all.
//
// The ReplayEnv reconstructs cluster state from the per-decision snapshots,
// serves monitor feedback from the recorded feedback stream, and answers
// what-if probes from the trace's content-addressed observations (falling
// back to a private PerfOracle on a miss). Each recorded decision is
// dispatched to the what-if policy's matching hook; the actions it takes are
// compared bitwise against the recorded ones, and the first divergent
// decision is reported. Because neither the data plane nor the event queue
// exists here, a counterfactual run costs only the policy's own decision
// arithmetic — the ≥5x what-if speedup the replay gate measures.
//
// State strictly tracks the *recorded* run: a diverging what-if choice is
// reported, but the next decision still replays from the recorded snapshot.
// That keeps every later comparison meaningful (first divergence is exact;
// later ones are "given the recorded history").
#ifndef SRC_REPLAY_REPLAY_RUN_H_
#define SRC_REPLAY_REPLAY_RUN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/policy.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/gpu/gpu_device.h"
#include "src/gpu/perf_oracle.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/probe.h"
#include "src/replay/replay_source.h"

namespace mudi {
namespace replay {

struct WhatIfOptions {
  // Optional trace output for the what-if run (decisions + candidate sets,
  // no snapshots, no run summary): feed it to trace_diff against the source
  // trace. Not owned; the caller finishes it.
  DecisionRecorder* recorder = nullptr;
};

struct WhatIfResult {
  uint64_t decisions_replayed = 0;
  uint64_t diverged_decisions = 0;
  bool diverged = false;
  uint64_t first_divergence_seq = 0;
  std::string first_divergence_detail;
  // ReplaySource counters after the run: hit share proves how much of the
  // what-if was answered from the trace instead of recomputed.
  uint64_t probe_hits = 0;
  uint64_t probe_sticky_hits = 0;
  uint64_t probe_misses = 0;
};

// The SchedulingEnv a counterfactual policy runs against. Public mainly for
// tests; RunWhatIf drives it.
class ReplayEnv : public SchedulingEnv {
 public:
  // `source` outlives the env. `whatif_recorder` may be null.
  ReplayEnv(ReplaySource& source, DecisionRecorder* whatif_recorder);

  // --- stream driving (RunWhatIf) ---
  // Consumes feedback records with seq < bound into the per-device
  // latest-QPS/P99 registers.
  void AdvanceFeedback(uint64_t seq_bound);
  // Overwrites device state from the decision's snapshot (all devices or
  // just the target) and sets the env clock to the decision's sim time.
  void ApplyDecisionState(const TraceDecision& decision);
  // Actions the policy took since the last call (cleared on read).
  std::vector<TraceAction> TakeActions();

  // --- SchedulingEnv ---
  TimeMs Now() const override { return now_ms_; }
  std::vector<GpuDevice>& devices() override { return devices_; }
  const GpuDevice& device(int device_id) const override;
  double MeasuredQps(int device_id) override;
  double MeasuredP99(int device_id) override;
  double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) override;
  double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction, int inf_batch,
                             double inf_fraction) override;
  void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) override;
  void ApplyTrainingFraction(int device_id, int task_id, double fraction) override;
  void SetTrainingPaused(int device_id, int task_id, bool paused) override;
  const PerfOracle& oracle() const override { return fallback_oracle_; }
  DecisionRecorder* recorder() override { return whatif_recorder_; }
  ReplaySource* replay() override { return &source_; }

 private:
  GpuDevice& mutable_device(int device_id);
  void RecordAction(ActionKind kind, int device_id, int arg, double value);

  ReplaySource& source_;
  DecisionRecorder* whatif_recorder_;
  std::vector<GpuDevice> devices_;
  std::vector<double> latest_qps_;
  std::vector<double> latest_p99_;
  size_t feedback_cursor_ = 0;
  TimeMs now_ms_ = 0.0;
  std::vector<TraceAction> actions_;
  // Probe-miss fallback: a private oracle seeded like the recorded run's,
  // with its own noise stream (misses are approximate by construction).
  PerfOracle fallback_oracle_;
  Rng fallback_rng_;
  ProbePipeline probes_;  // answers Probe* from source_, then the fallback
};

// Replays every recorded decision through `policy`. The policy must be
// freshly constructed (its Initialize runs against the trace's curve store).
StatusOr<WhatIfResult> RunWhatIf(ReplaySource& source, MultiplexPolicy& policy,
                                 const WhatIfOptions& options = {});

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_REPLAY_RUN_H_
