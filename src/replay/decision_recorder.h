// DecisionRecorder: the one sanctioned sink for decision-trace emission
// (mudi_lint's mudi-trace-sink check rejects ad-hoc writers elsewhere).
//
// The recorder is attached to a run the way Telemetry and PerfCollector are:
// an optional pointer the harness and policies consult, observe-only by
// contract — attaching one must not perturb a single simulated event
// (determinism_test RecordObserveOnlyTest pins bit-identical results for all
// six policies with a recorder attached).
//
// Causality model: one global sequence number orders every decision,
// observation, prediction, and feedback read. Observations made while a
// decision is open belong to that decision (they carry later seq numbers
// than the decision's BeginDecision seq but precede its EndDecision write,
// which is when the decision record is serialized). trace_diff aligns two
// traces on these sequence numbers.
#ifndef SRC_REPLAY_DECISION_RECORDER_H_
#define SRC_REPLAY_DECISION_RECORDER_H_

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/replay_hooks.h"
#include "src/common/status.h"
#include "src/common/wallclock.h"
#include "src/gpu/gpu_device.h"
#include "src/replay/decision_trace.h"

namespace mudi {
namespace replay {

// Full decision-time state of one device, built from the live GpuDevice.
SnapshotDevice MakeSnapshotDevice(const GpuDevice& dev);

// Implements DecisionSink (src/cluster/replay_hooks.h) so the policy layer
// can record curves, predictions, and candidate scores without an up-layer
// include of this header.
class DecisionRecorder : public DecisionSink {
 public:
  // Opens `path` for writing and emits the header line. Fails if the file
  // cannot be created.
  static StatusOr<std::unique_ptr<DecisionRecorder>> Create(const std::string& path,
                                                            const TraceHeader& header);
  ~DecisionRecorder();

  DecisionRecorder(const DecisionRecorder&) = delete;
  DecisionRecorder& operator=(const DecisionRecorder&) = delete;

  // --- run-static records ----------------------------------------------------
  void RecordDeviceTable(const std::vector<DeviceTableEntry>& table);
  void RecordCurve(const TraceCurve& curve) override;
  void RecordRunSummary(const TraceRunSummary& summary);

  // --- decision lifecycle ----------------------------------------------------
  // Opens a decision scope; at most one may be open at a time. Returns the
  // decision's causal sequence number.
  uint64_t BeginDecision(HookKind hook, double sim_ms, int device_id = -1, int task_id = -1,
                         int type_index = -1);
  bool decision_open() const override { return decision_open_; }

  void AddSnapshotDevice(const SnapshotDevice& dev);
  void AddCandidate(int device_id, double score) override;
  void SetChosenDevice(int device_id);
  void AddDisplaced(int task_id, uint32_t type_index);
  // Actions the policy took through the SchedulingEnv during this decision.
  void AddAction(ActionKind kind, int device_id, int arg, double value);
  // Serializes and writes the open decision. `wall_us` is the measured
  // wall-clock decision latency.
  void EndDecision(double wall_us);

  // --- streamed records (valid inside or outside a decision scope) -----------
  void RecordObservation(ObsKind kind, double sim_ms, int device_id, uint64_t key, double value);
  void RecordPrediction(uint32_t service_index, int batch, const std::vector<uint32_t>& sorted_mix,
                        double k1, double k2, double x0, double y0) override;
  void RecordQpsFeedback(double sim_ms, int device_id, bool is_p99, double value);

  // Writes the end-of-trace marker and closes the file. Idempotent; the
  // destructor calls it as a safety net (ignoring the result).
  Status Close();

  uint64_t decisions_recorded() const { return decisions_recorded_; }
  uint64_t observations_recorded() const { return observations_recorded_; }
  const std::string& path() const { return path_; }

 private:
  DecisionRecorder(const std::string& path, const TraceHeader& header);

  void FlushIfLarge();

  std::string path_;
  std::ofstream out_;
  TraceWriter writer_;

  uint64_t next_seq_ = 0;
  bool decision_open_ = false;
  TraceDecision current_;
  uint64_t decisions_recorded_ = 0;
  uint64_t observations_recorded_ = 0;
  bool finished_ = false;
};

// RAII decision scope around one policy hook, shared by the live harness and
// counterfactual replay: opens the recorder's decision, snapshots the state
// the policy can observe (all devices for cluster-wide hooks, just the target
// for per-device ones), and measures the hook's wall latency. A null recorder
// makes the whole scope a no-op — the timer is not even started, so an
// unrecorded run never reads the clock here.
class DecisionScope {
 public:
  enum class Snapshot { kNone, kDevice, kAll };

  DecisionScope(DecisionRecorder* recorder, const std::vector<GpuDevice>& devices, HookKind hook,
                double sim_ms, Snapshot snapshot, int device_id = -1, int task_id = -1,
                int type_index = -1);
  ~DecisionScope();

  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

  DecisionRecorder* recorder() { return recorder_; }

 private:
  DecisionRecorder* recorder_;
  WallTimer timer_{WallTimer::Unstarted{}};
};

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_DECISION_RECORDER_H_
