// End-to-end cluster experiment: a discrete-event simulation of inference
// serving (request cohorts, batching, SLO windows) multiplexed with training
// tasks on a GPU cluster, driven by a pluggable MultiplexPolicy.
//
// This is the runtime counterpart of the paper's testbeds: every device
// hosts one inference-service replica (service s on device d where
// d % num_services == s) receiving its own Poisson/fluctuating request
// stream; training tasks arrive per the trace, wait in the scheduling queue,
// are placed by the policy, and progress at a speed set by the ground-truth
// oracle under the current co-location and configuration. The Memory
// Manager resolves device-memory overcommit by host swap for swap-capable
// policies.
#ifndef SRC_EXP_CLUSTER_EXPERIMENT_H_
#define SRC_EXP_CLUSTER_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/kv_store.h"
#include "src/cluster/policy.h"
#include "src/cluster/task_queue.h"
#include "src/common/rng.h"
#include "src/exp/control_plane.h"
#include "src/exp/metrics.h"
#include "src/exp/serving_replica.h"
#include "src/exp/training_runner.h"
#include "src/fault/control_fault_plan.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/gpu/perf_oracle.h"
#include "src/perf/perf_collector.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/probe.h"
#include "src/replay/replay_source.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/request_generator.h"
#include "src/workload/training_trace.h"

namespace mudi {

struct ExperimentOptions {
  int num_nodes = 3;
  int gpus_per_node = 4;
  size_t num_services = 6;
  // Rotates the device->service mapping: device d hosts service
  // (d % num_services + service_offset) % 6. With num_services=1 this pins
  // every device to one chosen service (single-service benches).
  size_t service_offset = 0;

  // Request-rate profile per (service_index, device_id); default constant
  // 200 QPS per replica (paper: mean inter-arrival 5 ms).
  std::function<std::shared_ptr<const QpsProfile>(size_t, int)> qps_factory;

  // Training workload: explicit trace wins over generated options.
  TrainingTraceOptions trace;
  std::vector<TrainingArrival> trace_override;

  QueuePolicy queue_policy = QueuePolicy::kFcfs;

  // 0 = run until all training tasks complete; otherwise hard stop.
  TimeMs horizon_ms = 0.0;
  // Liveness backstop for horizon_ms == 0: stop anyway after this much
  // virtual time (sustained-overload scenarios can leave training paused
  // indefinitely — §5.3.2's "until suitable resources become available").
  // ExperimentResult::stopped_by_backstop says when a run ended here.
  TimeMs max_sim_ms = 4.0 * kMsPerHour;

  // Arrival-cohort tick: 0 = auto (SLO/15 clamped to [5, 100] ms).
  TimeMs arrival_tick_ms = 0.0;

  // Deterministic fault schedule, armed when Run() starts. An empty plan
  // schedules nothing and leaves the run byte-identical to one without any
  // fault machinery.
  FaultPlan fault_plan;

  // Control-plane fault schedule (degraded KvStore watches/reads, partition
  // windows, watch loss, scheduler crashes), armed when Run() starts. While
  // the plan is non-empty the scheduler's inference configs travel through
  // the registry (Put + watch) instead of being applied directly; see
  // src/exp/control_plane.h. An empty plan adds zero events and zero
  // registry traffic.
  ControlFaultPlan ctrl_fault_plan;

  bool record_util_series = false;
  // Device id to trace for Fig. 16 (-1 = none).
  int trace_device_id = -1;

  uint64_t seed = 5;
  uint64_t oracle_seed = 42;

  // Telemetry sinks (off by default; env vars like MUDI_TRACE_FILE override —
  // see TelemetryOptions::ApplyEnvOverrides, applied in the constructor).
  TelemetryOptions telemetry;

  // Self-profiling collector (src/perf), not owned; null = run unprofiled.
  // Observe-only: attaching a collector must leave results bit-identical
  // (determinism_test pins this). The harness records scoped regions around
  // every policy decision ("policy.select_device", "policy.on_placed",
  // "policy.on_qps_change", "policy.initialize") and exports the simulator's
  // event totals at the end of Run().
  perf::PerfCollector* perf = nullptr;

  // Decision-trace recorder (src/replay), not owned; null = no recording.
  // Observe-only like perf: a recorded run must be bit-identical to an
  // unrecorded same-seed run (determinism_test pins this too). The harness
  // opens one decision scope per policy hook and streams every probe
  // observation and feedback read into it.
  replay::DecisionRecorder* recorder = nullptr;
  // Recorded-observation source (src/replay), not owned; non-null switches
  // the run to fidelity replay: probes and predictions are served from the
  // trace instead of the oracle, and Mudi's Initialize preloads recorded
  // curves instead of profiling.
  replay::ReplaySource* replay = nullptr;
};

// The wiring of one run: it places a ServingReplica on every device, hands
// training to a TrainingRunner and config delivery to a ControlPlane, arms
// the events, opens a decision scope around every policy hook, and
// aggregates the result.
class ClusterExperiment : public SchedulingEnv, public FaultSink {
 public:
  ClusterExperiment(ExperimentOptions options, MultiplexPolicy* policy);
  ~ClusterExperiment() override;

  // Runs the full experiment and returns the metrics.
  ExperimentResult Run();

  // --- SchedulingEnv ---
  TimeMs Now() const override;
  std::vector<GpuDevice>& devices() override;
  const GpuDevice& device(int device_id) const override;
  double MeasuredQps(int device_id) override;
  double MeasuredP99(int device_id) override;
  double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) override;
  double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction, int inf_batch,
                             double inf_fraction) override;
  void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) override;
  void ApplyTrainingFraction(int device_id, int task_id, double fraction) override;
  void SetTrainingPaused(int device_id, int task_id, bool paused) override;
  const PerfOracle& oracle() const override { return oracle_; }
  Telemetry* telemetry() override { return telemetry_.enabled() ? &telemetry_ : nullptr; }
  perf::PerfCollector* perf() override {
    return options_.perf != nullptr && options_.perf->enabled() ? options_.perf : nullptr;
  }
  replay::DecisionRecorder* recorder() override { return options_.recorder; }
  replay::ReplaySource* replay() override { return options_.replay; }

  // Total virtual time reached by the run (>= makespan; includes drain).
  // Bench_throughput divides this by wall time for sim-sec/wall-sec.
  TimeMs SimNowMs() const { return sim_.Now(); }

  const Telemetry& telemetry_sink() const { return telemetry_; }
  // Device registry (etcd-style): "/devices/<d>/status" plus one
  // "/devices/<d>/tasks/<task_id>" entry per resident training. A failed
  // device's subtree is deleted, so readers must handle missing keys.
  const KvStore& registry() const { return registry_; }

  // --- FaultSink (driven by the FaultInjector) ---
  void OnDeviceDown(int device_id, bool permanent, TimeMs now) override;
  void OnDeviceUp(int device_id, TimeMs now) override;
  void OnStragglerFactor(int device_id, double factor, TimeMs now) override;
  void OnFeedbackLost(int device_id, TimeMs now) override;
  void OnFeedbackRestored(int device_id, TimeMs now) override;

 private:
  // The device agent: applies a batch/GPU% pair (directly, or as the
  // endpoint of a delivered config watch event).
  void ApplyInferenceConfigDirect(int device_id, int batch, double gpu_fraction);
  void TryDispatchQueue();
  void OnTrainingComplete(int device_id, int task_id);
  void OnSchedulerRecovered();
  void UpdateTrainingSpeeds(int device_id);
  void MonitorTick();
  void UtilSampleTick();

  ExperimentOptions options_;
  MultiplexPolicy* policy_;
  Telemetry telemetry_;
  Simulator sim_;
  PerfOracle oracle_;
  ClusterState cluster_;
  Rng rng_;
  Rng probe_rng_;
  replay::ProbePipeline probes_;  // answers Probe* from oracle_/probe_rng_
  TaskQueue queue_;
  KvStore registry_;
  ServingContext serving_;
  std::vector<ServingReplica> replicas_;  // one per device, sized once
  TrainingRunner training_;
  ControlPlane control_;
  FaultInjector fault_injector_;

  // Cached perf-region stats (null when unprofiled): resolved once in the
  // constructor so each profiled decision costs a branch plus two clock
  // reads, and nothing at all when options_.perf is null.
  perf::LatencyStat* perf_select_stat_ = nullptr;
  perf::LatencyStat* perf_place_stat_ = nullptr;
  perf::LatencyStat* perf_qps_stat_ = nullptr;
  // Wall time of every SelectDevice call (Fig. 18).
  std::vector<double> placement_overheads_ms_;

  size_t tasks_remaining_ = 0;
  TimeMs first_arrival_ms_ = 0.0;
  std::vector<UtilSample> util_series_;
  std::vector<DeviceSeriesSample> device_series_;
  TimeMs last_util_sample_ms_ = 0.0;
};

}  // namespace mudi

#endif  // SRC_EXP_CLUSTER_EXPERIMENT_H_
