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

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/kv_store.h"
#include "src/cluster/monitor.h"
#include "src/cluster/policy.h"
#include "src/cluster/task_queue.h"
#include "src/common/rng.h"
#include "src/sim/retry.h"
#include "src/core/memory_manager.h"
#include "src/exp/metrics.h"
#include "src/fault/control_fault_injector.h"
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
  TimeMs max_sim_ms = 4.0 * kMsPerHour;
  // Extra time simulated after the last completion (lets SLO windows close).
  TimeMs drain_ms = 5.0 * kMsPerSecond;

  TimeMs monitor_period_ms = 2.0 * kMsPerSecond;
  // Forced per-device re-tune period: the 50% QPS-change threshold is an
  // edge trigger and can latch a transient rate (e.g. mid-burst decay);
  // periodic reconciliation bounds how long a stale config can persist.
  TimeMs periodic_retune_ms = 30.0 * kMsPerSecond;
  TimeMs slo_window_ms = 10.0 * kMsPerSecond;
  TimeMs util_sample_ms = 1.0 * kMsPerSecond;
  // Shadow-instance switchover for GPU% reconfiguration (§5.3.2).
  TimeMs reconfig_latency_ms = 1.5 * kMsPerSecond;

  // Arrival-cohort tick: 0 = auto (SLO/15 clamped to [5, 100] ms).
  TimeMs arrival_tick_ms = 0.0;

  // Deterministic fault schedule, armed when Run() starts. An empty plan
  // schedules nothing and leaves the run byte-identical to one without any
  // fault machinery.
  FaultPlan fault_plan;
  // Periodic training-checkpoint interval: a task displaced by a device
  // failure resumes from its last checkpoint (progress since then is lost).
  TimeMs checkpoint_period_ms = 60.0 * kMsPerSecond;

  // Control-plane fault schedule (degraded KvStore watches/reads, partition
  // windows, watch loss, scheduler crashes), armed when Run() starts. While
  // the plan is non-empty the scheduler's inference configs travel through
  // the registry (Put + watch) instead of being applied directly, and its
  // reads route through CtrlGet/CtrlList + retry. An empty plan adds zero
  // events and zero registry traffic: the run stays byte-identical to one
  // without any control-fault machinery (ctrl_fault_test pins this).
  ControlFaultPlan ctrl_fault_plan;
  // Scheduler state-checkpoint period while the control fault domain is
  // active: the coordinator heartbeats its epoch into the registry so the
  // recovery scan can tell how stale its view is.
  TimeMs ctrl_checkpoint_period_ms = 10.0 * kMsPerSecond;
  // Backoff discipline for control-plane reads and watch re-establishment.
  RetryPolicy ctrl_retry;

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

class ClusterExperiment : public SchedulingEnv, public FaultSink, public ControlFaultSink {
 public:
  ClusterExperiment(ExperimentOptions options, MultiplexPolicy* policy);
  ~ClusterExperiment() override;

  // Runs the full experiment and returns the metrics.
  ExperimentResult Run();

  // --- SchedulingEnv ---
  TimeMs Now() const override;
  std::vector<GpuDevice>& devices() override;
  const GpuDevice& device(int device_id) const override;
  const InferenceServiceSpec& ServiceOnDevice(int device_id) const override;
  double MeasuredQps(int device_id) override;
  double MeasuredP99(int device_id) override;
  double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) override;
  double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction, int inf_batch,
                             double inf_fraction) override;
  void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) override;
  void ApplyTrainingFraction(int device_id, int task_id, double fraction) override;
  void SetTrainingPaused(int device_id, int task_id, bool paused) override;
  bool CanFitTraining(int device_id, const TrainingTaskSpec& spec) const override;
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

  const PerfOracle& ground_truth() const { return oracle_; }
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

  // --- ControlFaultSink (driven by the ControlFaultInjector) ---
  void OnKvPartitionStart(TimeMs now) override;
  void OnKvPartitionEnd(TimeMs now) override;
  void OnWatchesLost(TimeMs now) override;
  void OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) override;

  // Whether the scheduler process is up (always true without a control
  // fault plan; exposed for tests).
  bool scheduler_up() const { return scheduler_up_; }

 private:
  struct Cohort {
    TimeMs arrival_ms;
    double count;
  };

  struct Replica {
    std::shared_ptr<const QpsProfile> qps;
    QpsMonitor monitor;
    std::deque<Cohort> queue;
    double queued = 0.0;
    bool busy = false;
    TimeMs busy_start = 0.0;
    TimeMs busy_accum_ms = 0.0;  // busy time since last util sample
    Simulator::EventId timeout_event = Simulator::kInvalidEventId;
    // In-flight batch: its completion event and the request cohorts it
    // carries, so a device failure can fail them instead of losing them.
    // TryStartBatch forms the batch here and FinishBatch (or a failure)
    // empties it; the capacity is kept for the next batch.
    Simulator::EventId batch_event = Simulator::kInvalidEventId;
    std::vector<std::pair<TimeMs, double>> inflight;  // (arrival, count)
    // Pending GPU% reconfiguration (shadow instance warming up).
    std::optional<std::pair<int, double>> pending_config;
    Simulator::EventId pending_event = Simulator::kInvalidEventId;
    // Per-device periodic events, cancellable at failure time.
    Simulator::EventId arrival_event = Simulator::kInvalidEventId;
    Simulator::EventId slo_event = Simulator::kInvalidEventId;
    // While the device is down its traffic fails over to surviving replicas.
    Simulator::EventId failover_event = Simulator::kInvalidEventId;
    size_t reroute_cursor = 0;  // deterministic round-robin over survivors
    // SLO window accounting. Weights are request counts (whole numbers),
    // which WeightedP99 needs to match a sort exactly.
    std::vector<std::pair<double, double>> window_latencies;  // (latency, weight)
    // Failure touched this window (failed/re-routed requests landed in it):
    // a violation is attributed to the fault, not to load.
    bool window_failure_tainted = false;
    size_t windows_total = 0;
    size_t windows_violated = 0;
    size_t windows_violated_failure = 0;
    double latency_weighted_sum = 0.0;
    double served = 0.0;
    // Swap-time accounting.
    double swapped_time_ms = 0.0;
    double observed_time_ms = 0.0;
    TimeMs last_trigger_ms = 0.0;
  };

  struct RunningTask {
    int device_id = -1;
    double speed = 0.0;  // full-GPU work ms per wall ms
    TimeMs last_sync_ms = 0.0;
    Simulator::EventId completion_event = Simulator::kInvalidEventId;
    // Periodic-checkpoint state: the exact work level at the last checkpoint
    // boundary, maintained lazily in SyncTrainingProgress (speed is constant
    // between syncs, so boundary crossings are computed analytically).
    TimeMs next_checkpoint_ms = 0.0;
    double work_at_checkpoint = 0.0;
  };

  // --- serving path ---
  void ArrivalTick(int device_id);
  void TryStartBatch(int device_id);
  void FinishBatch(int device_id, double latency_ms);
  TimeMs WaitTimeoutMs(int device_id) const;
  TimeMs ArrivalTickMs(int device_id) const;
  void CloseSloWindow(int device_id);

  // --- fault path ---
  // Hands a cohort of the failed device's service to a surviving replica
  // (round-robin), or counts it failed when none survives.
  void RouteCohort(int failed_device, const Cohort& cohort);
  // Poisson arrivals for a down replica, re-routed to survivors.
  void FailoverArrivalTick(int failed_device);
  // Checkpoint-rollback + requeue of every training on a dying device.
  std::vector<TrainingTaskInfo> DisplaceTrainings(int device_id, TimeMs now);
  std::string DeviceStatusKey(int device_id) const;
  std::string DeviceTaskKey(int device_id, int task_id) const;

  // --- control-plane path (active only with a non-empty ctrl_fault_plan) ---
  std::string SchedConfigKey(int device_id) const;
  // Turns on the degraded registry, registers per-device config watches,
  // arms the control injector, and starts the coordinator heartbeat.
  void StartControlPlane();
  // Applies a batch/GPU% pair on the device agent (the pre-control-plane
  // direct path; also the endpoint of a delivered config watch event).
  void ApplyInferenceConfigDirect(int device_id, int batch, double gpu_fraction);
  // Watch endpoint: parse, guard revision monotonicity, apply.
  void OnConfigDelivered(int device_id, const std::string& value, uint64_t revision);
  void RegisterConfigWatch(int device_id);
  // Catch-up read of a device's config through the control path (used after
  // partitions heal and watches re-establish).
  Status CatchUpConfig(int device_id);
  // The recovery scan: reconstruct the scheduler's view from the registry.
  Status AttemptSchedulerRecovery();
  void FinishSchedulerRecovery();

  // --- training path ---
  void OnTrainingArrival(const TrainingArrival& arrival);
  void TryDispatchQueue();
  void PlaceTask(const TrainingArrival& arrival, int device_id);
  void SyncTrainingProgress(int device_id, int task_id);
  void UpdateTrainingSpeeds(int device_id);
  void OnTrainingComplete(int device_id, int task_id);

  // --- periodic ---
  void MonitorTick();
  void UtilSampleTick();

  InferenceLoad CurrentInferenceLoad(int device_id);
  void RebalanceMemory(int device_id);

  ExperimentOptions options_;
  MultiplexPolicy* policy_;
  Telemetry telemetry_;
  Simulator sim_;
  PerfOracle oracle_;
  ClusterState cluster_;
  Rng rng_;
  Rng probe_rng_;
  replay::ProbePipeline probes_;  // answers Probe* from oracle_/probe_rng_
  MemoryManager memory_manager_;
  TaskQueue queue_;
  KvStore registry_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<ControlFaultInjector> ctrl_injector_;

  // Cached perf-region stats (null when unprofiled): resolved once in the
  // constructor so each profiled decision costs a branch plus two clock
  // reads, and nothing at all when options_.perf is null.
  perf::LatencyStat* perf_select_stat_ = nullptr;
  perf::LatencyStat* perf_place_stat_ = nullptr;
  perf::LatencyStat* perf_qps_stat_ = nullptr;

  // Serving and SLO-window metric handles, resolved once in the constructor
  // when telemetry is enabled (null otherwise), so no batch or window close
  // looks a metric up by name.
  telemetry::Counter* batches_counter_ = nullptr;
  telemetry::Counter* requests_counter_ = nullptr;
  telemetry::Counter* shed_counter_ = nullptr;
  telemetry::Histogram* batch_latency_hist_ = nullptr;
  telemetry::Counter* windows_total_counter_ = nullptr;
  telemetry::Counter* windows_violated_counter_ = nullptr;
  telemetry::Counter* windows_violated_failure_counter_ = nullptr;

  // Co-location buffer for batch service and training-speed updates.
  std::vector<ColocatedTraining> colocation_;

  std::vector<Replica> replicas_;
  std::map<int, RunningTask> running_;          // task_id -> runtime state
  std::map<int, TaskRecord> task_records_;      // task_id -> record
  size_t tasks_remaining_ = 0;
  TimeMs last_completion_ms_ = 0.0;
  TimeMs first_arrival_ms_ = 0.0;

  std::vector<UtilSample> util_series_;
  std::vector<DeviceSeriesSample> device_series_;
  TimeMs last_util_sample_ms_ = 0.0;

  // Fault/recovery accounting.
  size_t trainings_displaced_ = 0;
  size_t trainings_replaced_ = 0;
  double work_lost_ms_ = 0.0;
  double failed_requests_ = 0.0;
  double rerouted_requests_ = 0.0;
  double replacement_time_sum_ms_ = 0.0;
  std::map<int, TimeMs> displaced_at_;  // task_id -> displacement time

  // Control-plane fault state (inert without a ctrl fault plan).
  bool ctrl_enabled_ = false;
  bool scheduler_up_ = true;
  TimeMs scheduler_crashed_at_ = 0.0;
  size_t scheduler_recoveries_ = 0;
  double recovery_ms_sum_ = 0.0;
  size_t configs_published_ = 0;
  size_t configs_applied_ = 0;
  size_t stale_scan_entries_ = 0;
  uint64_t ckpt_epoch_ = 0;
  std::vector<KvStore::WatchId> config_watches_;   // per device; 0 = none
  std::vector<uint64_t> config_applied_rev_;       // monotonic delivery guard
  // Highest publication sequence number applied per device: catch-up reads
  // re-deliver the same publication, and this keeps configs_applied_ a true
  // count of publications that reached the device (never double-counted).
  std::vector<uint64_t> config_applied_seq_;
  // Retriers for the two retried control flows. Constructed in
  // StartControlPlane so fault-free runs never touch them.
  std::unique_ptr<Retrier> recovery_retrier_;
  std::unique_ptr<Retrier> watch_retrier_;
};

}  // namespace mudi

#endif  // SRC_EXP_CLUSTER_EXPERIMENT_H_
