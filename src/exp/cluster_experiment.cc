#include "src/exp/cluster_experiment.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/wallclock.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_source.h"

namespace mudi {
namespace {

using replay::DecisionScope;

constexpr double kDefaultReplicaQps = 200.0;  // mean inter-arrival 5 ms (§7.1)
constexpr double kInitialInferenceFraction = 0.5;
constexpr int kInitialBatch = 64;
constexpr TimeMs kMonitorPeriodMs = 2.0 * kMsPerSecond;
constexpr TimeMs kUtilSampleMs = 1.0 * kMsPerSecond;
// Forced per-device re-tune period: the 50% QPS-change threshold is an edge
// trigger and can latch a transient rate (e.g. mid-burst decay); periodic
// reconciliation bounds how long a stale config can persist.
constexpr TimeMs kPeriodicRetuneMs = 30.0 * kMsPerSecond;
// Shadow-instance switchover for GPU% reconfiguration (§5.3.2).
constexpr TimeMs kReconfigLatencyMs = 1.5 * kMsPerSecond;
// Extra time simulated after the last completion (lets SLO windows close).
constexpr TimeMs kDrainMs = 5.0 * kMsPerSecond;

// The serving configuration a replica starts (and restarts) with.
InferenceInstance InitialInference(size_t service_index) {
  InferenceInstance instance;
  instance.service_index = service_index;
  instance.batch_size = kInitialBatch;
  instance.gpu_fraction = kInitialInferenceFraction;
  instance.mem_required_mb =
      InferenceMemoryMb(ModelZoo::InferenceServices()[service_index], kInitialBatch);
  return instance;
}

}  // namespace

ClusterExperiment::ClusterExperiment(ExperimentOptions options, MultiplexPolicy* policy)
    : options_(std::move(options)),
      policy_(policy),
      telemetry_([this] {
        TelemetryOptions t = options_.telemetry;
        t.ApplyEnvOverrides();
        return t;
      }()),
      oracle_(options_.oracle_seed),
      cluster_(options_.num_nodes, NodeSpec{options_.gpus_per_node, ModelZoo::kGpuMemoryMb}),
      rng_(options_.seed),
      probe_rng_(options_.seed ^ 0xABCDEFull),
      probes_(oracle_, probe_rng_, options_.replay, options_.recorder),
      queue_(options_.queue_policy),
      serving_(sim_, rng_, oracle_, telemetry_, options_.arrival_tick_ms),
      training_(sim_, oracle_, registry_, queue_, telemetry_,
                static_cast<int>(cluster_.num_devices()), serving_.colocation,
                policy_ != nullptr && policy_->SupportsMemorySwap(),
                [this](int device_id, int task_id) { OnTrainingComplete(device_id, task_id); }),
      control_(
          sim_, registry_, cluster_, telemetry_,
          [this](int device_id, int batch, double gpu_fraction) {
            ApplyInferenceConfigDirect(device_id, batch, gpu_fraction);
          },
          [this] { OnSchedulerRecovered(); }),
      fault_injector_(&sim_, this, static_cast<int>(cluster_.num_devices()), options_.num_nodes,
                      &telemetry_) {
  MUDI_CHECK(policy_ != nullptr);
  MUDI_CHECK_GT(options_.num_services, 0u);
  MUDI_CHECK_LE(options_.num_services, ModelZoo::InferenceServices().size());
  // Place one inference replica per device, service round-robin.
  replicas_.resize(cluster_.num_devices());
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    size_t service_index = (d % options_.num_services + options_.service_offset) %
                           ModelZoo::InferenceServices().size();
    cluster_.device(d).PlaceInference(InitialInference(service_index));
    replicas_[d].qps = options_.qps_factory
                           ? options_.qps_factory(service_index, static_cast<int>(d))
                           : std::make_shared<ConstantQps>(kDefaultReplicaQps);
    registry_.Put(DeviceStatusKey(static_cast<int>(d)), "up");
  }

  // Self-profiling wiring: resolve the per-decision region stats once; a
  // null collector leaves the cached pointers null and every region a no-op.
  if (perf::PerfCollector* collector = perf()) {
    perf_select_stat_ = &collector->GetRegionStat("policy.select_device");
    perf_place_stat_ = &collector->GetRegionStat("policy.on_placed");
    perf_qps_stat_ = &collector->GetRegionStat("policy.on_qps_change");
  }

  // Telemetry wiring: every instrumented component checks enabled() itself
  // and keeps a null sink otherwise, so this is safe unconditionally.
  sim_.SetTelemetry(&telemetry_);
  oracle_.SetTelemetry(&telemetry_);
  queue_.SetTelemetry(&telemetry_);
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    cluster_.device(d).SetTelemetry(&telemetry_);
    replicas_[d].monitor.SetTelemetry(&telemetry_, static_cast<int>(d));
  }
  if (telemetry_.tracing_enabled()) {
    telemetry_.trace().SetProcessName("mudi-cluster-experiment");
    for (size_t d = 0; d < cluster_.num_devices(); ++d) {
      telemetry_.trace().SetThreadName(
          static_cast<int>(d),
          "gpu" + std::to_string(d) + " [" + ServiceOnDevice(static_cast<int>(d)).name + "]");
    }
    telemetry_.trace().SetThreadName(static_cast<int>(cluster_.num_devices()), "scheduler");
  }
}

ClusterExperiment::~ClusterExperiment() = default;

TimeMs ClusterExperiment::Now() const { return sim_.Now(); }

std::vector<GpuDevice>& ClusterExperiment::devices() { return cluster_.devices(); }

const GpuDevice& ClusterExperiment::device(int device_id) const {
  return cluster_.device(static_cast<size_t>(device_id));
}

double ClusterExperiment::MeasuredQps(int device_id) {
  double qps = replicas_[static_cast<size_t>(device_id)].monitor.CurrentQps(sim_.Now());
  // Policy-facing monitor reads made inside a decision are part of the
  // decision's observation set (harness-internal reads go straight to the
  // monitor and are not recorded).
  if (options_.recorder != nullptr && options_.recorder->decision_open()) {
    options_.recorder->RecordQpsFeedback(sim_.Now(), device_id, /*is_p99=*/false, qps);
  }
  return qps;
}

double ClusterExperiment::MeasuredP99(int device_id) {
  double p99 = replicas_[static_cast<size_t>(device_id)].monitor.P99LatencyMs();
  if (options_.recorder != nullptr && options_.recorder->decision_open()) {
    options_.recorder->RecordQpsFeedback(sim_.Now(), device_id, /*is_p99=*/true, p99);
  }
  return p99;
}

double ClusterExperiment::ProbeInferenceLatencyMs(int device_id, int batch,
                                                  double gpu_fraction) {
  return probes_.InferenceLatencyMs(device(device_id), sim_.Now(), batch, gpu_fraction);
}

double ClusterExperiment::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                              int inf_batch, double inf_fraction) {
  // Direct monitor read, NOT MeasuredQps: this is harness-internal plumbing
  // for probe construction, and the decision trace must only carry the
  // policy's own feedback reads (every probe already embeds the QPS in its
  // content key).
  double qps = replicas_[static_cast<size_t>(device_id)].monitor.CurrentQps(sim_.Now());
  return probes_.TrainingIterMs(device(device_id), sim_.Now(), qps, task_id, train_fraction,
                                inf_batch, inf_fraction);
}

void ClusterExperiment::ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) {
  MUDI_CHECK_GT(batch, 0);
  MUDI_CHECK_GT(gpu_fraction, 0.0);
  MUDI_CHECK_LE(gpu_fraction, 1.0);
  // Record the policy's intent at the actuation boundary (before the
  // control-plane/no-op branches): the trace captures what was decided, not
  // what the (possibly degraded) delivery path made of it.
  if (options_.recorder != nullptr && options_.recorder->decision_open()) {
    options_.recorder->AddAction(replay::ActionKind::kApplyInferenceConfig, device_id, batch,
                                 gpu_fraction);
  }
  control_.Deliver(device_id, batch, gpu_fraction);
}

void ClusterExperiment::ApplyInferenceConfigDirect(int device_id, int batch,
                                                   double gpu_fraction) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;  // dead replica: nothing to configure (degrade gracefully)
  }
  ServingReplica& r = replicas_[static_cast<size_t>(device_id)];
  InferenceInstance& inf = dev.mutable_inference();

  // Batch updates are a serving-loop parameter: immediate (§5.3.1).
  inf.batch_size = batch;
  inf.mem_required_mb = InferenceMemoryMb(ServiceOnDevice(device_id), batch);
  training_.Rebalance(dev);

  // GPU% updates ride the shadow instance: effective after the
  // reconfiguration latency. A request matching the in-flight shadow keeps
  // it (otherwise periodic retunes with the same target would restart the
  // shadow forever and the config would never land); a different target
  // supersedes it.
  if (std::abs(gpu_fraction - inf.gpu_fraction) < 1e-6 ||
      (r.pending_config.has_value() && r.pending_config->first == batch &&
       std::abs(r.pending_config->second - gpu_fraction) < 1e-6)) {
    UpdateTrainingSpeeds(device_id);
    return;
  }
  sim_.Cancel(r.pending_event);
  r.pending_config = {batch, gpu_fraction};
  telemetry_.Count("serving.reconfigs");
  MUDI_TRACE_INSTANT(&telemetry_, "config", "reconfig_start", device_id, sim_.Now(),
                     telemetry::TraceArgs{telemetry::TraceArg::Num("batch", batch),
                                          telemetry::TraceArg::Num("fraction", gpu_fraction)});
  r.pending_event = sim_.ScheduleAfter(kReconfigLatencyMs, [this, device_id] {
    ServingReplica& rep = replicas_[static_cast<size_t>(device_id)];
    if (!rep.pending_config.has_value()) {
      return;
    }
    auto [b, g] = *rep.pending_config;
    rep.pending_config.reset();
    rep.pending_event = Simulator::kInvalidEventId;
    GpuDevice& d = cluster_.device(static_cast<size_t>(device_id));
    d.mutable_inference().batch_size = b;
    d.mutable_inference().gpu_fraction = g;
    d.mutable_inference().mem_required_mb = InferenceMemoryMb(ServiceOnDevice(device_id), b);
    MUDI_TRACE_INSTANT(&telemetry_, "config", "reconfig_done", device_id, sim_.Now(),
                       telemetry::TraceArgs{telemetry::TraceArg::Num("batch", b),
                                            telemetry::TraceArg::Num("fraction", g)});
    training_.Rebalance(d);
    UpdateTrainingSpeeds(device_id);
  });
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::ApplyTrainingFraction(int device_id, int task_id, double fraction) {
  MUDI_CHECK_GT(fraction, 0.0);
  if (options_.recorder != nullptr && options_.recorder->decision_open()) {
    options_.recorder->AddAction(replay::ActionKind::kApplyTrainingFraction, device_id, task_id,
                                 fraction);
  }
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  training_.Sync(dev, task_id);
  instance->gpu_fraction = std::min(fraction, 1.0);
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::SetTrainingPaused(int device_id, int task_id, bool paused) {
  if (options_.recorder != nullptr && options_.recorder->decision_open()) {
    options_.recorder->AddAction(replay::ActionKind::kSetTrainingPaused, device_id, task_id,
                                 paused ? 1.0 : 0.0);
  }
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  if (instance->paused == paused) {
    return;
  }
  training_.Sync(dev, task_id);
  instance->paused = paused;
  telemetry_.Count(paused ? "training.pauses" : "training.resumes");
  MUDI_TRACE_INSTANT(&telemetry_, "tuning", paused ? "pause_training" : "resume_training",
                     device_id, sim_.Now(),
                     telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", task_id)});
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::UpdateTrainingSpeeds(int device_id) {
  auto d = static_cast<size_t>(device_id);
  // A harness-internal monitor read, not MeasuredQps (see ProbeTrainingIterMs).
  training_.UpdateSpeeds(cluster_.device(d), replicas_[d].monitor.CurrentQps(sim_.Now()));
}

// ---------------------------------------------------------------------------
// Device faults
// ---------------------------------------------------------------------------

void ClusterExperiment::OnDeviceDown(int device_id, bool permanent, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  MUDI_CHECK(dev.healthy());
  dev.SetHealthy(false);
  FailReplica(serving_, replicas_, cluster_.devices(), device_id, now);
  std::vector<TrainingTaskInfo> displaced = training_.Displace(dev);
  registry_.Put(DeviceStatusKey(device_id), permanent ? "failed" : "down");

  telemetry_.Count("fault.device_down");
  MUDI_LOG(Info) << "device " << device_id << (permanent ? " permanently" : "") << " failed at t="
                 << now / kMsPerSecond << "s: " << displaced.size() << " training(s) displaced";

  // A crashed scheduler observes nothing: the failure shows up in its
  // recovery scan instead, and OnControlPlaneRestart drops stale caches.
  if (control_.scheduler_up()) {
    DecisionScope scope(options_.recorder, cluster_.devices(), replay::HookKind::kOnDeviceFailed,
                        now, DecisionScope::Snapshot::kDevice, device_id);
    if (scope.recorder() != nullptr) {
      for (const auto& t : displaced) {
        scope.recorder()->AddDisplaced(t.task_id, static_cast<uint32_t>(t.type_index));
      }
    }
    policy_->OnDeviceFailed(*this, device_id, displaced);
  }
  TryDispatchQueue();
}

void ClusterExperiment::OnDeviceUp(int device_id, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  MUDI_CHECK(!dev.healthy());
  dev.SetHealthy(true);
  // The replica restarts from the initial serving configuration (a rebooted
  // server does not remember its tuned state) with a fresh monitor.
  dev.mutable_inference() = InitialInference(dev.inference().service_index);
  replicas_[static_cast<size_t>(device_id)].Restart(serving_, dev, now);

  registry_.Put(DeviceStatusKey(device_id), "up");
  telemetry_.Count("fault.device_up");
  MUDI_LOG(Info) << "device " << device_id << " recovered at t=" << now / kMsPerSecond << "s";

  if (control_.scheduler_up()) {
    DecisionScope scope(options_.recorder, cluster_.devices(),
                        replay::HookKind::kOnDeviceRecovered, now,
                        DecisionScope::Snapshot::kDevice, device_id);
    policy_->OnDeviceRecovered(*this, device_id);
  }
  TryDispatchQueue();
}

void ClusterExperiment::OnStragglerFactor(int device_id, double factor, TimeMs /*now*/) {
  cluster_.device(static_cast<size_t>(device_id)).SetSlowdown(factor);
  // Training progress is settled at the old speed inside UpdateTrainingSpeeds
  // (progress syncs before the speed is recomputed), so the inflection is
  // exact. In-flight inference batches keep their pre-straggler latency;
  // subsequent batches observe the slowdown.
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::OnFeedbackLost(int device_id, TimeMs now) {
  replicas_[static_cast<size_t>(device_id)].monitor.SetFeedbackLost(true, now);
}

void ClusterExperiment::OnFeedbackRestored(int device_id, TimeMs now) {
  replicas_[static_cast<size_t>(device_id)].monitor.SetFeedbackLost(false, now);
}

void ClusterExperiment::OnSchedulerRecovered() {
  TimeMs now = sim_.Now();
  // The reconstructed view may be stale: drop policy caches and force a full
  // retune sweep at the next MonitorTick (stale-trigger every replica).
  {
    DecisionScope scope(options_.recorder, cluster_.devices(),
                        replay::HookKind::kOnControlPlaneRestart, now,
                        DecisionScope::Snapshot::kNone);
    policy_->OnControlPlaneRestart(*this);
  }
  for (auto& r : replicas_) {
    r.last_trigger_ms = now - kPeriodicRetuneMs;
  }
  TryDispatchQueue();
}

// ---------------------------------------------------------------------------
// Training placement
// ---------------------------------------------------------------------------

void ClusterExperiment::TryDispatchQueue() {
  if (!control_.scheduler_up()) {
    return;  // placements need the scheduler; tasks wait out the crash
  }
  while (!queue_.empty()) {
    const PendingTask* next = queue_.Peek();
    MUDI_CHECK(next != nullptr);
    TrainingTaskInfo info;
    info.task_id = next->arrival.task_id;
    info.type_index = next->arrival.type_index;
    info.spec = &ModelZoo::TrainingTasks()[next->arrival.type_index];
    std::optional<int> choice;
    {
      DecisionScope scope(options_.recorder, cluster_.devices(), replay::HookKind::kSelectDevice,
                          sim_.Now(), DecisionScope::Snapshot::kAll, /*device_id=*/-1,
                          info.task_id, static_cast<int>(info.type_index));
      // One timer per decision feeds both Fig. 18's overheads and, when
      // profiled, the perf region.
      WallTimer timer;
      choice = policy_->SelectDevice(*this, info);
      double elapsed_ms = timer.ElapsedMs();
      placement_overheads_ms_.push_back(elapsed_ms);
      if (perf_select_stat_ != nullptr) {
        perf_select_stat_->Record(elapsed_ms);
      }
      if (scope.recorder() != nullptr) {
        scope.recorder()->SetChosenDevice(choice.value_or(-1));
      }
    }
    if (!choice.has_value()) {
      return;  // no capacity: stay queued
    }
    if (!device(*choice).healthy()) {
      MUDI_LOG(Warning) << "policy selected unhealthy device " << *choice << " for task "
                        << info.task_id << "; leaving it queued";
      return;
    }
    training_.Place(cluster_.device(static_cast<size_t>(*choice)), queue_.Pop()->arrival);
    {
      DecisionScope scope(options_.recorder, cluster_.devices(),
                          replay::HookKind::kOnTrainingPlaced, sim_.Now(),
                          DecisionScope::Snapshot::kDevice, *choice, info.task_id,
                          static_cast<int>(info.type_index));
      perf::PerfRegion region(perf_place_stat_);
      policy_->OnTrainingPlaced(*this, *choice, info);
    }
    UpdateTrainingSpeeds(*choice);
  }
}

void ClusterExperiment::OnTrainingComplete(int device_id, int task_id) {
  const TaskRecord& record =
      training_.Complete(cluster_.device(static_cast<size_t>(device_id)), task_id);
  MUDI_CHECK_GT(tasks_remaining_, 0u);
  --tasks_remaining_;
  {
    DecisionScope scope(options_.recorder, cluster_.devices(),
                        replay::HookKind::kOnTrainingCompleted, sim_.Now(),
                        DecisionScope::Snapshot::kDevice, device_id, task_id,
                        static_cast<int>(record.type_index));
    policy_->OnTrainingCompleted(*this, device_id, task_id);
  }
  UpdateTrainingSpeeds(device_id);
  TryDispatchQueue();
}

// ---------------------------------------------------------------------------
// Periodic bookkeeping
// ---------------------------------------------------------------------------

void ClusterExperiment::MonitorTick() {
  if (!control_.scheduler_up()) {
    return;  // no tuning decisions while the scheduler is down; the replicas
             // keep serving on their last-applied configurations
  }
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    GpuDevice& dev = cluster_.device(d);
    if (!dev.healthy()) {
      continue;  // no monitor feedback and nothing to retune while down
    }
    ServingReplica& r = replicas_[d];
    bool qps_trigger = r.monitor.QpsChangedBeyondThreshold(sim_.Now());
    bool slo_risk = r.monitor.has_latency_samples() &&
                    r.monitor.P99LatencyMs() > 0.9 * ServiceOnDevice(static_cast<int>(d)).slo_ms;
    // Devices with preemptively paused training (§5.3.2) are re-evaluated on
    // every tick: "until suitable resources become available" requires an
    // active check, not just a QPS-change edge trigger.
    bool has_paused = false;
    for (const auto& t : dev.trainings()) {
      has_paused |= t.paused;
    }
    bool stale = sim_.Now() - r.last_trigger_ms >= kPeriodicRetuneMs;
    if (qps_trigger || slo_risk || has_paused || stale) {
      r.last_trigger_ms = sim_.Now();
      {
        DecisionScope scope(options_.recorder, cluster_.devices(), replay::HookKind::kOnQpsChange,
                            sim_.Now(), DecisionScope::Snapshot::kDevice, static_cast<int>(d));
        perf::PerfRegion region(perf_qps_stat_);
        policy_->OnQpsChange(*this, static_cast<int>(d));
      }
      r.monitor.AckQpsChange(sim_.Now());
      training_.Rebalance(dev);
      UpdateTrainingSpeeds(static_cast<int>(d));
    }
  }
  // Retry queued tasks: capacity may have been unlocked by retuning.
  TryDispatchQueue();
}

void ClusterExperiment::UtilSampleTick() {
  TimeMs now = sim_.Now();
  double dt = now - last_util_sample_ms_;
  if (dt <= 0.0) {
    return;
  }
  last_util_sample_ms_ = now;

  double sm_sum = 0.0;
  double mem_sum = 0.0;
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    GpuDevice& dev = cluster_.device(d);
    ServingReplica& r = replicas_[d];
    double busy_ms = r.busy_accum_ms;
    if (r.busy) {
      busy_ms += now - std::max(r.busy_start, now - dt);
    }
    r.busy_accum_ms = 0.0;
    double busy_frac = std::clamp(busy_ms / dt, 0.0, 1.0);
    double sm = busy_frac * dev.inference().gpu_fraction;
    for (const auto& t : dev.trainings()) {
      if (!t.paused) {
        const TrainingTaskSpec& spec = ModelZoo::TrainingTasks()[t.type_index];
        sm += 0.95 * std::min(t.gpu_fraction, spec.saturation_gpu);
      }
    }
    sm = std::min(sm, 1.0);
    double mem = dev.InstantMemUtil();
    if (!dev.healthy()) {
      sm = 0.0;  // a down device contributes zero utilization
      mem = 0.0;
    }
    dev.AccumulateUsage(dt, sm, mem);
    sm_sum += sm;
    mem_sum += mem;

    // Per-device counter tracks carrying the exact samples fed to
    // AccumulateUsage: trace_summary recomputes the same time-weighted
    // average, so its per-device utilization agrees with exp/metrics.
    MUDI_TRACE_COUNTER(&telemetry_, "sm_util", static_cast<int>(d), now, sm);
    MUDI_TRACE_COUNTER(&telemetry_, "mem_util", static_cast<int>(d), now, mem);

    // Swap-time accounting (Tab. 4).
    bool any_swapped = false;
    for (const auto& t : dev.trainings()) {
      if (t.mem_swapped_mb > 1.0) {
        any_swapped = true;
        break;
      }
    }
    if (any_swapped) {
      r.swapped_time_ms += dt;
    }
    r.observed_time_ms += dt;
  }
  double n = static_cast<double>(cluster_.num_devices());
  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    metrics.GetGauge("cluster.sm_util").Set(sm_sum / n);
    metrics.GetGauge("cluster.mem_util").Set(mem_sum / n);
    metrics.GetGauge("cluster.active_trainings").Set(static_cast<double>(training_.running()));
    metrics
        .GetHistogram("queue.depth_samples",
                      {0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5})
        .Observe(static_cast<double>(queue_.size()));
    metrics.RecordSnapshot(now);
  }
  if (options_.record_util_series) {
    util_series_.push_back(UtilSample{now, sm_sum / n, mem_sum / n});
  }
  if (options_.trace_device_id >= 0 &&
      options_.trace_device_id < static_cast<int>(cluster_.num_devices())) {
    int d = options_.trace_device_id;
    const GpuDevice& dev = device(d);
    double swapped = 0.0;
    for (const auto& t : dev.trainings()) {
      swapped += t.mem_swapped_mb;
    }
    device_series_.push_back(DeviceSeriesSample{now, MeasuredQps(d), dev.inference().batch_size,
                                                dev.inference().gpu_fraction, swapped,
                                                dev.MemoryResidentMb()});
  }
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

ExperimentResult ClusterExperiment::Run() {
  perf::PerfRegion run_region(perf(), "exp.run");
  if (options_.recorder != nullptr) {
    // Static per-device facts, once, so decision snapshots stay compact.
    std::vector<replay::DeviceTableEntry> table;
    table.reserve(cluster_.num_devices());
    for (const GpuDevice& dev : cluster_.devices()) {
      replay::DeviceTableEntry entry;
      entry.device_id = dev.id();
      entry.service_index = static_cast<uint32_t>(dev.inference().service_index);
      entry.memory_mb = dev.memory_mb();
      entry.compute_scale = dev.compute_scale();
      table.push_back(entry);
    }
    options_.recorder->RecordDeviceTable(table);
  }
  {
    DecisionScope scope(options_.recorder, cluster_.devices(), replay::HookKind::kInitialize,
                        sim_.Now(), DecisionScope::Snapshot::kAll);
    perf::PerfRegion region(perf(), "policy.initialize");
    policy_->Initialize(*this);
  }

  // Arm the control-plane and device fault schedules. An empty plan is a
  // no-op: zero events, zero registry traffic, zero RNG perturbation, so
  // the results stay byte-identical to a run without the machinery
  // (CtrlFaultRecoveryTest.* and FaultRecoveryTest.* in tests/fault_test.cc
  // pin it).
  if (!options_.ctrl_fault_plan.empty()) {
    control_.Start(options_.ctrl_fault_plan, rng_);
  }
  if (!options_.fault_plan.empty()) {
    MUDI_CHECK_OK(fault_injector_.Arm(options_.fault_plan));
  }

  // Training arrivals.
  std::vector<TrainingArrival> trace = options_.trace_override;
  if (trace.empty() && options_.trace.num_tasks > 0) {
    trace = GenerateTrainingTrace(options_.trace);
  }
  tasks_remaining_ = trace.size();
  first_arrival_ms_ = trace.empty() ? 0.0 : trace.front().arrival_ms;
  for (const auto& arrival : trace) {
    sim_.ScheduleAt(arrival.arrival_ms, [this, arrival] {
      training_.Arrive(arrival);
      TryDispatchQueue();
    });
  }

  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    replicas_[d].Start(serving_, cluster_.device(d), /*now=*/0.0);
  }
  sim_.SchedulePeriodic(kMonitorPeriodMs, kMonitorPeriodMs, [this] { MonitorTick(); });
  sim_.SchedulePeriodic(kUtilSampleMs, kUtilSampleMs, [this] { UtilSampleTick(); });

  bool stopped_by_backstop = false;
  if (options_.horizon_ms > 0.0) {
    sim_.RunUntil(options_.horizon_ms);
  } else {
    // Run until all training tasks complete (serving events are periodic and
    // never drain, so step until the countdown hits zero).
    uint64_t steps = 0;
    while (tasks_remaining_ > 0 && sim_.Now() < options_.max_sim_ms) {
      MUDI_CHECK(sim_.Step());
      if (++steps % 5000000 == 0) {
        MUDI_LOG(Debug) << "sim t=" << sim_.Now() / kMsPerSecond << "s, steps=" << steps
                        << ", remaining=" << tasks_remaining_ << ", queued=" << queue_.size()
                        << ", pending_events=" << sim_.pending_events();
      }
    }
    stopped_by_backstop = tasks_remaining_ > 0;
    sim_.RunUntil(sim_.Now() + kDrainMs);
  }

  // Close any half-open SLO windows.
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    replicas_[d].CloseSloWindow(serving_, cluster_.device(d));
  }

  // Aggregate results.
  ExperimentResult result;
  result.policy_name = policy_->name();
  result.stopped_by_backstop = stopped_by_backstop;
  result.unfinished_tasks = tasks_remaining_;
  double sm_sum = 0.0;
  double mem_sum = 0.0;
  double total_served = 0.0;
  std::map<std::string, std::pair<double, double>> swap_acc;  // (swapped, observed)
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    const ServingReplica& r = replicas_[d];
    const GpuDevice& dev = cluster_.device(d);
    const std::string& name = ServiceOnDevice(static_cast<int>(d)).name;
    ServiceMetrics& m = result.per_service[name];
    m.service_name = name;
    m.windows_total += r.windows_total;
    m.windows_violated += r.windows_violated;
    m.windows_violated_failure += r.windows_violated_failure;
    m.mean_latency_ms += r.latency_weighted_sum;
    m.served_requests += r.served;
    total_served += r.served;
    sm_sum += dev.AverageSmUtil();
    mem_sum += dev.AverageMemUtil();
    swap_acc[name].first += r.swapped_time_ms;
    swap_acc[name].second += r.observed_time_ms;
  }
  for (auto& [name, m] : result.per_service) {
    if (m.served_requests > 0.0) {
      m.mean_latency_ms /= m.served_requests;
    }
  }
  training_.Report(result);
  result.makespan_ms = training_.last_completion_ms() - first_arrival_ms_;
  result.avg_sm_util = sm_sum / static_cast<double>(cluster_.num_devices());
  result.avg_mem_util = mem_sum / static_cast<double>(cluster_.num_devices());
  for (const auto& [name, acc] : swap_acc) {
    result.swap_time_fraction[name] = acc.second > 0.0 ? acc.first / acc.second : 0.0;
  }
  result.util_series = util_series_;
  result.device_series = device_series_;
  result.placement_overheads_ms = std::move(placement_overheads_ms_);
  result.tuning_iterations = policy_->tuning_iterations();

  // Availability / recovery aggregates.
  FaultMetrics& fm = result.faults;
  fm.faults_injected = fault_injector_.faults_injected();
  fm.device_failures = fault_injector_.device_failures();
  fm.devices_recovered = fault_injector_.devices_recovered();
  fm.total_downtime_ms = fault_injector_.TotalDowntimeMs(sim_.Now());
  fm.failed_requests = serving_.failed_requests;
  fm.rerouted_requests = serving_.rerouted_requests;
  fm.goodput_rps = sim_.Now() > 0.0 ? total_served / (sim_.Now() / kMsPerSecond) : 0.0;
  control_.Report(result.ctrl);

  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    metrics.GetGauge("exp.makespan_ms").Set(result.makespan_ms);
    metrics.GetGauge("exp.avg_sm_util").Set(result.avg_sm_util);
    metrics.GetGauge("exp.avg_mem_util").Set(result.avg_mem_util);
    metrics.GetGauge("queue.final_max_depth").Set(static_cast<double>(queue_.max_depth()));
    telemetry_.Flush(result.policy_name);
  }

  // Self-profiling export: snapshot the simulator's dispatch totals and the
  // run's workload counters (observe-only, end-of-run, zero hot-path cost).
  if (perf::PerfCollector* collector = perf()) {
    sim_.ExportPerfCounters(collector);
    collector->SetCounter("exp.tasks_total", result.tasks.size());
    collector->SetCounter("exp.tasks_completed", result.CompletedTasks());
    collector->SetCounter("exp.requests_served", static_cast<uint64_t>(total_served));
  }

  // End-of-run SLO attribution into the trace, so trace_diff can report
  // outcome deltas between two recorded runs.
  if (options_.recorder != nullptr) {
    replay::TraceRunSummary summary;
    summary.makespan_ms = result.makespan_ms;
    summary.tasks_completed = result.CompletedTasks();
    for (const auto& [name, m] : result.per_service) {
      replay::TraceServiceSummary s;
      s.service = name;
      s.windows_total = m.windows_total;
      s.windows_violated = m.windows_violated;
      s.windows_violated_failure = m.windows_violated_failure;
      s.served_requests = m.served_requests;
      s.mean_latency_ms = m.mean_latency_ms;
      summary.services.push_back(std::move(s));
    }
    options_.recorder->RecordRunSummary(summary);
  }
  return result;
}

}  // namespace mudi
