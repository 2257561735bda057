#include "src/exp/cluster_experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_source.h"

namespace mudi {
namespace {

using replay::DecisionScope;

constexpr double kDefaultReplicaQps = 200.0;  // mean inter-arrival 5 ms (§7.1)
constexpr double kInitialInferenceFraction = 0.5;
constexpr int kInitialBatch = 64;
// Queue cap as a multiple of the batching size: beyond it, oldest requests
// are shed and counted as worst-case latency (overload).
constexpr double kQueueCapBatches = 50.0;

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
      queue_(options_.queue_policy) {
  MUDI_CHECK(policy_ != nullptr);
  MUDI_CHECK_GT(options_.num_services, 0u);
  MUDI_CHECK_LE(options_.num_services, ModelZoo::InferenceServices().size());
  MUDI_CHECK_GT(options_.checkpoint_period_ms, 0.0);
  fault_injector_ = std::make_unique<FaultInjector>(&sim_, this,
                                                    static_cast<int>(cluster_.num_devices()),
                                                    options_.num_nodes, &telemetry_);
  // Place one inference replica per device, service round-robin.
  replicas_.resize(cluster_.num_devices());
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    size_t service_index = (d % options_.num_services + options_.service_offset) %
                           ModelZoo::InferenceServices().size();
    const InferenceServiceSpec& spec = ModelZoo::InferenceServices()[service_index];
    InferenceInstance instance;
    instance.service_index = service_index;
    instance.batch_size = kInitialBatch;
    instance.gpu_fraction = kInitialInferenceFraction;
    instance.mem_required_mb = InferenceMemoryMb(spec, kInitialBatch);
    cluster_.device(d).PlaceInference(instance);

    Replica& r = replicas_[d];
    if (options_.qps_factory) {
      r.qps = options_.qps_factory(service_index, static_cast<int>(d));
    } else {
      r.qps = std::make_shared<ConstantQps>(kDefaultReplicaQps);
    }
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
  memory_manager_.SetTelemetry(&telemetry_);
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
  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    batches_counter_ = &metrics.GetCounter("serving.batches");
    requests_counter_ = &metrics.GetCounter("serving.requests");
    shed_counter_ = &metrics.GetCounter("serving.shed_requests");
    batch_latency_hist_ = &metrics.GetHistogram(
        "serving.batch_latency_ms", telemetry::MetricsRegistry::DefaultLatencyBucketsMs());
    windows_total_counter_ = &metrics.GetCounter("slo.windows_total");
    windows_violated_counter_ = &metrics.GetCounter("slo.windows_violated");
    windows_violated_failure_counter_ = &metrics.GetCounter("slo.windows_violated_failure");
  }
}

ClusterExperiment::~ClusterExperiment() = default;

TimeMs ClusterExperiment::Now() const { return sim_.Now(); }

std::vector<GpuDevice>& ClusterExperiment::devices() { return cluster_.devices(); }

const GpuDevice& ClusterExperiment::device(int device_id) const {
  return cluster_.device(static_cast<size_t>(device_id));
}

const InferenceServiceSpec& ClusterExperiment::ServiceOnDevice(int device_id) const {
  const GpuDevice& dev = device(device_id);
  return ModelZoo::InferenceServices()[dev.inference().service_index];
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

InferenceLoad ClusterExperiment::CurrentInferenceLoad(int device_id) {
  const GpuDevice& dev = device(device_id);
  InferenceLoad load;
  load.spec = &ServiceOnDevice(device_id);
  load.batch_size = dev.inference().batch_size;
  load.gpu_fraction = dev.inference().gpu_fraction;
  // Direct monitor read, NOT MeasuredQps: this is harness-internal plumbing
  // for probe construction, and the decision trace must only carry the
  // policy's own feedback reads (every probe already embeds the QPS in its
  // content key).
  load.qps = replicas_[static_cast<size_t>(device_id)].monitor.CurrentQps(sim_.Now());
  return load;
}

double ClusterExperiment::ProbeInferenceLatencyMs(int device_id, int batch,
                                                  double gpu_fraction) {
  return probes_.InferenceLatencyMs(device(device_id), sim_.Now(), batch, gpu_fraction);
}

double ClusterExperiment::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                              int inf_batch, double inf_fraction) {
  return probes_.TrainingIterMs(device(device_id), sim_.Now(),
                                CurrentInferenceLoad(device_id).qps, task_id, train_fraction,
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
  if (!ctrl_enabled_) {
    ApplyInferenceConfigDirect(device_id, batch, gpu_fraction);
    return;
  }
  // Control-plane delivery (DESIGN.md §13): the scheduler publishes the
  // tuned config to the registry; the device agent's watch applies it when
  // (and if) the notification arrives. Under degradation the update can be
  // delayed, dropped, or lost to a partition — the periodic retune rewrites
  // the key, bounding how long a lost config stays lost.
  ++configs_published_;
  // The publication sequence number lets the device agent deduplicate
  // deliveries that arrive both through its watch and a catch-up read.
  char encoded[96];
  std::snprintf(encoded, sizeof(encoded), "%llu|%d|%.17g",
                static_cast<unsigned long long>(configs_published_), batch, gpu_fraction);
  registry_.Put(SchedConfigKey(device_id), encoded);
}

void ClusterExperiment::ApplyInferenceConfigDirect(int device_id, int batch,
                                                   double gpu_fraction) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;  // dead replica: nothing to configure (degrade gracefully)
  }
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  InferenceInstance& inf = dev.mutable_inference();

  // Batch updates are a serving-loop parameter: immediate (§5.3.1).
  inf.batch_size = batch;
  inf.mem_required_mb = InferenceMemoryMb(ServiceOnDevice(device_id), batch);
  RebalanceMemory(device_id);

  double delta = std::abs(gpu_fraction - inf.gpu_fraction);
  if (delta < 1e-6) {
    UpdateTrainingSpeeds(device_id);
    return;
  }
  // GPU% updates ride the shadow instance: effective after the
  // reconfiguration latency. A request matching the in-flight shadow keeps
  // it (otherwise periodic retunes with the same target would restart the
  // shadow forever and the config would never land); a different target
  // supersedes it.
  if (r.pending_config.has_value() && r.pending_config->first == batch &&
      std::abs(r.pending_config->second - gpu_fraction) < 1e-6) {
    UpdateTrainingSpeeds(device_id);
    return;
  }
  if (r.pending_event != Simulator::kInvalidEventId) {
    sim_.Cancel(r.pending_event);
    r.pending_event = Simulator::kInvalidEventId;
  }
  r.pending_config = {batch, gpu_fraction};
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("serving.reconfigs").Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "config", "reconfig_start", device_id, sim_.Now(),
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("batch", batch),
                           telemetry::TraceArg::Num("fraction", gpu_fraction)});
  }
  r.pending_event = sim_.ScheduleAfter(options_.reconfig_latency_ms, [this, device_id] {
    Replica& rep = replicas_[static_cast<size_t>(device_id)];
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
    RebalanceMemory(device_id);
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
  SyncTrainingProgress(device_id, task_id);
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
  SyncTrainingProgress(device_id, task_id);
  instance->paused = paused;
  if (telemetry_.enabled()) {
    telemetry_.metrics()
        .GetCounter(paused ? "training.pauses" : "training.resumes")
        .Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "tuning", paused ? "pause_training" : "resume_training",
                       device_id, sim_.Now(),
                       telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", task_id)});
  }
  UpdateTrainingSpeeds(device_id);
}

bool ClusterExperiment::CanFitTraining(int device_id, const TrainingTaskSpec& spec) const {
  const GpuDevice& dev = device(device_id);
  return dev.MemoryRequiredMb() + TrainingMemoryMb(spec) <= dev.memory_mb();
}

void ClusterExperiment::RebalanceMemory(int device_id) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!policy_->SupportsMemorySwap()) {
    return;  // non-swap policies never overcommit (placement enforces fit)
  }
  memory_manager_.Rebalance(dev, sim_.Now());
}

// ---------------------------------------------------------------------------
// Serving path
// ---------------------------------------------------------------------------

TimeMs ClusterExperiment::WaitTimeoutMs(int device_id) const {
  const InferenceServiceSpec& spec = ServiceOnDevice(device_id);
  return std::clamp(0.25 * spec.slo_ms, 5.0, 400.0);
}

TimeMs ClusterExperiment::ArrivalTickMs(int device_id) const {
  if (options_.arrival_tick_ms > 0.0) {
    return options_.arrival_tick_ms;
  }
  return std::clamp(ServiceOnDevice(device_id).slo_ms / 15.0, 5.0, 100.0);
}

void ClusterExperiment::ArrivalTick(int device_id) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  if (!device(device_id).healthy()) {
    return;  // the periodic event is cancelled at failure; belt and braces
  }
  TimeMs now = sim_.Now();
  double tick = ArrivalTickMs(device_id);
  double mean = r.qps->QpsAt(now) * tick / kMsPerSecond;
  auto count = static_cast<double>(rng_.Poisson(mean));
  if (count > 0.0) {
    r.queue.push_back(Cohort{now, count});
    r.queued += count;
    r.monitor.RecordArrivals(now, count);

    // Overload shedding: bound the queue, penalizing shed requests.
    const GpuDevice& dev = device(device_id);
    double cap = kQueueCapBatches * static_cast<double>(std::max(dev.inference().batch_size, 1));
    while (r.queued > cap && !r.queue.empty()) {
      Cohort shed = r.queue.front();
      r.queue.pop_front();
      r.queued -= shed.count;
      double penalty = 10.0 * ServiceOnDevice(device_id).slo_ms;
      r.window_latencies.emplace_back(penalty, shed.count);
      r.monitor.RecordLatency(penalty, shed.count);
      if (shed_counter_ != nullptr) {
        shed_counter_->Increment(shed.count);
        MUDI_TRACE_INSTANT(&telemetry_, "serving", "shed", device_id, now,
                           telemetry::TraceArgs{telemetry::TraceArg::Num("count", shed.count)});
      }
    }
    TryStartBatch(device_id);
  }
}

// MUDI_HOT_PATH  TryStartBatch/FinishBatch run once per served batch; the
// batch lives in its replica's inflight buffer, whose capacity is kept from
// batch to batch, so the steady state allocates nothing here.
void ClusterExperiment::TryStartBatch(int device_id) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  if (r.busy || r.queue.empty()) {
    return;
  }
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;
  }
  int target_batch = std::max(dev.inference().batch_size, 1);
  TimeMs now = sim_.Now();
  TimeMs oldest_age = now - r.queue.front().arrival_ms;
  // The epsilon guards against a Zeno loop: when the timeout fires at
  // exactly arrival+timeout, floating-point error can leave oldest_age one
  // ulp short of the timeout, which would re-arm at the same instant.
  if (r.queued < static_cast<double>(target_batch) &&
      oldest_age + 1e-6 < WaitTimeoutMs(device_id)) {
    // Not enough for a full batch yet: arm the formation timeout.
    if (r.timeout_event == Simulator::kInvalidEventId) {
      TimeMs fire_at = r.queue.front().arrival_ms + WaitTimeoutMs(device_id);
      r.timeout_event = sim_.ScheduleAt(std::max(fire_at, now + 0.001), [this, device_id] {
        replicas_[static_cast<size_t>(device_id)].timeout_event = Simulator::kInvalidEventId;
        TryStartBatch(device_id);
      });
    }
    return;
  }
  if (r.timeout_event != Simulator::kInvalidEventId) {
    sim_.Cancel(r.timeout_event);
    r.timeout_event = Simulator::kInvalidEventId;
  }

  // Form the batch FIFO from cohorts, straight into the inflight buffer.
  double want = std::min(r.queued, static_cast<double>(target_batch));
  int actual = std::max(1, static_cast<int>(std::lround(want)));
  r.inflight.clear();
  double remaining = static_cast<double>(actual);
  while (remaining > 1e-9 && !r.queue.empty()) {
    Cohort& front = r.queue.front();
    double take = std::min(front.count, remaining);
    // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth, capacity kept
    r.inflight.emplace_back(front.arrival_ms, take);
    front.count -= take;
    r.queued -= take;
    remaining -= take;
    if (front.count <= 1e-9) {
      r.queue.pop_front();
    }
  }

  replay::CollectColocation(dev, replay::kNoTask, colocation_);
  double latency = oracle_
                       .ObserveInferenceBatchLatency(ServiceOnDevice(device_id), actual,
                                                     dev.inference().gpu_fraction, colocation_,
                                                     rng_)
                       .total_ms() /
                   dev.EffectiveComputeScale();
  r.busy = true;
  r.busy_start = now;
  r.batch_event = sim_.ScheduleAfter(
      latency, [this, device_id, latency] { FinishBatch(device_id, latency); });
}

void ClusterExperiment::FinishBatch(int device_id, double latency_ms) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  TimeMs now = sim_.Now();
  r.busy = false;
  r.batch_event = Simulator::kInvalidEventId;
  r.busy_accum_ms += now - r.busy_start;
  double batch_requests = 0.0;
  for (const auto& [arrival, count] : r.inflight) {
    // End-to-end latency = queueing + batch service time.
    double e2e = now - arrival;
    // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth, capacity kept
    r.window_latencies.emplace_back(e2e, count);
    r.monitor.RecordLatency(e2e, count);
    r.latency_weighted_sum += e2e * count;
    r.served += count;
    batch_requests += count;
  }
  if (batches_counter_ != nullptr) {
    batches_counter_->Increment();
    requests_counter_->Increment(batch_requests);
    batch_latency_hist_->Observe(latency_ms);
    // Re-routed cohorts keep their arrival times, so the oldest request need
    // not be at the front.
    TimeMs oldest_arrival = r.busy_start;
    for (const auto& cohort : r.inflight) {
      oldest_arrival = std::min(oldest_arrival, cohort.first);
    }
    MUDI_TRACE_COMPLETE(&telemetry_, "serving", "batch", device_id, r.busy_start,
                        now - r.busy_start,
                        telemetry::TraceArgs{
                            telemetry::TraceArg::Num("requests", batch_requests),
                            telemetry::TraceArg::Num("latency_ms", latency_ms),
                            telemetry::TraceArg::Num("max_wait_ms",
                                                     r.busy_start - oldest_arrival)});
  }
  r.inflight.clear();
  TryStartBatch(device_id);
}
// MUDI_HOT_PATH_END

void ClusterExperiment::CloseSloWindow(int device_id) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  bool tainted = r.window_failure_tainted;
  r.window_failure_tainted = false;
  if (r.window_latencies.empty()) {
    return;  // idle window: nothing to judge
  }
  double p99 = WeightedP99(r.window_latencies);  // reorders the window; cleared below
  ++r.windows_total;
  bool violated = p99 > ServiceOnDevice(device_id).slo_ms;
  if (violated) {
    ++r.windows_violated;
    if (tainted) {
      ++r.windows_violated_failure;
    }
  }
  if (windows_total_counter_ != nullptr) {
    windows_total_counter_->Increment();
    if (violated) {
      windows_violated_counter_->Increment();
      if (tainted) {
        windows_violated_failure_counter_->Increment();
      }
      MUDI_TRACE_INSTANT(&telemetry_, "slo", "window_violation", device_id, sim_.Now(),
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("p99_ms", p99),
                             telemetry::TraceArg::Num("slo_ms", ServiceOnDevice(device_id).slo_ms),
                             telemetry::TraceArg::Num("failure_attributed", tainted ? 1.0 : 0.0)});
    }
  }
  r.window_latencies.clear();
}

// ---------------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------------

std::string ClusterExperiment::DeviceStatusKey(int device_id) const {
  return "/devices/" + std::to_string(device_id) + "/status";
}

std::string ClusterExperiment::DeviceTaskKey(int device_id, int task_id) const {
  return "/devices/" + std::to_string(device_id) + "/tasks/" + std::to_string(task_id);
}

void ClusterExperiment::RouteCohort(int failed_device, const Cohort& cohort) {
  Replica& failed = replicas_[static_cast<size_t>(failed_device)];
  size_t service = device(failed_device).inference().service_index;
  std::vector<int> survivors;
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    if (static_cast<int>(d) == failed_device) {
      continue;
    }
    const GpuDevice& dev = device(static_cast<int>(d));
    if (dev.healthy() && dev.has_inference() && dev.inference().service_index == service) {
      survivors.push_back(static_cast<int>(d));
    }
  }
  TimeMs now = sim_.Now();
  if (survivors.empty()) {
    // No surviving replica of this service: the requests are lost.
    failed_requests_ += cohort.count;
    if (telemetry_.enabled()) {
      telemetry_.metrics().GetCounter("fault.failed_requests").Increment(cohort.count);
    }
    return;
  }
  int target = survivors[failed.reroute_cursor % survivors.size()];
  ++failed.reroute_cursor;
  Replica& r = replicas_[static_cast<size_t>(target)];
  // The cohort keeps its original arrival time: failover detour latency
  // counts against the SLO, and the window is failure-attributed.
  r.queue.push_back(cohort);
  r.queued += cohort.count;
  r.monitor.RecordArrivals(now, cohort.count);
  r.window_failure_tainted = true;
  rerouted_requests_ += cohort.count;
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("fault.rerouted_requests").Increment(cohort.count);
    MUDI_TRACE_INSTANT(&telemetry_, "fault", "reroute", target, now,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("from_device", failed_device),
                           telemetry::TraceArg::Num("count", cohort.count)});
  }
  TryStartBatch(target);
}

void ClusterExperiment::FailoverArrivalTick(int failed_device) {
  Replica& r = replicas_[static_cast<size_t>(failed_device)];
  TimeMs now = sim_.Now();
  double tick = ArrivalTickMs(failed_device);
  double mean = r.qps->QpsAt(now) * tick / kMsPerSecond;
  auto count = static_cast<double>(rng_.Poisson(mean));
  if (count > 0.0) {
    RouteCohort(failed_device, Cohort{now, count});
  }
}

std::vector<TrainingTaskInfo> ClusterExperiment::DisplaceTrainings(int device_id, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  std::vector<int> task_ids;
  for (const auto& t : dev.trainings()) {
    task_ids.push_back(t.task_id);
  }
  std::vector<TrainingTaskInfo> displaced;
  for (int task_id : task_ids) {
    auto it = running_.find(task_id);
    MUDI_CHECK(it != running_.end());
    // Settle progress first so the checkpoint ledger covers every boundary
    // crossed before the failure instant.
    SyncTrainingProgress(device_id, task_id);
    RunningTask& running = it->second;
    if (running.completion_event != Simulator::kInvalidEventId) {
      sim_.Cancel(running.completion_event);
    }
    if (policy_->SupportsMemorySwap()) {
      MUDI_CHECK_OK(memory_manager_.Release(dev, task_id, now));
    }
    TrainingInstance instance = dev.RemoveTraining(task_id);
    // The key was Put at placement, so a failed Delete means the registry
    // and device state diverged — a bookkeeping bug, not a recoverable error.
    MUDI_CHECK(registry_.Delete(DeviceTaskKey(device_id, task_id)));
    // Checkpoint rollback: the task resumes from its last periodic
    // checkpoint, redoing the progress made since.
    double resume_work = std::max(running.work_at_checkpoint, instance.work_remaining_ms);
    double lost = std::max(0.0, resume_work - instance.work_remaining_ms);
    running_.erase(it);

    TaskRecord& record = task_records_[task_id];
    ++record.failures;
    record.work_lost_ms += lost;
    work_lost_ms_ += lost;
    ++trainings_displaced_;
    displaced_at_[task_id] = now;

    TrainingArrival requeue;
    requeue.task_id = task_id;
    requeue.arrival_ms = now;
    requeue.type_index = instance.type_index;
    requeue.work_full_gpu_ms = std::max(resume_work, 1.0);
    queue_.Push(PendingTask{requeue, /*priority=*/0});

    TrainingTaskInfo info;
    info.task_id = task_id;
    info.type_index = instance.type_index;
    info.spec = &ModelZoo::TrainingTasks()[instance.type_index];
    displaced.push_back(info);

    if (telemetry_.enabled()) {
      telemetry_.metrics().GetCounter("fault.trainings_displaced").Increment();
      MUDI_TRACE_INSTANT(&telemetry_, "fault", "training_displaced", device_id, now,
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("task_id", task_id),
                             telemetry::TraceArg::Num("work_lost_ms", lost),
                             telemetry::TraceArg::Num("resume_work_ms", requeue.work_full_gpu_ms)});
    }
  }
  return displaced;
}

void ClusterExperiment::OnDeviceDown(int device_id, bool permanent, TimeMs now) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  MUDI_CHECK(dev.healthy());
  dev.SetHealthy(false);
  Replica& r = replicas_[static_cast<size_t>(device_id)];

  // Stop every per-device event: arrivals, SLO windows, batch formation
  // timeouts, the in-flight batch, and any shadow-instance reconfiguration.
  for (Simulator::EventId* ev :
       {&r.arrival_event, &r.slo_event, &r.timeout_event, &r.batch_event, &r.pending_event}) {
    if (*ev != Simulator::kInvalidEventId) {
      sim_.Cancel(*ev);
      *ev = Simulator::kInvalidEventId;
    }
  }
  r.pending_config.reset();

  // In-flight requests die with the device: worst-case penalty latency in
  // the (failure-attributed) SLO window, counted as failed.
  if (r.busy) {
    r.busy = false;
    r.busy_accum_ms += now - r.busy_start;
    double penalty = 10.0 * ServiceOnDevice(device_id).slo_ms;
    for (const auto& [arrival, count] : r.inflight) {
      r.window_latencies.emplace_back(penalty, count);
      failed_requests_ += count;
      if (telemetry_.enabled()) {
        telemetry_.metrics().GetCounter("fault.failed_requests").Increment(count);
      }
    }
    r.inflight.clear();
    r.window_failure_tainted = true;
  }
  // Queued cohorts fail over to surviving replicas of the same service.
  std::deque<Cohort> queued;
  queued.swap(r.queue);
  r.queued = 0.0;
  for (const auto& cohort : queued) {
    RouteCohort(device_id, cohort);
  }
  // Judge the partial window now; subsequent windows belong to the failover
  // replicas (this replica's window clock stops until recovery).
  if (!r.window_latencies.empty()) {
    r.window_failure_tainted = true;
  }
  CloseSloWindow(device_id);
  r.window_failure_tainted = false;

  // The service's request stream does not stop because a replica died:
  // future arrivals are generated on the dead replica's profile and re-routed.
  TimeMs tick = ArrivalTickMs(device_id);
  r.failover_event = sim_.SchedulePeriodic(now + tick, tick,
                                           [this, device_id] { FailoverArrivalTick(device_id); });

  std::vector<TrainingTaskInfo> displaced = DisplaceTrainings(device_id, now);

  registry_.Put(DeviceStatusKey(device_id), permanent ? "failed" : "down");

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("fault.device_down").Increment();
  }
  MUDI_LOG(Info) << "device " << device_id << (permanent ? " permanently" : "") << " failed at t="
                 << now / kMsPerSecond << "s: " << displaced.size() << " training(s) displaced";

  // A crashed scheduler observes nothing: the failure shows up in its
  // recovery scan instead, and OnControlPlaneRestart drops stale caches.
  if (scheduler_up_) {
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
  Replica& r = replicas_[static_cast<size_t>(device_id)];

  // The replica restarts from the initial serving configuration (a rebooted
  // server does not remember its tuned state) with a fresh monitor.
  InferenceInstance& inf = dev.mutable_inference();
  inf.batch_size = kInitialBatch;
  inf.gpu_fraction = kInitialInferenceFraction;
  inf.mem_required_mb = InferenceMemoryMb(ServiceOnDevice(device_id), kInitialBatch);
  r.monitor = QpsMonitor();
  r.monitor.SetTelemetry(&telemetry_, device_id);
  r.window_latencies.clear();
  r.window_failure_tainted = false;

  if (r.failover_event != Simulator::kInvalidEventId) {
    sim_.Cancel(r.failover_event);
    r.failover_event = Simulator::kInvalidEventId;
  }
  TimeMs tick = ArrivalTickMs(device_id);
  r.arrival_event =
      sim_.SchedulePeriodic(now + tick, tick, [this, device_id] { ArrivalTick(device_id); });
  r.slo_event = sim_.SchedulePeriodic(now + options_.slo_window_ms, options_.slo_window_ms,
                                      [this, device_id] { CloseSloWindow(device_id); });

  registry_.Put(DeviceStatusKey(device_id), "up");
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("fault.device_up").Increment();
  }
  MUDI_LOG(Info) << "device " << device_id << " recovered at t=" << now / kMsPerSecond << "s";

  if (scheduler_up_) {
    DecisionScope scope(options_.recorder, cluster_.devices(),
                        replay::HookKind::kOnDeviceRecovered, now,
                        DecisionScope::Snapshot::kDevice, device_id);
    policy_->OnDeviceRecovered(*this, device_id);
  }
  TryDispatchQueue();
}

void ClusterExperiment::OnStragglerFactor(int device_id, double factor, TimeMs /*now*/) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  dev.SetSlowdown(factor);
  // Training progress is settled at the old speed inside UpdateTrainingSpeeds
  // (SyncTrainingProgress runs before the speed is recomputed), so the
  // inflection is exact. In-flight inference batches keep their pre-straggler
  // latency; subsequent batches observe the slowdown.
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::OnFeedbackLost(int device_id, TimeMs now) {
  replicas_[static_cast<size_t>(device_id)].monitor.SetFeedbackLost(true, now);
}

void ClusterExperiment::OnFeedbackRestored(int device_id, TimeMs now) {
  replicas_[static_cast<size_t>(device_id)].monitor.SetFeedbackLost(false, now);
}

// ---------------------------------------------------------------------------
// Control plane (DESIGN.md §13)
// ---------------------------------------------------------------------------

std::string ClusterExperiment::SchedConfigKey(int device_id) const {
  // The "/inference" terminator keeps the per-device watch prefix exact:
  // without it, the device-1 watch would also match devices 10, 11, ...
  return "/sched/config/" + std::to_string(device_id) + "/inference";
}

void ClusterExperiment::StartControlPlane() {
  const ControlFaultPlan& plan = options_.ctrl_fault_plan;
  MUDI_CHECK(!plan.empty());
  MUDI_CHECK_OK(plan.Validate());
  ctrl_enabled_ = true;

  // The registry becomes a real (degradable) control-plane dependency.
  // Delete events are forced on so recovery can observe deregistration
  // instead of polling for absence.
  registry_.EnableDeleteEvents(true);
  Rng ctrl_rng = rng_.Fork(0x6374726Cull);  // "ctrl"
  registry_.EnableDegradedMode(&sim_, plan.degrade, ctrl_rng.Fork(1));
  recovery_retrier_ = std::make_unique<Retrier>(&sim_, options_.ctrl_retry, ctrl_rng.Fork(2));
  watch_retrier_ = std::make_unique<Retrier>(&sim_, options_.ctrl_retry, ctrl_rng.Fork(3));

  config_watches_.assign(cluster_.num_devices(), 0);
  config_applied_rev_.assign(cluster_.num_devices(), 0);
  config_applied_seq_.assign(cluster_.num_devices(), 0);
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    RegisterConfigWatch(static_cast<int>(d));
  }

  ctrl_injector_ = std::make_unique<ControlFaultInjector>(&sim_, this, &telemetry_);
  MUDI_CHECK_OK(ctrl_injector_->Arm(plan));

  // Coordinator heartbeat: the epoch key tells the recovery scan how fresh
  // the registry's view of the scheduler is. ("/sched/epoch" does not prefix
  // any per-device config watch, so heartbeats draw nothing from the
  // watchers' delivery streams.)
  if (options_.ctrl_checkpoint_period_ms > 0.0) {
    sim_.SchedulePeriodic(options_.ctrl_checkpoint_period_ms, options_.ctrl_checkpoint_period_ms,
                          [this] {
                            if (!scheduler_up_) {
                              return;  // a crashed scheduler stops heartbeating
                            }
                            ++ckpt_epoch_;
                            registry_.Put("/sched/epoch", std::to_string(ckpt_epoch_));
                          });
  }
}

void ClusterExperiment::RegisterConfigWatch(int device_id) {
  config_watches_[static_cast<size_t>(device_id)] = registry_.Watch(
      SchedConfigKey(device_id),
      [this, device_id](const std::string& /*key*/, const std::string& value, uint64_t revision) {
        OnConfigDelivered(device_id, value, revision);
      });
}

void ClusterExperiment::OnConfigDelivered(int device_id, const std::string& value,
                                          uint64_t revision) {
  size_t d = static_cast<size_t>(device_id);
  if (revision <= config_applied_rev_[d]) {
    return;  // out-of-order, duplicate, or stale-snapshot delivery: never regress
  }
  config_applied_rev_[d] = revision;
  if (value.empty()) {
    return;  // tombstone: the config key was deleted, nothing to apply
  }
  char* sep = nullptr;
  uint64_t seq = std::strtoull(value.c_str(), &sep, 10);
  MUDI_CHECK(sep != nullptr && *sep == '|');
  char* sep2 = nullptr;
  long batch = std::strtol(sep + 1, &sep2, 10);
  MUDI_CHECK(sep2 != nullptr && *sep2 == '|');
  double gpu_fraction = std::strtod(sep2 + 1, nullptr);
  if (seq <= config_applied_seq_[d]) {
    return;  // this publication already reached the device (e.g. via a
             // catch-up read racing its own delayed watch delivery)
  }
  config_applied_seq_[d] = seq;
  ++configs_applied_;
  if (telemetry_.enabled()) {
    MUDI_TRACE_INSTANT(&telemetry_, "ctrl", "config_applied", device_id, sim_.Now(),
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("batch", static_cast<double>(batch)),
                           telemetry::TraceArg::Num("fraction", gpu_fraction),
                           telemetry::TraceArg::Num("revision", static_cast<double>(revision))});
  }
  ApplyInferenceConfigDirect(device_id, static_cast<int>(batch), gpu_fraction);
}

Status ClusterExperiment::CatchUpConfig(int device_id) {
  uint64_t rev = 0;
  StatusOr<std::string> value = registry_.CtrlGet(SchedConfigKey(device_id), &rev);
  if (!value.ok()) {
    if (value.status().code() == StatusCode::kNotFound) {
      // Nothing published yet (or a stale snapshot predating the first
      // publish) — nothing to catch up on, not a retriable failure.
      return Status::Ok();
    }
    return value.status();
  }
  // The delivery guard in OnConfigDelivered makes catch-up idempotent and
  // immune to stale snapshots regressing a newer applied config.
  OnConfigDelivered(device_id, *value, rev);
  return Status::Ok();
}

void ClusterExperiment::OnKvPartitionStart(TimeMs /*now*/) { registry_.SetPartitioned(true); }

void ClusterExperiment::OnKvPartitionEnd(TimeMs /*now*/) {
  registry_.SetPartitioned(false);
  // Updates inside the window were lost, not buffered: catch every device
  // agent up through the control read path (deterministic device order).
  // The partition just healed, so the only possible miss is a stale
  // snapshot, which CatchUpConfig treats as "nothing to apply".
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    MUDI_CHECK_OK(CatchUpConfig(static_cast<int>(d)));
  }
}

void ClusterExperiment::OnWatchesLost(TimeMs now) {
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    if (config_watches_[d] != 0) {
      (void)registry_.Unwatch(config_watches_[d]);
      config_watches_[d] = 0;
    }
  }
  MUDI_LOG(Info) << "control plane lost its watches at t=" << now / kMsPerSecond << "s";
  // Re-establish through the sanctioned retry loop: a concurrent partition
  // makes the catch-up reads fail Unavailable until the window ends.
  watch_retrier_->Start(
      0.0,
      [this]() -> Status {
        for (size_t d = 0; d < cluster_.num_devices(); ++d) {
          if (config_watches_[d] == 0) {
            RegisterConfigWatch(static_cast<int>(d));
          }
          MUDI_RETURN_IF_ERROR(CatchUpConfig(static_cast<int>(d)));
        }
        return Status::Ok();
      },
      [this](const Status& status, int attempts) {
        if (!status.ok()) {
          MUDI_LOG(Warning) << "watch re-establishment abandoned after " << attempts
                            << " attempt(s): " << status.ToString();
        }
      });
}

void ClusterExperiment::OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) {
  if (scheduler_up_) {
    scheduler_up_ = false;
    scheduler_crashed_at_ = now;
    MUDI_LOG(Info) << "scheduler crashed at t=" << now / kMsPerSecond << "s, restart in "
                   << restart_delay_ms / kMsPerSecond << "s";
  } else {
    MUDI_LOG(Info) << "scheduler crashed again (mid-recovery) at t=" << now / kMsPerSecond << "s";
  }
  // Start() cancels any in-flight recovery loop: a crash during recovery
  // restarts recovery from scratch while downtime keeps accruing from the
  // first crash instant.
  recovery_retrier_->Start(
      restart_delay_ms, [this]() -> Status { return AttemptSchedulerRecovery(); },
      [this](const Status& status, int attempts) {
        if (status.ok()) {
          FinishSchedulerRecovery();
        } else {
          MUDI_LOG(Warning) << "scheduler recovery abandoned after " << attempts
                            << " attempt(s): " << status.ToString();
        }
      });
}

Status ClusterExperiment::AttemptSchedulerRecovery() {
  // Reconstruct the scheduler's policy-visible view from a registry scan.
  // Either list failing (partition) aborts the attempt; the Retrier backs
  // off and re-reads.
  StatusOr<std::vector<std::pair<std::string, std::string>>> device_rows =
      registry_.CtrlList("/devices/");
  if (!device_rows.ok()) {
    return device_rows.status();
  }
  StatusOr<std::vector<std::pair<std::string, std::string>>> sched_rows =
      registry_.CtrlList("/sched/");
  if (!sched_rows.ok()) {
    return sched_rows.status();
  }
  // Cross-check the scan against live (ground-truth) cluster state. Rows a
  // stale snapshot or a pre-crash write left behind are counted, not
  // trusted: the policy re-derives everything from probes after
  // OnControlPlaneRestart anyway.
  size_t mismatches = 0;
  size_t scanned_tasks = 0;
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    const std::string status_key = DeviceStatusKey(static_cast<int>(d));
    std::string scanned;
    for (const auto& [key, value] : *device_rows) {
      if (key == status_key) {
        scanned = value;
        break;
      }
    }
    if ((scanned == "up") != cluster_.device(d).healthy()) {
      ++mismatches;
    }
  }
  for (const auto& [key, value] : *device_rows) {
    if (key.find("/tasks/") != std::string::npos) {
      ++scanned_tasks;
    }
  }
  if (scanned_tasks != running_.size()) {
    mismatches += scanned_tasks > running_.size() ? scanned_tasks - running_.size()
                                                  : running_.size() - scanned_tasks;
  }
  for (const auto& [key, value] : *sched_rows) {
    if (key == "/sched/epoch" && value != std::to_string(ckpt_epoch_)) {
      ++mismatches;  // the heartbeat row lags the coordinator's last beat
    }
  }
  stale_scan_entries_ += mismatches;
  return Status::Ok();
}

void ClusterExperiment::FinishSchedulerRecovery() {
  TimeMs now = sim_.Now();
  double recovery_ms = now - scheduler_crashed_at_;
  scheduler_up_ = true;
  ++scheduler_recoveries_;
  recovery_ms_sum_ += recovery_ms;
  MUDI_LOG(Info) << "scheduler recovered at t=" << now / kMsPerSecond << "s ("
                 << recovery_ms / kMsPerSecond << "s outage, " << stale_scan_entries_
                 << " stale scan entries so far)";
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("ctrl.scheduler_recoveries").Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "ctrl", "scheduler_recovered",
                       static_cast<int>(cluster_.num_devices()), now,
                       telemetry::TraceArgs{telemetry::TraceArg::Num("recovery_ms", recovery_ms)});
  }
  // The reconstructed view may be stale: drop policy caches and force a full
  // retune sweep at the next MonitorTick (stale-trigger every replica).
  {
    DecisionScope scope(options_.recorder, cluster_.devices(),
                        replay::HookKind::kOnControlPlaneRestart, now,
                        DecisionScope::Snapshot::kNone);
    policy_->OnControlPlaneRestart(*this);
  }
  for (auto& r : replicas_) {
    r.last_trigger_ms = now - options_.periodic_retune_ms;
  }
  TryDispatchQueue();
}

// ---------------------------------------------------------------------------
// Training path
// ---------------------------------------------------------------------------

void ClusterExperiment::OnTrainingArrival(const TrainingArrival& arrival) {
  TaskRecord record;
  record.task_id = arrival.task_id;
  record.type_index = arrival.type_index;
  record.arrival_ms = arrival.arrival_ms;
  task_records_[arrival.task_id] = record;
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.arrivals").Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "training", "task_arrival",
                       static_cast<int>(cluster_.num_devices()), arrival.arrival_ms,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", arrival.task_id),
                           telemetry::TraceArg::Str(
                               "type", ModelZoo::TrainingTasks()[arrival.type_index].name)});
  }
  queue_.Push(PendingTask{arrival, /*priority=*/0});
  TryDispatchQueue();
}

void ClusterExperiment::TryDispatchQueue() {
  if (!scheduler_up_) {
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
      perf::PerfRegion region(perf_select_stat_);
      choice = policy_->SelectDevice(*this, info);
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
    TrainingArrival arrival = queue_.Pop()->arrival;
    PlaceTask(arrival, *choice);
  }
}

void ClusterExperiment::PlaceTask(const TrainingArrival& arrival, int device_id) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  const TrainingTaskSpec& spec = ModelZoo::TrainingTasks()[arrival.type_index];

  TrainingInstance instance;
  instance.task_id = arrival.task_id;
  instance.type_index = arrival.type_index;
  instance.gpu_fraction = 0.1;  // provisional until the policy configures
  instance.work_remaining_ms = arrival.work_full_gpu_ms;
  instance.mem_required_mb = TrainingMemoryMb(spec);
  instance.admitted_at_ms = sim_.Now();
  dev.AddTraining(instance);
  RebalanceMemory(device_id);

  RunningTask running;
  running.device_id = device_id;
  running.last_sync_ms = sim_.Now();
  running.next_checkpoint_ms = sim_.Now() + options_.checkpoint_period_ms;
  running.work_at_checkpoint = arrival.work_full_gpu_ms;
  running_[arrival.task_id] = running;

  TaskRecord& record = task_records_[arrival.task_id];
  if (record.start_ms < 0.0) {
    record.start_ms = sim_.Now();  // keep the first placement's queue wait
  }
  record.device_id = device_id;
  registry_.Put(DeviceTaskKey(device_id, arrival.task_id), spec.name);

  // Re-placement of a fault-displaced task: time from displacement to the new
  // placement is the recovery latency reported in FaultMetrics.
  auto displaced_it = displaced_at_.find(arrival.task_id);
  if (displaced_it != displaced_at_.end()) {
    replacement_time_sum_ms_ += sim_.Now() - displaced_it->second;
    ++trainings_replaced_;
    displaced_at_.erase(displaced_it);
    if (telemetry_.enabled()) {
      telemetry_.metrics().GetCounter("fault.trainings_replaced").Increment();
      MUDI_TRACE_INSTANT(&telemetry_, "fault", "training_replaced", device_id, sim_.Now(),
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("task_id", arrival.task_id)});
    }
  }

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.placements").Increment();
    telemetry_.metrics()
        .GetHistogram("training.queue_wait_ms", telemetry::MetricsRegistry::DefaultLatencyBucketsMs())
        .Observe(record.start_ms - arrival.arrival_ms);
    MUDI_TRACE_INSTANT(&telemetry_, "placement", "place", device_id, record.start_ms,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", arrival.task_id),
                           telemetry::TraceArg::Str("type", spec.name),
                           telemetry::TraceArg::Num("queue_wait_ms",
                                                    record.start_ms - arrival.arrival_ms)});
  }

  TrainingTaskInfo info;
  info.task_id = arrival.task_id;
  info.type_index = arrival.type_index;
  info.spec = &spec;
  {
    DecisionScope scope(options_.recorder, cluster_.devices(),
                        replay::HookKind::kOnTrainingPlaced, sim_.Now(),
                        DecisionScope::Snapshot::kDevice, device_id, info.task_id,
                        static_cast<int>(info.type_index));
    perf::PerfRegion region(perf_place_stat_);
    policy_->OnTrainingPlaced(*this, device_id, info);
  }
  UpdateTrainingSpeeds(device_id);
}

void ClusterExperiment::SyncTrainingProgress(int device_id, int task_id) {
  auto it = running_.find(task_id);
  if (it == running_.end()) {
    return;
  }
  RunningTask& running = it->second;
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  TimeMs now = sim_.Now();
  // Snapshot periodic checkpoints crossed since the last sync: speed is
  // constant between syncs, so the work level at each boundary is analytic.
  while (running.next_checkpoint_ms <= now) {
    double at_cp = instance->work_remaining_ms;
    if (running.speed > 0.0) {
      at_cp = std::max(0.0, instance->work_remaining_ms -
                                running.speed * (running.next_checkpoint_ms - running.last_sync_ms));
    }
    running.work_at_checkpoint = at_cp;
    running.next_checkpoint_ms += options_.checkpoint_period_ms;
  }
  double elapsed = now - running.last_sync_ms;
  if (elapsed > 0.0 && running.speed > 0.0) {
    instance->work_remaining_ms =
        std::max(0.0, instance->work_remaining_ms - running.speed * elapsed);
  }
  running.last_sync_ms = now;
}

void ClusterExperiment::UpdateTrainingSpeeds(int device_id) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  const auto& tasks = ModelZoo::TrainingTasks();
  InferenceLoad load = CurrentInferenceLoad(device_id);

  for (auto& instance : dev.mutable_trainings()) {
    auto it = running_.find(instance.task_id);
    if (it == running_.end()) {
      continue;
    }
    RunningTask& running = it->second;
    SyncTrainingProgress(device_id, instance.task_id);

    if (running.completion_event != Simulator::kInvalidEventId) {
      sim_.Cancel(running.completion_event);
      running.completion_event = Simulator::kInvalidEventId;
    }
    if (instance.paused || instance.gpu_fraction <= 0.0) {
      running.speed = 0.0;
      continue;
    }
    const TrainingTaskSpec& spec = tasks[instance.type_index];
    replay::CollectColocation(dev, instance.task_id, colocation_);
    double iter = oracle_.TrainingIterationMs(spec, std::clamp(instance.gpu_fraction, 0.02, 1.0),
                                              load, colocation_) *
                  SwapSlowdownFactor(instance) / dev.EffectiveComputeScale();
    running.speed = spec.iter_ms_full / iter;
    MUDI_CHECK_GT(running.speed, 0.0);
    TimeMs eta = instance.work_remaining_ms / running.speed;
    int task_id = instance.task_id;
    running.completion_event = sim_.ScheduleAfter(
        std::max(eta, 0.01), [this, device_id, task_id] { OnTrainingComplete(device_id, task_id); });
  }
}

void ClusterExperiment::OnTrainingComplete(int device_id, int task_id) {
  SyncTrainingProgress(device_id, task_id);
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (policy_->SupportsMemorySwap()) {
    MUDI_CHECK_OK(memory_manager_.Release(dev, task_id, sim_.Now()));
  }
  dev.RemoveTraining(task_id);
  running_.erase(task_id);
  // See the displacement path: this key must exist for any running task.
  MUDI_CHECK(registry_.Delete(DeviceTaskKey(device_id, task_id)));

  TaskRecord& record = task_records_[task_id];
  record.completion_ms = sim_.Now();
  last_completion_ms_ = std::max(last_completion_ms_, record.completion_ms);
  MUDI_CHECK_GT(tasks_remaining_, 0u);
  --tasks_remaining_;

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.completions").Increment();
    MUDI_TRACE_COMPLETE(&telemetry_, "training",
                        ModelZoo::TrainingTasks()[record.type_index].name, device_id,
                        record.start_ms, record.completion_ms - record.start_ms,
                        telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", task_id)});
  }

  RebalanceMemory(device_id);
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
  if (!scheduler_up_) {
    return;  // no tuning decisions while the scheduler is down; the replicas
             // keep serving on their last-applied configurations
  }
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    if (!cluster_.device(d).healthy()) {
      continue;  // no monitor feedback and nothing to retune while down
    }
    Replica& r = replicas_[d];
    bool qps_trigger = r.monitor.QpsChangedBeyondThreshold(sim_.Now());
    bool slo_risk = r.monitor.has_latency_samples() &&
                    r.monitor.P99LatencyMs() > 0.9 * ServiceOnDevice(static_cast<int>(d)).slo_ms;
    // Devices with preemptively paused training (§5.3.2) are re-evaluated on
    // every tick: "until suitable resources become available" requires an
    // active check, not just a QPS-change edge trigger.
    bool has_paused = false;
    for (const auto& t : cluster_.device(d).trainings()) {
      has_paused |= t.paused;
    }
    bool stale = sim_.Now() - r.last_trigger_ms >= options_.periodic_retune_ms;
    if (qps_trigger || slo_risk || has_paused || stale) {
      r.last_trigger_ms = sim_.Now();
      {
        DecisionScope scope(options_.recorder, cluster_.devices(), replay::HookKind::kOnQpsChange,
                            sim_.Now(), DecisionScope::Snapshot::kDevice, static_cast<int>(d));
        perf::PerfRegion region(perf_qps_stat_);
        policy_->OnQpsChange(*this, static_cast<int>(d));
      }
      r.monitor.AckQpsChange(sim_.Now());
      RebalanceMemory(static_cast<int>(d));
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
    Replica& r = replicas_[d];
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
    metrics.GetGauge("cluster.active_trainings").Set(static_cast<double>(running_.size()));
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

  // Arm the control-plane fault domain (no-op for an empty plan: zero events,
  // zero registry traffic, byte-identical results — ctrl_fault_test pins it).
  if (!options_.ctrl_fault_plan.empty()) {
    StartControlPlane();
  }

  // Arm the fault schedule (no-op for an empty plan: zero events, zero RNG
  // perturbation, byte-identical results to a build without fault machinery).
  if (!options_.fault_plan.empty()) {
    Status armed = fault_injector_->Arm(options_.fault_plan);
    MUDI_CHECK(armed.ok());
  }

  // Training arrivals.
  std::vector<TrainingArrival> trace = options_.trace_override;
  if (trace.empty() && options_.trace.num_tasks > 0) {
    trace = GenerateTrainingTrace(options_.trace);
  }
  tasks_remaining_ = trace.size();
  first_arrival_ms_ = trace.empty() ? 0.0 : trace.front().arrival_ms;
  for (const auto& arrival : trace) {
    sim_.ScheduleAt(arrival.arrival_ms, [this, arrival] { OnTrainingArrival(arrival); });
  }

  // Per-device arrival ticks (event ids kept so a device failure cancels them).
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    int device_id = static_cast<int>(d);
    double tick = ArrivalTickMs(device_id);
    Replica& r = replicas_[d];
    r.arrival_event =
        sim_.SchedulePeriodic(tick, tick, [this, device_id] { ArrivalTick(device_id); });
    r.slo_event = sim_.SchedulePeriodic(options_.slo_window_ms, options_.slo_window_ms,
                                        [this, device_id] { CloseSloWindow(device_id); });
  }
  sim_.SchedulePeriodic(options_.monitor_period_ms, options_.monitor_period_ms,
                        [this] { MonitorTick(); });
  sim_.SchedulePeriodic(options_.util_sample_ms, options_.util_sample_ms,
                        [this] { UtilSampleTick(); });

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
    sim_.RunUntil(sim_.Now() + options_.drain_ms);
  }

  // Close any half-open SLO windows.
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    CloseSloWindow(static_cast<int>(d));
  }

  // Aggregate results.
  ExperimentResult result;
  result.policy_name = policy_->name();
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    const Replica& r = replicas_[d];
    const std::string& name = ServiceOnDevice(static_cast<int>(d)).name;
    ServiceMetrics& m = result.per_service[name];
    m.service_name = name;
    m.windows_total += r.windows_total;
    m.windows_violated += r.windows_violated;
    m.windows_violated_failure += r.windows_violated_failure;
    m.mean_latency_ms += r.latency_weighted_sum;
    m.served_requests += r.served;
  }
  for (auto& [name, m] : result.per_service) {
    if (m.served_requests > 0.0) {
      m.mean_latency_ms /= m.served_requests;
    }
  }
  for (const auto& [id, record] : task_records_) {
    result.tasks.push_back(record);
  }
  result.makespan_ms = last_completion_ms_ - first_arrival_ms_;

  double sm_sum = 0.0;
  double mem_sum = 0.0;
  std::map<std::string, std::pair<double, double>> swap_acc;  // (swapped, observed)
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    const GpuDevice& dev = device(static_cast<int>(d));
    sm_sum += dev.AverageSmUtil();
    mem_sum += dev.AverageMemUtil();
    const Replica& r = replicas_[d];
    auto& acc = swap_acc[ServiceOnDevice(static_cast<int>(d)).name];
    acc.first += r.swapped_time_ms;
    acc.second += r.observed_time_ms;
  }
  result.avg_sm_util = sm_sum / static_cast<double>(cluster_.num_devices());
  result.avg_mem_util = mem_sum / static_cast<double>(cluster_.num_devices());
  for (const auto& [name, acc] : swap_acc) {
    result.swap_time_fraction[name] = acc.second > 0.0 ? acc.first / acc.second : 0.0;
  }
  result.swap_events = memory_manager_.records().size();
  result.swap_total_mb = memory_manager_.total_swapped_out_mb();
  result.util_series = util_series_;
  result.device_series = device_series_;
  result.placement_overheads_ms = policy_->placement_overheads_ms();
  result.tuning_iterations = policy_->tuning_iterations();

  // Availability / recovery aggregates.
  FaultMetrics& fm = result.faults;
  fm.faults_injected = fault_injector_->faults_injected();
  fm.device_failures = fault_injector_->device_failures();
  fm.devices_recovered = fault_injector_->devices_recovered();
  fm.total_downtime_ms = fault_injector_->TotalDowntimeMs(sim_.Now());
  fm.trainings_displaced = trainings_displaced_;
  fm.trainings_replaced = trainings_replaced_;
  fm.work_lost_ms = work_lost_ms_;
  fm.mean_replacement_ms =
      trainings_replaced_ == 0
          ? 0.0
          : replacement_time_sum_ms_ / static_cast<double>(trainings_replaced_);
  fm.failed_requests = failed_requests_;
  fm.rerouted_requests = rerouted_requests_;
  double total_served = 0.0;
  for (const auto& r : replicas_) {
    total_served += r.served;
  }
  fm.goodput_rps = sim_.Now() > 0.0 ? total_served / (sim_.Now() / kMsPerSecond) : 0.0;

  // Control-plane fault/recovery aggregates (all zero without a ctrl plan).
  if (ctrl_enabled_) {
    ControlMetrics& cm = result.ctrl;
    cm.events_injected = ctrl_injector_->events_injected();
    cm.kv_partitions = ctrl_injector_->partitions();
    cm.watch_losses = ctrl_injector_->watch_losses();
    cm.scheduler_crashes = ctrl_injector_->scheduler_crashes();
    cm.scheduler_recoveries = scheduler_recoveries_;
    cm.total_recovery_ms = recovery_ms_sum_;
    cm.retries = static_cast<size_t>(recovery_retrier_->total_retries() +
                                     watch_retrier_->total_retries());
    cm.stale_reads = static_cast<size_t>(registry_.stale_reads());
    cm.unavailable_reads = static_cast<size_t>(registry_.unavailable_reads());
    cm.watch_delivered = static_cast<size_t>(registry_.watch_delivered());
    cm.watch_dropped = static_cast<size_t>(registry_.watch_dropped());
    cm.watch_lost_partition = static_cast<size_t>(registry_.watch_lost_partition());
    cm.configs_published = configs_published_;
    cm.configs_applied = configs_applied_;
    cm.stale_scan_entries = stale_scan_entries_;
    if (telemetry_.enabled()) {
      auto& metrics = telemetry_.metrics();
      metrics.GetCounter("ctrl.retries").Increment(static_cast<double>(cm.retries));
      metrics.GetCounter("ctrl.stale_reads").Increment(static_cast<double>(cm.stale_reads));
      metrics.GetGauge("ctrl.recovery_ms").Set(cm.total_recovery_ms);
    }
  }

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
    double served = 0.0;
    for (const auto& r : replicas_) {
      served += r.served;
    }
    collector->SetCounter("exp.requests_served", static_cast<uint64_t>(served));
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
