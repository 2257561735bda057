#include "src/replay/replay_run.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/workload/models.h"

namespace mudi {
namespace replay {

namespace {

// Seed tag for the probe-miss fallback stream: a miss means the recorded run
// never asked this exact question, so any fixed independent stream is as
// honest as another — but it must not alias the recorded run's streams.
constexpr uint64_t kFallbackRngTag = 0x7265706c61796673ull;  // "replayfs"

// DispatchDecision's result for every hook but SelectDevice.
constexpr int kNotSelectDevice = -2;

std::string FormatChoiceDivergence(const TraceDecision& recorded, int whatif_choice) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "decision seq %llu (SelectDevice task %d): recorded chose device %d, "
                "what-if chose device %d",
                static_cast<unsigned long long>(recorded.seq), recorded.task_id,
                recorded.chosen_device, whatif_choice);
  return buf;
}

std::string FormatActionDivergence(const TraceDecision& recorded,
                                   const std::vector<TraceAction>& whatif) {
  char buf[224];
  size_t n = std::min(recorded.actions.size(), whatif.size());
  for (size_t i = 0; i < n; ++i) {
    const TraceAction& a = recorded.actions[i];
    const TraceAction& b = whatif[i];
    if (a.kind != b.kind || a.device_id != b.device_id || a.arg != b.arg || a.value != b.value) {
      std::snprintf(buf, sizeof(buf),
                    "decision seq %llu (%s): action %zu differs — recorded %s(dev=%d, arg=%d, "
                    "value=%.6g), what-if %s(dev=%d, arg=%d, value=%.6g)",
                    static_cast<unsigned long long>(recorded.seq),
                    HookName(static_cast<HookKind>(recorded.hook)), i,
                    ActionName(static_cast<ActionKind>(a.kind)), a.device_id, a.arg, a.value,
                    ActionName(static_cast<ActionKind>(b.kind)), b.device_id, b.arg, b.value);
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "decision seq %llu (%s): recorded %zu action(s), what-if %zu action(s)",
                static_cast<unsigned long long>(recorded.seq),
                HookName(static_cast<HookKind>(recorded.hook)), recorded.actions.size(),
                whatif.size());
  return buf;
}

bool SameActions(const std::vector<TraceAction>& a, const std::vector<TraceAction>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].device_id != b[i].device_id || a[i].arg != b[i].arg ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

// A trace can parse cleanly and still name services, training types or
// devices this build does not have. Reject those before anything indexes a
// table with them.
Status CheckIndices(const DecisionTrace& trace) {
  const size_t services = ModelZoo::InferenceServices().size();
  const size_t types = ModelZoo::TrainingTasks().size();
  const auto num_devices = static_cast<int32_t>(trace.device_table.size());
  for (const DeviceTableEntry& entry : trace.device_table) {
    if (entry.service_index >= services) {
      return InvalidArgumentError("trace device table names unknown service " +
                                  std::to_string(entry.service_index));
    }
  }
  for (const TraceDecision& d : trace.decisions) {
    auto hook = static_cast<HookKind>(d.hook);
    bool typed = hook == HookKind::kSelectDevice || hook == HookKind::kOnTrainingPlaced;
    bool unknown_type = typed && (d.type_index < 0 || static_cast<size_t>(d.type_index) >= types);
    for (const auto& [task_id, type_index] : d.displaced) {
      unknown_type |= type_index >= types;
    }
    bool per_device = hook >= HookKind::kOnTrainingPlaced && hook <= HookKind::kOnDeviceRecovered;
    bool unknown_device = per_device && (d.device_id < 0 || d.device_id >= num_devices);
    bool unknown_service = false;
    for (const SnapshotDevice& s : d.snapshot) {
      unknown_device |= s.device_id < 0 || s.device_id >= num_devices;
      unknown_service |= s.has_inference != 0 && s.service_index >= services;
      for (const SnapshotTraining& t : s.trainings) {
        unknown_type |= t.type_index >= types;
      }
    }
    const char* unknown = unknown_type      ? "training type"
                          : unknown_device  ? "device"
                          : unknown_service ? "service"
                                            : nullptr;
    if (unknown != nullptr) {
      return InvalidArgumentError("trace decision " + std::to_string(d.seq) +
                                  " names an unknown " + unknown);
    }
  }
  return Status::Ok();
}

// Runs recorded decision `d`'s hook on `policy`. Returns the device a
// SelectDevice decision chose (-1: none), or kNotSelectDevice for any other
// hook.
StatusOr<int> DispatchDecision(MultiplexPolicy& policy, ReplayEnv& env, const TraceDecision& d,
                               DecisionRecorder* rec) {
  const auto& tasks = ModelZoo::TrainingTasks();
  switch (static_cast<HookKind>(d.hook)) {
    case HookKind::kInitialize:
      policy.Initialize(env);
      break;
    case HookKind::kSelectDevice: {
      TrainingTaskInfo info;
      info.task_id = d.task_id;
      info.type_index = static_cast<size_t>(d.type_index);
      info.spec = &tasks[info.type_index];
      int choice = policy.SelectDevice(env, info).value_or(-1);
      if (rec != nullptr) {
        rec->SetChosenDevice(choice);
      }
      return choice;
    }
    case HookKind::kOnTrainingPlaced: {
      TrainingTaskInfo info;
      info.task_id = d.task_id;
      info.type_index = static_cast<size_t>(d.type_index);
      info.spec = &tasks[info.type_index];
      policy.OnTrainingPlaced(env, d.device_id, info);
      break;
    }
    case HookKind::kOnTrainingCompleted:
      policy.OnTrainingCompleted(env, d.device_id, d.task_id);
      break;
    case HookKind::kOnQpsChange:
      policy.OnQpsChange(env, d.device_id);
      break;
    case HookKind::kOnDeviceFailed: {
      std::vector<TrainingTaskInfo> displaced;
      displaced.reserve(d.displaced.size());
      for (const auto& [task_id, type_index] : d.displaced) {
        TrainingTaskInfo info;
        info.task_id = task_id;
        info.type_index = type_index;
        info.spec = &tasks[type_index];
        displaced.push_back(info);
        if (rec != nullptr) {
          rec->AddDisplaced(task_id, type_index);
        }
      }
      policy.OnDeviceFailed(env, d.device_id, displaced);
      break;
    }
    case HookKind::kOnDeviceRecovered:
      policy.OnDeviceRecovered(env, d.device_id);
      break;
    case HookKind::kOnControlPlaneRestart:
      policy.OnControlPlaneRestart(env);
      break;
    default:
      return InternalError("unknown hook kind in decision trace");
  }
  return kNotSelectDevice;
}

}  // namespace

ReplayEnv::ReplayEnv(ReplaySource& source, DecisionRecorder* whatif_recorder)
    : source_(source),
      whatif_recorder_(whatif_recorder),
      fallback_oracle_(source.trace().header.oracle_seed),
      fallback_rng_(Rng(source.trace().header.seed).Fork(kFallbackRngTag)),
      probes_(fallback_oracle_, fallback_rng_, &source_, /*recorder=*/nullptr) {
  const DecisionTrace& trace = source_.trace();
  devices_.reserve(trace.device_table.size());
  for (const DeviceTableEntry& entry : trace.device_table) {
    GpuDevice dev(entry.device_id, entry.memory_mb, entry.compute_scale);
    // Placeholder replica; the first decision's snapshot (kInitialize carries
    // a full-cluster snapshot) overwrites batch/fraction with recorded state.
    InferenceInstance inst;
    inst.service_index = entry.service_index;
    inst.batch_size = 1;
    inst.gpu_fraction = 0.5;
    inst.mem_required_mb =
        InferenceMemoryMb(ModelZoo::InferenceServices()[entry.service_index], 1);
    dev.PlaceInference(inst);
    devices_.push_back(std::move(dev));
  }
  latest_qps_.assign(devices_.size(), 0.0);
  latest_p99_.assign(devices_.size(), 0.0);
}

void ReplayEnv::AdvanceFeedback(uint64_t seq_bound) {
  const auto& feedback = source_.trace().qps_feedback;
  while (feedback_cursor_ < feedback.size() && feedback[feedback_cursor_].seq < seq_bound) {
    const TraceQpsFeedback& f = feedback[feedback_cursor_];
    if (f.device_id >= 0 && static_cast<size_t>(f.device_id) < devices_.size()) {
      if (f.is_p99 != 0) {
        latest_p99_[static_cast<size_t>(f.device_id)] = f.value;
      } else {
        latest_qps_[static_cast<size_t>(f.device_id)] = f.value;
      }
    }
    ++feedback_cursor_;
  }
}

void ReplayEnv::ApplyDecisionState(const TraceDecision& decision) {
  now_ms_ = decision.sim_ms;
  for (const SnapshotDevice& s : decision.snapshot) {
    GpuDevice& dev = mutable_device(s.device_id);
    dev.SetHealthy(s.healthy != 0);
    dev.SetSlowdown(s.slowdown);
    if (s.has_inference != 0) {
      InferenceInstance inst;
      inst.service_index = s.service_index;
      inst.batch_size = s.inf_batch;
      inst.gpu_fraction = s.inf_fraction;
      inst.mem_required_mb = s.inf_mem_mb;
      if (dev.has_inference()) {
        dev.mutable_inference() = inst;
      } else {
        dev.PlaceInference(inst);
      }
    } else if (dev.has_inference()) {
      dev.RemoveInference();
    }
    std::vector<TrainingInstance> trainings;
    trainings.reserve(s.trainings.size());
    for (const SnapshotTraining& t : s.trainings) {
      TrainingInstance inst;
      inst.task_id = t.task_id;
      inst.type_index = t.type_index;
      inst.gpu_fraction = t.gpu_fraction;
      inst.mem_required_mb = t.mem_required_mb;
      inst.mem_swapped_mb = t.mem_swapped_mb;
      inst.paused = t.paused != 0;
      trainings.push_back(inst);
    }
    dev.mutable_trainings() = std::move(trainings);
  }
}

std::vector<TraceAction> ReplayEnv::TakeActions() {
  std::vector<TraceAction> out = std::move(actions_);
  actions_.clear();
  return out;
}

const GpuDevice& ReplayEnv::device(int device_id) const {
  MUDI_CHECK_GE(device_id, 0);
  MUDI_CHECK_LT(static_cast<size_t>(device_id), devices_.size());
  return devices_[static_cast<size_t>(device_id)];
}

GpuDevice& ReplayEnv::mutable_device(int device_id) {
  MUDI_CHECK_GE(device_id, 0);
  MUDI_CHECK_LT(static_cast<size_t>(device_id), devices_.size());
  return devices_[static_cast<size_t>(device_id)];
}

double ReplayEnv::MeasuredQps(int device_id) {
  double qps = latest_qps_[static_cast<size_t>(device_id)];
  if (whatif_recorder_ != nullptr && whatif_recorder_->decision_open()) {
    whatif_recorder_->RecordQpsFeedback(now_ms_, device_id, /*is_p99=*/false, qps);
  }
  return qps;
}

double ReplayEnv::MeasuredP99(int device_id) {
  double p99 = latest_p99_[static_cast<size_t>(device_id)];
  if (whatif_recorder_ != nullptr && whatif_recorder_->decision_open()) {
    whatif_recorder_->RecordQpsFeedback(now_ms_, device_id, /*is_p99=*/true, p99);
  }
  return p99;
}

double ReplayEnv::ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) {
  return probes_.InferenceLatencyMs(device(device_id), now_ms_, batch, gpu_fraction);
}

double ReplayEnv::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                      int inf_batch, double inf_fraction) {
  // The recorded run keyed probes on the monitor QPS at decision time, which
  // is exactly the value the policy read as feedback inside the decision —
  // the feedback cursor has already advanced past those reads.
  return probes_.TrainingIterMs(device(device_id), now_ms_,
                                latest_qps_[static_cast<size_t>(device_id)], task_id,
                                train_fraction, inf_batch, inf_fraction);
}

void ReplayEnv::RecordAction(ActionKind kind, int device_id, int arg, double value) {
  TraceAction action;
  action.kind = static_cast<uint8_t>(kind);
  action.device_id = device_id;
  action.arg = arg;
  action.value = value;
  actions_.push_back(action);
  if (whatif_recorder_ != nullptr && whatif_recorder_->decision_open()) {
    whatif_recorder_->AddAction(kind, device_id, arg, value);
  }
}

void ReplayEnv::ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) {
  MUDI_CHECK_GT(batch, 0);
  MUDI_CHECK_GT(gpu_fraction, 0.0);
  MUDI_CHECK_LE(gpu_fraction, 1.0);
  RecordAction(ActionKind::kApplyInferenceConfig, device_id, batch, gpu_fraction);
  GpuDevice& dev = mutable_device(device_id);
  if (!dev.healthy()) {
    return;
  }
  // Counterfactual actuation is immediate: there is no clock to ride the
  // shadow-instance reconfiguration latency on, and within one decision the
  // live path behaves the same way (probes pass overrides explicitly).
  InferenceInstance& inf = dev.mutable_inference();
  inf.batch_size = batch;
  inf.gpu_fraction = gpu_fraction;
  inf.mem_required_mb = InferenceMemoryMb(ServiceOnDevice(device_id), batch);
}

void ReplayEnv::ApplyTrainingFraction(int device_id, int task_id, double fraction) {
  MUDI_CHECK_GT(fraction, 0.0);
  RecordAction(ActionKind::kApplyTrainingFraction, device_id, task_id, fraction);
  GpuDevice& dev = mutable_device(device_id);
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  instance->gpu_fraction = fraction;
}

void ReplayEnv::SetTrainingPaused(int device_id, int task_id, bool paused) {
  RecordAction(ActionKind::kSetTrainingPaused, device_id, task_id, paused ? 1.0 : 0.0);
  GpuDevice& dev = mutable_device(device_id);
  if (!dev.healthy()) {
    return;
  }
  TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  instance->paused = paused;
}

StatusOr<WhatIfResult> RunWhatIf(ReplaySource& source, MultiplexPolicy& policy,
                                 const WhatIfOptions& options) {
  const DecisionTrace& trace = source.trace();
  if (trace.device_table.empty()) {
    return InvalidArgumentError("trace carries no device table; cannot reconstruct the cluster");
  }
  for (size_t i = 0; i < trace.device_table.size(); ++i) {
    if (trace.device_table[i].device_id != static_cast<int32_t>(i)) {
      return InvalidArgumentError("trace device table is not densely indexed by device id");
    }
  }
  if (!trace.decisions.empty() &&
      static_cast<HookKind>(trace.decisions.front().hook) != HookKind::kInitialize) {
    return InvalidArgumentError("trace decision stream does not start with Initialize");
  }
  MUDI_RETURN_IF_ERROR(CheckIndices(trace));

  ReplayEnv env(source, options.recorder);
  if (options.recorder != nullptr) {
    options.recorder->RecordDeviceTable(trace.device_table);
  }

  WhatIfResult result;
  for (size_t i = 0; i < trace.decisions.size(); ++i) {
    const TraceDecision& d = trace.decisions[i];
    uint64_t bound = i + 1 < trace.decisions.size() ? trace.decisions[i + 1].seq
                                                    : std::numeric_limits<uint64_t>::max();
    env.AdvanceFeedback(bound);
    env.ApplyDecisionState(d);

    StatusOr<int> whatif_choice = kNotSelectDevice;
    {
      DecisionScope scope(options.recorder, env.devices(), static_cast<HookKind>(d.hook),
                          d.sim_ms, DecisionScope::Snapshot::kNone, d.device_id, d.task_id,
                          d.type_index);
      whatif_choice = DispatchDecision(policy, env, d, scope.recorder());
    }
    if (!whatif_choice.ok()) {
      return whatif_choice.status();
    }

    std::vector<TraceAction> whatif_actions = env.TakeActions();
    bool diverged = false;
    std::string detail;
    if (*whatif_choice != kNotSelectDevice && *whatif_choice != d.chosen_device) {
      diverged = true;
      detail = FormatChoiceDivergence(d, *whatif_choice);
    } else if (!SameActions(d.actions, whatif_actions)) {
      diverged = true;
      detail = FormatActionDivergence(d, whatif_actions);
    }
    if (diverged) {
      ++result.diverged_decisions;
      if (!result.diverged) {
        result.diverged = true;
        result.first_divergence_seq = d.seq;
        result.first_divergence_detail = std::move(detail);
      }
    }
    ++result.decisions_replayed;
  }

  result.probe_hits = source.hits();
  result.probe_sticky_hits = source.sticky_hits();
  result.probe_misses = source.misses();
  return result;
}

}  // namespace replay
}  // namespace mudi
