#include "perfbench/src/timing.h"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "src/perf/mem_probe.h"

namespace perfbench {

namespace {

constexpr const char* kSpanNames[kNumSpans] = {
    "phase.construct",
    "phase.experiment_run",
    "phase.replay_load",
    "phase.run_whatif",
    "hook.initialize",
    "hook.select_device",
    "hook.on_training_placed",
    "hook.on_training_completed",
    "hook.on_qps_change",
    "hook.on_device_failed",
    "hook.on_device_recovered",
    "hook.on_control_plane_restart",
    "env.probe",
    "env.monitor_read",
    "env.apply",
};

uint64_t AllocationsNow() { return mudi::perf::ReadAllocStats().allocations; }

bool IsSetup(Span span) {
  return span == Span::kConstruct || span == Span::kReplayLoad || span == Span::kInitialize;
}

}  // namespace

const char* SpanName(Span span) { return kSpanNames[static_cast<size_t>(span)]; }

const char* HookMetricName(Span span) {
  // "hook.select_device" -> "select_device"
  return SpanName(span) + 5;
}

bool IsHook(Span span) { return span >= kFirstHook && span <= kLastHook; }

const char* ModuleName(Module module) {
  return module == Module::kCore ? "core" : "baselines";
}

Module ModuleOfPolicy(const std::string& policy_name) {
  return policy_name.rfind("Mudi", 0) == 0 ? Module::kCore : Module::kBaselines;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Probe::Probe(bool keep_spans) : keep_spans_(keep_spans) {
  stack_.reserve(16);
  if (keep_spans_) {
    records_.reserve(1 << 16);
  }
}

void Probe::Begin(Span kind) {
  Frame frame{kind, 0, 0, -1, 0, 0};
  if (kind == Span::kInitialize) {
    frame.allocs_at_start = AllocationsNow();
  }
  if (IsSetup(kind)) {
    frame.cpu_at_start = CpuNowNs();
  }
  if (keep_spans_) {
    if (records_.size() < kSpanCap) {
      frame.record = static_cast<int32_t>(records_.size());
      SpanRecord record;
      record.parent = stack_.empty() ? -1 : stack_.back().record;
      record.kind = kind;
      record.module = module_;
      records_.push_back(record);
    } else {
      truncated_ = true;
    }
  }
  stack_.push_back(frame);
  // Read the clock last so the bookkeeping above is charged to the parent.
  stack_.back().start_ns = NowNs();
}

void Probe::End() {
  int64_t end = NowNs();
  Frame frame = stack_.back();
  stack_.pop_back();
  int64_t dur = end - frame.start_ns;
  size_t m = static_cast<size_t>(module_);
  size_t k = static_cast<size_t>(frame.kind);
  SpanStats& s = stats_[m][k];
  ++s.calls;
  s.total_ns += dur;
  s.self_ns += dur - frame.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (IsHook(frame.kind)) {
    latencies_us_[m][k].push_back(static_cast<double>(dur) / 1e3);
  }
  if (frame.kind == Span::kInitialize) {
    initialize_allocations_ += AllocationsNow() - frame.allocs_at_start;
  }
  if (IsSetup(frame.kind)) {
    setup_cpu_ns_ += CpuNowNs() - frame.cpu_at_start;
  }
  if (frame.record >= 0) {
    SpanRecord& record = records_[static_cast<size_t>(frame.record)];
    record.start_ns = frame.start_ns;
    record.dur_ns = dur;
  }
}

SpanStats Probe::Total(Span kind) const {
  SpanStats total;
  for (size_t m = 0; m < kNumModules; ++m) {
    const SpanStats& s = stats_[m][static_cast<size_t>(kind)];
    total.calls += s.calls;
    total.total_ns += s.total_ns;
    total.self_ns += s.self_ns;
  }
  return total;
}

bool Probe::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.dur_ns;
    }
  }
  int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"truncated\":%s,\"traceEvents\":[\n",
               truncated_ ? "true" : "false");
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", SpanName(r.kind), ModuleName(r.module),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3,
                 static_cast<double>(r.dur_ns - child_ns[i]) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- TimedEnv ---------------------------------------------------------------

double TimedEnv::MeasuredQps(int device_id) {
  Scope scope(probe_, Span::kEnvMonitorRead);
  return inner_->MeasuredQps(device_id);
}

double TimedEnv::MeasuredP99(int device_id) {
  Scope scope(probe_, Span::kEnvMonitorRead);
  return inner_->MeasuredP99(device_id);
}

double TimedEnv::ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) {
  Scope scope(probe_, Span::kEnvProbe);
  return inner_->ProbeInferenceLatencyMs(device_id, batch, gpu_fraction);
}

double TimedEnv::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                     int inf_batch, double inf_fraction) {
  Scope scope(probe_, Span::kEnvProbe);
  return inner_->ProbeTrainingIterMs(device_id, task_id, train_fraction, inf_batch,
                                     inf_fraction);
}

void TimedEnv::ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) {
  Scope scope(probe_, Span::kEnvApply);
  inner_->ApplyInferenceConfig(device_id, batch, gpu_fraction);
}

void TimedEnv::ApplyTrainingFraction(int device_id, int task_id, double fraction) {
  Scope scope(probe_, Span::kEnvApply);
  inner_->ApplyTrainingFraction(device_id, task_id, fraction);
}

void TimedEnv::SetTrainingPaused(int device_id, int task_id, bool paused) {
  Scope scope(probe_, Span::kEnvApply);
  inner_->SetTrainingPaused(device_id, task_id, paused);
}

// --- TimedPolicy ------------------------------------------------------------

void TimedPolicy::Initialize(mudi::SchedulingEnv& env) {
  Scope scope(probe_, Span::kInitialize);
  inner_->Initialize(Bind(env));
}

std::optional<int> TimedPolicy::SelectDevice(mudi::SchedulingEnv& env,
                                             const mudi::TrainingTaskInfo& task) {
  Scope scope(probe_, Span::kSelectDevice);
  return inner_->SelectDevice(Bind(env), task);
}

void TimedPolicy::OnTrainingPlaced(mudi::SchedulingEnv& env, int device_id,
                                   const mudi::TrainingTaskInfo& task) {
  Scope scope(probe_, Span::kOnTrainingPlaced);
  inner_->OnTrainingPlaced(Bind(env), device_id, task);
}

void TimedPolicy::OnTrainingCompleted(mudi::SchedulingEnv& env, int device_id, int task_id) {
  Scope scope(probe_, Span::kOnTrainingCompleted);
  inner_->OnTrainingCompleted(Bind(env), device_id, task_id);
}

void TimedPolicy::OnQpsChange(mudi::SchedulingEnv& env, int device_id) {
  Scope scope(probe_, Span::kOnQpsChange);
  inner_->OnQpsChange(Bind(env), device_id);
}

void TimedPolicy::OnDeviceFailed(mudi::SchedulingEnv& env, int device_id,
                                 const std::vector<mudi::TrainingTaskInfo>& displaced) {
  Scope scope(probe_, Span::kOnDeviceFailed);
  inner_->OnDeviceFailed(Bind(env), device_id, displaced);
}

void TimedPolicy::OnDeviceRecovered(mudi::SchedulingEnv& env, int device_id) {
  Scope scope(probe_, Span::kOnDeviceRecovered);
  inner_->OnDeviceRecovered(Bind(env), device_id);
}

void TimedPolicy::OnControlPlaneRestart(mudi::SchedulingEnv& env) {
  Scope scope(probe_, Span::kOnControlPlaneRestart);
  inner_->OnControlPlaneRestart(Bind(env));
}

}  // namespace perfbench
