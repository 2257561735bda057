// Outside-in timing for the benchmark: wrappers that time every call a
// policy receives (MultiplexPolicy hooks) and every call it makes back into
// the runtime (SchedulingEnv), plus phase spans the drivers open around
// construction, ClusterExperiment::Run, ReplaySource::Load and RunWhatIf.
//
// Nothing here touches simulator internals: the wrappers forward through the
// public interfaces, so a wrapped run must produce bit-identical results to
// an unwrapped one (the result digest checks this).
//
// Every span maintains inclusive and self time (duration minus the time of
// its direct children) online with a small stack, so aggregates cost the
// same whether or not spans are kept. A traced Probe additionally keeps the
// span records (up to a cap) for WriteChromeTrace.
#ifndef PERFBENCH_SRC_TIMING_H_
#define PERFBENCH_SRC_TIMING_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/policy.h"

namespace perfbench {

enum class Span : uint8_t {
  // Phases (opened by the workload drivers).
  kConstruct,      // policy + environment construction
  kExperimentRun,  // ClusterExperiment::Run
  kReplayLoad,     // replay::ReplaySource::Load
  kRunWhatIf,      // replay::RunWhatIf
  // Policy hooks (TimedPolicy).
  kInitialize,
  kSelectDevice,
  kOnTrainingPlaced,
  kOnTrainingCompleted,
  kOnQpsChange,
  kOnDeviceFailed,
  kOnDeviceRecovered,
  kOnControlPlaneRestart,
  // Calls a hook makes into the runtime (TimedEnv).
  kEnvProbe,        // what-if probes answered by the oracle (or the trace)
  kEnvMonitorRead,  // MeasuredQps / MeasuredP99
  kEnvApply,        // ApplyInferenceConfig / ApplyTrainingFraction / SetTrainingPaused
  kCount,
};
inline constexpr size_t kNumSpans = static_cast<size_t>(Span::kCount);

const char* SpanName(Span span);
// Snake-case hook name for metric keys ("select_device"); hooks only.
const char* HookMetricName(Span span);
bool IsHook(Span span);
inline constexpr Span kFirstHook = Span::kInitialize;
inline constexpr Span kLastHook = Span::kOnControlPlaneRestart;

// Which layer the wrapped policy belongs to: Mudi and its variants live in
// src/core, everything else in src/baselines.
enum class Module : uint8_t { kCore, kBaselines, kCount };
inline constexpr size_t kNumModules = static_cast<size_t>(Module::kCount);
const char* ModuleName(Module module);
Module ModuleOfPolicy(const std::string& policy_name);

struct SpanStats {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int32_t parent = -1;  // index into the record vector, -1 = root
  Span kind = Span::kCount;
  Module module = Module::kCore;
};

int64_t NowNs();
// Process CPU time, all threads.
int64_t CpuNowNs();

class Probe {
 public:
  // `keep_spans`: store span records for WriteChromeTrace (traced runs),
  // up to kSpanCap of them.
  static constexpr size_t kSpanCap = 500000;
  explicit Probe(bool keep_spans);

  void set_module(Module module) { module_ = module; }

  void Begin(Span kind);
  void End();

  const SpanStats& stats(Module module, Span kind) const {
    return stats_[static_cast<size_t>(module)][static_cast<size_t>(kind)];
  }
  // Summed over modules.
  SpanStats Total(Span kind) const;
  // Inclusive hook latencies in microseconds, per module and hook.
  const std::vector<double>& hook_latencies_us(Module module, Span hook) const {
    return latencies_us_[static_cast<size_t>(module)][static_cast<size_t>(hook)];
  }

  // Allocation count inside Initialize hooks (from perf::ReadAllocStats;
  // zero unless the counting allocation hook is linked in).
  uint64_t initialize_allocations() const { return initialize_allocations_; }

  // Process CPU seconds (all threads) inside set-up spans: construction,
  // ReplaySource::Load and Initialize. Initialize fans its fit out over
  // MUDI_FIT_THREADS workers, so its wall time depends on how many cores
  // are free at the moment; its CPU time measures the set-up work itself.
  double setup_cpu_s() const { return static_cast<double>(setup_cpu_ns_) / 1e9; }

  bool truncated() const { return truncated_; }

  // Chrome trace-event JSON (open in Perfetto or chrome://tracing); each
  // event carries its self time in args.self_us.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    Span kind;
    int64_t start_ns;
    int64_t child_ns;
    int32_t record;
    uint64_t allocs_at_start;
    int64_t cpu_at_start;
  };

  bool keep_spans_;
  bool truncated_ = false;
  Module module_ = Module::kCore;
  std::vector<Frame> stack_;
  std::array<std::array<SpanStats, kNumSpans>, kNumModules> stats_{};
  std::array<std::array<std::vector<double>, kNumSpans>, kNumModules> latencies_us_;
  std::vector<SpanRecord> records_;
  uint64_t initialize_allocations_ = 0;
  int64_t setup_cpu_ns_ = 0;
};

// RAII span.
class Scope {
 public:
  Scope(Probe& probe, Span kind) : probe_(probe) { probe_.Begin(kind); }
  ~Scope() { probe_.End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Probe& probe_;
};

// The SchedulingEnv handed to the wrapped policy: forwards everything to the
// runtime's env; times probes, monitor reads and actuations.
class TimedEnv final : public mudi::SchedulingEnv {
 public:
  explicit TimedEnv(Probe& probe) : probe_(probe) {}
  void Bind(mudi::SchedulingEnv& inner) { inner_ = &inner; }

  mudi::TimeMs Now() const override { return inner_->Now(); }
  std::vector<mudi::GpuDevice>& devices() override { return inner_->devices(); }
  const mudi::GpuDevice& device(int device_id) const override {
    return inner_->device(device_id);
  }
  const mudi::InferenceServiceSpec& ServiceOnDevice(int device_id) const override {
    return inner_->ServiceOnDevice(device_id);
  }
  double MeasuredQps(int device_id) override;
  double MeasuredP99(int device_id) override;
  double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) override;
  double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction, int inf_batch,
                             double inf_fraction) override;
  void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) override;
  void ApplyTrainingFraction(int device_id, int task_id, double fraction) override;
  void SetTrainingPaused(int device_id, int task_id, bool paused) override;
  bool CanFitTraining(int device_id, const mudi::TrainingTaskSpec& spec) const override {
    return inner_->CanFitTraining(device_id, spec);
  }
  const mudi::PerfOracle& oracle() const override { return inner_->oracle(); }
  mudi::Telemetry* telemetry() override { return inner_->telemetry(); }
  mudi::perf::PerfCollector* perf() override { return inner_->perf(); }
  mudi::replay::DecisionSink* recorder() override { return inner_->recorder(); }
  mudi::replay::PredictionReplay* replay() override { return inner_->replay(); }

 private:
  Probe& probe_;
  mudi::SchedulingEnv* inner_ = nullptr;
};

// The policy handed to the runtime: times every hook and forwards it, with a
// TimedEnv in place of the runtime's env, to the wrapped policy. The
// protected overhead recorders cannot be forwarded, so read
// tuning_iterations() from inner(), not from the wrapper.
class TimedPolicy final : public mudi::MultiplexPolicy {
 public:
  TimedPolicy(std::unique_ptr<mudi::MultiplexPolicy> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe), env_(probe) {}

  const mudi::MultiplexPolicy& inner() const { return *inner_; }

  std::string name() const override { return inner_->name(); }
  void Initialize(mudi::SchedulingEnv& env) override;
  std::optional<int> SelectDevice(mudi::SchedulingEnv& env,
                                  const mudi::TrainingTaskInfo& task) override;
  void OnTrainingPlaced(mudi::SchedulingEnv& env, int device_id,
                        const mudi::TrainingTaskInfo& task) override;
  void OnTrainingCompleted(mudi::SchedulingEnv& env, int device_id, int task_id) override;
  void OnQpsChange(mudi::SchedulingEnv& env, int device_id) override;
  void OnDeviceFailed(mudi::SchedulingEnv& env, int device_id,
                      const std::vector<mudi::TrainingTaskInfo>& displaced) override;
  void OnDeviceRecovered(mudi::SchedulingEnv& env, int device_id) override;
  void OnControlPlaneRestart(mudi::SchedulingEnv& env) override;
  int MaxTrainingsPerDevice() const override { return inner_->MaxTrainingsPerDevice(); }
  bool SupportsMemorySwap() const override { return inner_->SupportsMemorySwap(); }

 private:
  mudi::SchedulingEnv& Bind(mudi::SchedulingEnv& env) {
    env_.Bind(env);
    return env_;
  }

  std::unique_ptr<mudi::MultiplexPolicy> inner_;
  Probe& probe_;
  TimedEnv env_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMING_H_
