// The benchmark's three workloads (see perfbench/README.md):
//
//   serve-80gpu   10x8 GPUs, Mudi, fluctuating QPS, Philly-like trace
//   chaos-12gpu   3x4 GPUs, Mudi, device and control-plane chaos plans armed
//   whatif-sweep  one recorded Mudi trace replayed through every named policy
//
// A run repeats the workload until its time budget is spent. Each
// repetition is one operation: it starts with a cold FitCache, is timed from
// outside through the TimedPolicy/TimedEnv wrappers and phase spans, and
// fails if it breaks an invariant or its digest differs from the first
// repetition's. Reported values are medians over the passing repetitions;
// run_s and setup_s are scaled to the reference host (host_speed.h).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: keep spans, attach a PerfCollector, report per-layer metrics.
  bool traced = false;
  // Small clusters and short horizons, for the benchmark's self-tests.
  bool tiny = false;
  // Test hook: corrupt every repetition's result before the invariant check.
  bool force_invariant_failure = false;
  // Directory for generated inputs (the whatif-sweep trace); must exist.
  std::string work_dir = ".";
  // Traced runs: Chrome trace-event file for the last repetition's spans.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
  // End-to-end metrics (both modes) followed, in traced mode, by the
  // per-layer metrics.
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

// Returns false (with `error` set) for an unknown workload or unusable
// inputs; operation failures are counted in the report instead.
bool RunWorkload(const Config& config, Report* report, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
