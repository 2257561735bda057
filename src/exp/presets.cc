#include "src/exp/presets.h"

#include "src/baselines/gpulets_policy.h"
#include "src/baselines/gslice_policy.h"
#include "src/baselines/muxflow_policy.h"
#include "src/baselines/optimal_policy.h"
#include "src/baselines/random_policy.h"
#include "src/common/check.h"
#include "src/core/mudi_policy.h"

namespace mudi {

namespace {

// Per-replica fluctuating request rate centred on the paper's 200 QPS
// (Poisson with 5 ms mean inter-arrival), with Fig. 1(a)-style random
// drift so the Monitor's QPS-change triggers fire during the run.
std::function<std::shared_ptr<const QpsProfile>(size_t, int)> FluctuatingFactory(uint64_t seed) {
  return [seed](size_t service_index, int device_id) -> std::shared_ptr<const QpsProfile> {
    FluctuatingQps::Options options;
    options.min_qps = 130.0;
    options.max_qps = 250.0;
    options.horizon_ms = 6.0 * kMsPerHour;
    options.step_ms = 5.0 * kMsPerSecond;
    options.inflection_prob = 0.03;
    options.seed = seed * 1000003ull + static_cast<uint64_t>(device_id) * 131ull +
                   static_cast<uint64_t>(service_index);
    return std::make_shared<FluctuatingQps>(options);
  };
}

}  // namespace

ExperimentOptions PhysicalClusterOptions(size_t num_tasks, uint64_t seed) {
  ExperimentOptions options;
  options.num_nodes = 3;
  options.gpus_per_node = 4;
  options.num_services = 6;
  options.seed = seed;
  options.qps_factory = FluctuatingFactory(seed);

  options.trace.num_tasks = num_tasks;
  options.trace.mean_interarrival_ms = 5.0 * kMsPerSecond;
  options.trace.duration_compression = 800.0;
  options.trace.diurnal = true;
  options.trace.seed = seed + 100;
  return options;
}

ExperimentOptions SimulatedClusterOptions(size_t num_tasks, uint64_t seed) {
  ExperimentOptions options;
  options.num_nodes = 250;
  options.gpus_per_node = 4;
  options.num_services = 6;
  options.seed = seed;
  options.qps_factory = FluctuatingFactory(seed + 7);

  options.trace.num_tasks = num_tasks;
  // Arrival process scaled ×80 relative to the physical cluster (§7.1).
  options.trace.mean_interarrival_ms = 5.0 * kMsPerSecond / 80.0;
  options.trace.duration_compression = 1200.0;
  options.trace.diurnal = true;
  options.trace.seed = seed + 200;

  // Coarser cohorts keep the 1000-device event rate tractable.
  options.arrival_tick_ms = 20.0;
  return options;
}

ExperimentOptions ChaosClusterOptions(size_t num_tasks, uint64_t seed) {
  ExperimentOptions options = PhysicalClusterOptions(num_tasks, seed);
  options.fault_plan = StandardChaosPlan(options.num_nodes * options.gpus_per_node,
                                         options.num_nodes);
  return options;
}

std::unique_ptr<MultiplexPolicy> MakePolicy(const std::string& name,
                                            const PerfOracle& profiling_oracle) {
  if (name == "Mudi") {
    return std::make_unique<MudiPolicy>(profiling_oracle);
  }
  if (name == "Mudi-more") {
    MudiPolicy::Options options;
    options.max_trainings_per_device = 3;
    return std::make_unique<MudiPolicy>(profiling_oracle, options);
  }
  if (name == "Mudi-cluster-only") {
    MudiPolicy::Options options;
    options.device_policy = MudiPolicy::DevicePolicy::kStatic;
    return std::make_unique<MudiPolicy>(profiling_oracle, options);
  }
  if (name == "Mudi-device-only") {
    MudiPolicy::Options options;
    options.cluster_policy = MudiPolicy::ClusterPolicy::kRandom;
    return std::make_unique<MudiPolicy>(profiling_oracle, options);
  }
  if (name == "GSLICE") {
    return std::make_unique<GslicePolicy>();
  }
  if (name == "gpulets") {
    return std::make_unique<GpuletsPolicy>();
  }
  if (name == "MuxFlow") {
    return std::make_unique<MuxflowPolicy>(profiling_oracle);
  }
  if (name == "Random") {
    return std::make_unique<RandomPolicy>();
  }
  if (name == "Optimal") {
    return std::make_unique<OptimalPolicy>();
  }
  MUDI_CHECK(false);
  __builtin_unreachable();
}

std::vector<std::string> EndToEndSystemNames() {
  return {"Mudi", "GSLICE", "gpulets", "MuxFlow"};
}

void ScaleQps(ExperimentOptions& options, double factor) {
  MUDI_CHECK_GT(factor, 0.0);
  auto base = options.qps_factory;
  MUDI_CHECK(base != nullptr);
  options.qps_factory = [base, factor](size_t service_index,
                                       int device_id) -> std::shared_ptr<const QpsProfile> {
    return std::make_shared<ScaledQps>(base(service_index, device_id), factor);
  };
}

}  // namespace mudi
