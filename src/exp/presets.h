// Canonical experiment configurations and policy factories matching the
// paper's setups (§7.1): the 12-GPU "physical" cluster (3 nodes × 4 A100,
// 300 training tasks) and the 1000-GPU "simulated" cluster (5000 tasks,
// arrivals scaled ×80). Benches share these so every figure runs against
// the same setup the corresponding paper experiment used.
#ifndef SRC_EXP_PRESETS_H_
#define SRC_EXP_PRESETS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/policy.h"
#include "src/exp/cluster_experiment.h"
#include "src/gpu/perf_oracle.h"

namespace mudi {

// The 3×4-A100 physical-cluster setup. `num_tasks` defaults to the paper's
// 300 small-scale workload; benches that only need serving behaviour pass 0
// and set a horizon.
ExperimentOptions PhysicalClusterOptions(size_t num_tasks = 300, uint64_t seed = 5);

// The 1000-GPU simulated-cluster setup (5000 tasks by default). Durations
// and arrivals are compressed more aggressively so benches stay fast; the
// scheduling structure (queueing, co-location churn) is preserved.
ExperimentOptions SimulatedClusterOptions(size_t num_tasks = 5000, uint64_t seed = 5);

// The physical-cluster setup with the standard chaos schedule armed
// (StandardChaosPlan: transient GPU failure, straggler episode, monitor
// feedback loss, one permanent GPU failure, one transient node failure).
// Identical to PhysicalClusterOptions apart from the fault plan, so
// side-by-side runs isolate the availability cost of the faults.
ExperimentOptions ChaosClusterOptions(size_t num_tasks = 120, uint64_t seed = 5);

// Named policy factory. `profiling_oracle` must outlive the returned policy
// (it backs Mudi's and MuxFlow's offline profiling) and must be configured
// with the same seed as the experiment's runtime oracle so offline profiles
// describe the same hardware.
std::unique_ptr<MultiplexPolicy> MakePolicy(const std::string& name,
                                            const PerfOracle& profiling_oracle);

// The four end-to-end systems of Fig. 8/9: Mudi, GSLICE, gpulets, MuxFlow.
std::vector<std::string> EndToEndSystemNames();

// Applies a uniform QPS scale factor (Fig. 15 heavy loads).
void ScaleQps(ExperimentOptions& options, double factor);

}  // namespace mudi

#endif  // SRC_EXP_PRESETS_H_
