// The serving data plane: one ServingReplica per device holds its inference
// service's request cohorts, batch formation with a timeout, overload
// shedding, QPS/latency monitor and SLO-window tallies; FailReplica at the
// bottom fails a replica over to the survivors of its service.
//
// A replica is a plain value with no pointer back to the harness. Every
// handler takes the ServingContext all replicas share (event engine, the
// run's Rng, the oracle, telemetry) and the GpuDevice it serves, so a
// replica runs on its own in tests. Events a replica arms capture its
// address: it must not move while events are pending (the harness sizes its
// replica vector once).
#ifndef SRC_EXP_SERVING_REPLICA_H_
#define SRC_EXP_SERVING_REPLICA_H_

#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/cluster/monitor.h"
#include "src/common/rng.h"
#include "src/gpu/gpu_device.h"
#include "src/gpu/perf_oracle.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/request_generator.h"

namespace mudi {

struct Cohort {
  TimeMs arrival_ms;
  double count;
};

// What every replica shares. Draws come from the one Rng of the run, in
// event order. The metric handles are resolved once when telemetry is
// enabled (null otherwise), so no batch or window close looks a metric up
// by name.
struct ServingContext {
  ServingContext(Simulator& sim, Rng& rng, const PerfOracle& oracle, Telemetry& telemetry,
                 TimeMs arrival_tick_ms);

  Simulator& sim;
  Rng& rng;
  const PerfOracle& oracle;
  Telemetry& telemetry;
  TimeMs arrival_tick_ms;  // 0 = auto (SLO/15 clamped to [5, 100] ms)
  telemetry::Counter* batches = nullptr;
  telemetry::Counter* requests = nullptr;
  telemetry::Counter* shed = nullptr;
  telemetry::Histogram* batch_latency = nullptr;
  telemetry::Counter* windows_total = nullptr;
  telemetry::Counter* windows_violated = nullptr;
  telemetry::Counter* windows_violated_failure = nullptr;
  // Co-location scratch for batch service (and the training runner's speed
  // updates), capacity kept across calls.
  std::vector<ColocatedTraining> colocation;
  // Failover outcomes across the fleet.
  double failed_requests = 0.0;
  double rerouted_requests = 0.0;
};

struct ServingReplica {
  // Queue cap as a multiple of the batching size: beyond it, the oldest
  // cohorts are shed and charged kPenaltySlos x SLO (overload). Requests a
  // failure kills are charged the same.
  static constexpr double kQueueCapBatches = 50.0;
  static constexpr double kPenaltySlos = 10.0;
  static constexpr TimeMs kSloWindowMs = 10.0 * kMsPerSecond;

  // Arms the periodic arrival tick and SLO window, one period after `now`.
  void Start(ServingContext& ctx, GpuDevice& dev, TimeMs now);
  // The device came back: fresh monitor and window, failover arrivals off.
  void Restart(ServingContext& ctx, GpuDevice& dev, TimeMs now);
  void ArrivalTick(ServingContext& ctx, GpuDevice& dev);
  void TryStartBatch(ServingContext& ctx, GpuDevice& dev);
  void FinishBatch(ServingContext& ctx, GpuDevice& dev, double latency_ms);
  void CloseSloWindow(ServingContext& ctx, const GpuDevice& dev);

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

// Device `device_id` just went down: stops its replica's events, fails the
// in-flight batch, re-routes the queue to surviving replicas of its service
// (round-robin; counted failed when none survives), judges the partial
// window as failure-attributed, and keeps the service's request stream
// flowing to the survivors until Restart.
void FailReplica(ServingContext& ctx, std::vector<ServingReplica>& replicas,
                 std::vector<GpuDevice>& devices, int device_id, TimeMs now);

}  // namespace mudi

#endif  // SRC_EXP_SERVING_REPLICA_H_
