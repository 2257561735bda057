// The scheduler's side of the device registry (DESIGN.md §13): how tuned
// inference configs reach the device agents, and how the scheduler rides
// out control-plane faults.
//
// Without a control fault plan the plane stays dormant: Deliver applies each
// config directly, and nothing touches the registry's degraded mode, its
// watches or an Rng stream, so the run stays byte-identical to one without
// the machinery (CtrlFaultRecoveryTest.* in tests/fault_test.cc pin this).
// Start() arms the fault domain. Configs then travel as registry Puts to
// per-device watches, guarded against reordering by revision and against
// double delivery by publication sequence. A heartbeat, a watch
// re-establishment loop and a recovery scan run beside them, the last two
// through the sanctioned Retrier.
#ifndef SRC_EXP_CONTROL_PLANE_H_
#define SRC_EXP_CONTROL_PLANE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/cluster/kv_store.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/exp/metrics.h"
#include "src/fault/control_fault_injector.h"
#include "src/fault/control_fault_plan.h"
#include "src/sim/retry.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

// Registry key of a device's health: "up", "down" or "failed".
std::string DeviceStatusKey(int device_id);

class ControlPlane final : public ControlFaultSink {
 public:
  // While the fault domain is armed, the coordinator heartbeats its epoch
  // into the registry this often, so the recovery scan can tell how stale
  // the registry's view of the scheduler is.
  static constexpr TimeMs kHeartbeatPeriodMs = 10.0 * kMsPerSecond;

  // `apply(device_id, batch, gpu_fraction)` is the device agent's endpoint;
  // `recovered()` runs once a restarted scheduler has rebuilt its view.
  ControlPlane(Simulator& sim, KvStore& registry, const ClusterState& cluster,
               Telemetry& telemetry, std::function<void(int, int, double)> apply,
               std::function<void()> recovered);

  // Turns on the degraded registry, registers the per-device config
  // watches, arms `plan` and starts the heartbeat. The plane's streams are
  // forked from `rng`.
  void Start(const ControlFaultPlan& plan, const Rng& rng);
  // Delivers a tuned config: applied directly while dormant, published to
  // the registry once armed.
  void Deliver(int device_id, int batch, double gpu_fraction);
  bool scheduler_up() const { return scheduler_up_; }
  // The fault and recovery aggregates (left zero while dormant).
  void Report(ControlMetrics& cm);

  // --- ControlFaultSink (driven by the ControlFaultInjector) ---
  void OnKvPartitionStart(TimeMs now) override;
  void OnKvPartitionEnd(TimeMs now) override;
  void OnWatchesLost(TimeMs now) override;
  void OnSchedulerCrash(TimeMs restart_delay_ms, TimeMs now) override;

 private:
  void RegisterConfigWatch(int device_id);
  // Watch endpoint: parse, guard revision and sequence, apply.
  void OnConfigDelivered(int device_id, const std::string& value, uint64_t revision);
  // Catch-up read of a device's config through the control path (after a
  // partition heals or a watch is re-established).
  Status CatchUpConfig(int device_id);
  // The recovery scan: reconstruct the scheduler's view from the registry.
  Status AttemptSchedulerRecovery();
  void FinishSchedulerRecovery();

  Simulator& sim_;
  KvStore& registry_;
  const ClusterState& cluster_;
  Telemetry& telemetry_;
  std::function<void(int, int, double)> apply_;
  std::function<void()> recovered_;
  std::unique_ptr<ControlFaultInjector> injector_;
  bool active_ = false;
  bool scheduler_up_ = true;
  TimeMs scheduler_crashed_at_ = 0.0;
  size_t scheduler_recoveries_ = 0;
  double recovery_ms_sum_ = 0.0;
  size_t configs_published_ = 0;
  size_t configs_applied_ = 0;
  size_t stale_scan_entries_ = 0;
  uint64_t ckpt_epoch_ = 0;
  std::vector<KvStore::WatchId> config_watches_;  // per device; 0 = none
  std::vector<uint64_t> config_applied_rev_;      // monotonic delivery guard
  // Highest publication sequence number applied per device: catch-up reads
  // re-deliver the same publication, and this keeps configs_applied_ a true
  // count of publications that reached the device (never double-counted).
  std::vector<uint64_t> config_applied_seq_;
  // Retriers for the two retried control flows, built by Start so dormant
  // runs never touch them.
  std::unique_ptr<Retrier> recovery_retrier_;
  std::unique_ptr<Retrier> watch_retrier_;
};

}  // namespace mudi

#endif  // SRC_EXP_CONTROL_PLANE_H_
