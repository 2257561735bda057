// Training tasks from arrival to completion: the runner records each task,
// starts it where the policy placed it, and advances its progress at the
// speed the oracle gives its co-location and configuration. It keeps the
// periodic-checkpoint ledger that a device failure rolls back to, resolves
// memory overcommit by host swap for swap-capable policies (§5.6), and owns
// the one removal sequence that completion and displacement share.
// Decisions stay with the policy and the harness; the runner carries them
// out.
#ifndef SRC_EXP_TRAINING_RUNNER_H_
#define SRC_EXP_TRAINING_RUNNER_H_

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/cluster/kv_store.h"
#include "src/cluster/policy.h"
#include "src/cluster/task_queue.h"
#include "src/core/memory_manager.h"
#include "src/exp/metrics.h"
#include "src/gpu/perf_oracle.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

class TrainingRunner {
 public:
  // A task displaced by a device failure resumes from its last checkpoint,
  // taken this often; progress since then is lost.
  static constexpr TimeMs kCheckpointPeriodMs = 60.0 * kMsPerSecond;

  // Places each task's key "/devices/<d>/tasks/<task_id>" in `registry`
  // while it runs and pushes arriving and displaced tasks onto `queue`.
  // Arrivals are traced on `scheduler_lane`. `colocation` is scratch space
  // shared with the serving path. `on_complete(device_id, task_id)` runs
  // when a task's work reaches zero.
  TrainingRunner(Simulator& sim, const PerfOracle& oracle, KvStore& registry, TaskQueue& queue,
                 Telemetry& telemetry, int scheduler_lane,
                 std::vector<ColocatedTraining>& colocation, bool swap,
                 std::function<void(int, int)> on_complete);

  // Records an arriving task and queues it for placement.
  void Arrive(const TrainingArrival& arrival);
  // Starts a queued task on the device the policy chose.
  void Place(GpuDevice& dev, const TrainingArrival& arrival);
  // Settles the task's progress up to now (no-op for a task not running).
  void Sync(GpuDevice& dev, int task_id);
  // Re-derives every resident task's speed and completion time under the
  // device's current co-location and configuration, with its inference
  // service absorbing `qps`.
  void UpdateSpeeds(GpuDevice& dev, double qps);
  // Resolves memory overcommit on `dev` by host swap (swap policies only;
  // the others never overcommit, placement enforces fit).
  void Rebalance(GpuDevice& dev);
  // The task finished: it leaves its device; returns its record.
  const TaskRecord& Complete(GpuDevice& dev, int task_id);
  // Checkpoint rollback and requeue of every training on a dying device.
  std::vector<TrainingTaskInfo> Displace(GpuDevice& dev);

  size_t running() const { return running_.size(); }
  TimeMs last_completion_ms() const { return last_completion_ms_; }
  // Task records, swap totals and displacement tallies.
  void Report(ExperimentResult& result) const;

 private:
  struct RunningTask {
    double speed = 0.0;  // full-GPU work ms per wall ms
    TimeMs last_sync_ms = 0.0;
    Simulator::EventId completion_event = Simulator::kInvalidEventId;
    // Periodic-checkpoint state: the exact work level at the last checkpoint
    // boundary, maintained lazily in Sync (speed is constant between syncs,
    // so boundary crossings are computed analytically).
    TimeMs next_checkpoint_ms = 0.0;
    double work_at_checkpoint = 0.0;
  };

  // The one removal sequence: settle progress, cancel the pending
  // completion, release swapped state, and take the task off its device and
  // out of the registry. Returns the instance and its checkpointed work.
  std::pair<TrainingInstance, double> Remove(GpuDevice& dev, int task_id);

  Simulator& sim_;
  const PerfOracle& oracle_;
  KvStore& registry_;
  TaskQueue& queue_;
  Telemetry& telemetry_;
  int scheduler_lane_;
  std::vector<ColocatedTraining>& colocation_;
  bool swap_;
  std::function<void(int, int)> on_complete_;
  MemoryManager memory_;
  std::map<int, RunningTask> running_;      // task_id -> runtime state
  std::map<int, TaskRecord> records_;       // task_id -> record
  std::map<int, TimeMs> displaced_at_;      // task_id -> displacement time
  TimeMs last_completion_ms_ = 0.0;
  size_t displaced_ = 0;
  size_t replaced_ = 0;
  double work_lost_ms_ = 0.0;
  double replacement_time_sum_ms_ = 0.0;
};

}  // namespace mudi

#endif  // SRC_EXP_TRAINING_RUNNER_H_
