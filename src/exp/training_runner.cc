#include "src/exp/training_runner.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/replay/probe.h"

namespace mudi {
namespace {

std::string DeviceTaskKey(int device_id, int task_id) {
  return "/devices/" + std::to_string(device_id) + "/tasks/" + std::to_string(task_id);
}

}  // namespace

TrainingRunner::TrainingRunner(Simulator& sim, const PerfOracle& oracle, KvStore& registry,
                               TaskQueue& queue, Telemetry& telemetry, int scheduler_lane,
                               std::vector<ColocatedTraining>& colocation, bool swap,
                               std::function<void(int, int)> on_complete)
    : sim_(sim),
      oracle_(oracle),
      registry_(registry),
      queue_(queue),
      telemetry_(telemetry),
      scheduler_lane_(scheduler_lane),
      colocation_(colocation),
      swap_(swap),
      on_complete_(std::move(on_complete)) {
  memory_.SetTelemetry(&telemetry_);
}

void TrainingRunner::Arrive(const TrainingArrival& arrival) {
  TaskRecord record;
  record.task_id = arrival.task_id;
  record.type_index = arrival.type_index;
  record.arrival_ms = arrival.arrival_ms;
  records_[arrival.task_id] = record;
  telemetry_.Count("training.arrivals");
  MUDI_TRACE_INSTANT(&telemetry_, "training", "task_arrival", scheduler_lane_, arrival.arrival_ms,
                     telemetry::TraceArgs{
                         telemetry::TraceArg::Num("task_id", arrival.task_id),
                         telemetry::TraceArg::Str(
                             "type", ModelZoo::TrainingTasks()[arrival.type_index].name)});
  queue_.Push(PendingTask{arrival, /*priority=*/0});
}

void TrainingRunner::Place(GpuDevice& dev, const TrainingArrival& arrival) {
  const TrainingTaskSpec& spec = ModelZoo::TrainingTasks()[arrival.type_index];
  TimeMs now = sim_.Now();
  TrainingInstance instance;
  instance.task_id = arrival.task_id;
  instance.type_index = arrival.type_index;
  instance.gpu_fraction = 0.1;  // provisional until the policy configures
  instance.work_remaining_ms = arrival.work_full_gpu_ms;
  instance.mem_required_mb = TrainingMemoryMb(spec);
  instance.admitted_at_ms = now;
  dev.AddTraining(instance);
  Rebalance(dev);

  RunningTask running;
  running.last_sync_ms = now;
  running.next_checkpoint_ms = now + kCheckpointPeriodMs;
  running.work_at_checkpoint = arrival.work_full_gpu_ms;
  running_[arrival.task_id] = running;

  TaskRecord& record = records_[arrival.task_id];
  if (record.start_ms < 0.0) {
    record.start_ms = now;  // keep the first placement's queue wait
  }
  record.device_id = dev.id();
  registry_.Put(DeviceTaskKey(dev.id(), arrival.task_id), spec.name);

  // Re-placement of a fault-displaced task: time from displacement to the new
  // placement is the recovery latency reported in FaultMetrics.
  auto displaced_it = displaced_at_.find(arrival.task_id);
  if (displaced_it != displaced_at_.end()) {
    replacement_time_sum_ms_ += now - displaced_it->second;
    ++replaced_;
    displaced_at_.erase(displaced_it);
    telemetry_.Count("fault.trainings_replaced");
    MUDI_TRACE_INSTANT(&telemetry_, "fault", "training_replaced", dev.id(), now,
                       telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", arrival.task_id)});
  }

  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("training.placements").Increment();
    telemetry_.metrics()
        .GetHistogram("training.queue_wait_ms", telemetry::MetricsRegistry::DefaultLatencyBucketsMs())
        .Observe(record.start_ms - arrival.arrival_ms);
    MUDI_TRACE_INSTANT(&telemetry_, "placement", "place", dev.id(), record.start_ms,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", arrival.task_id),
                           telemetry::TraceArg::Str("type", spec.name),
                           telemetry::TraceArg::Num("queue_wait_ms",
                                                    record.start_ms - arrival.arrival_ms)});
  }
}

void TrainingRunner::Sync(GpuDevice& dev, int task_id) {
  auto it = running_.find(task_id);
  if (it == running_.end()) {
    return;
  }
  RunningTask& running = it->second;
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
    running.next_checkpoint_ms += kCheckpointPeriodMs;
  }
  double elapsed = now - running.last_sync_ms;
  if (elapsed > 0.0 && running.speed > 0.0) {
    instance->work_remaining_ms =
        std::max(0.0, instance->work_remaining_ms - running.speed * elapsed);
  }
  running.last_sync_ms = now;
}

void TrainingRunner::UpdateSpeeds(GpuDevice& dev, double qps) {
  const auto& tasks = ModelZoo::TrainingTasks();
  InferenceLoad load;
  load.spec = &ServiceOf(dev.inference());
  load.batch_size = dev.inference().batch_size;
  load.gpu_fraction = dev.inference().gpu_fraction;
  load.qps = qps;
  for (auto& instance : dev.mutable_trainings()) {
    auto it = running_.find(instance.task_id);
    if (it == running_.end()) {
      continue;
    }
    RunningTask& running = it->second;
    Sync(dev, instance.task_id);

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
    int device_id = dev.id();
    int task_id = instance.task_id;
    running.completion_event = sim_.ScheduleAfter(
        std::max(eta, 0.01), [this, device_id, task_id] { on_complete_(device_id, task_id); });
  }
}

void TrainingRunner::Rebalance(GpuDevice& dev) {
  if (swap_) {
    memory_.Rebalance(dev, sim_.Now());
  }
}

std::pair<TrainingInstance, double> TrainingRunner::Remove(GpuDevice& dev, int task_id) {
  auto it = running_.find(task_id);
  MUDI_CHECK(it != running_.end());
  Sync(dev, task_id);
  sim_.Cancel(it->second.completion_event);  // a no-op for the completion now firing
  double work_at_checkpoint = it->second.work_at_checkpoint;
  running_.erase(it);
  if (swap_) {
    MUDI_CHECK_OK(memory_.Release(dev, task_id, sim_.Now()));
  }
  TrainingInstance instance = dev.RemoveTraining(task_id);
  // The key was Put at placement, so a failed Delete means the registry and
  // device state diverged — a bookkeeping bug, not a recoverable error.
  MUDI_CHECK(registry_.Delete(DeviceTaskKey(dev.id(), task_id)));
  return {instance, work_at_checkpoint};
}

const TaskRecord& TrainingRunner::Complete(GpuDevice& dev, int task_id) {
  Remove(dev, task_id);
  TaskRecord& record = records_[task_id];
  record.completion_ms = sim_.Now();
  last_completion_ms_ = std::max(last_completion_ms_, record.completion_ms);
  telemetry_.Count("training.completions");
  MUDI_TRACE_COMPLETE(&telemetry_, "training", ModelZoo::TrainingTasks()[record.type_index].name,
                      dev.id(), record.start_ms, record.completion_ms - record.start_ms,
                      telemetry::TraceArgs{telemetry::TraceArg::Num("task_id", task_id)});
  Rebalance(dev);
  return record;
}

std::vector<TrainingTaskInfo> TrainingRunner::Displace(GpuDevice& dev) {
  TimeMs now = sim_.Now();
  std::vector<int> task_ids;
  for (const auto& t : dev.trainings()) {
    task_ids.push_back(t.task_id);
  }
  std::vector<TrainingTaskInfo> displaced;
  for (int task_id : task_ids) {
    // Removal settles progress first, so the checkpoint ledger covers every
    // boundary crossed before the failure instant; the task then resumes
    // from its last periodic checkpoint, redoing the progress made since.
    auto [instance, work_at_checkpoint] = Remove(dev, task_id);
    double resume_work = std::max(work_at_checkpoint, instance.work_remaining_ms);
    double lost = std::max(0.0, resume_work - instance.work_remaining_ms);
    TaskRecord& record = records_[task_id];
    ++record.failures;
    record.work_lost_ms += lost;
    work_lost_ms_ += lost;
    ++displaced_;
    displaced_at_[task_id] = now;

    TrainingArrival requeue;
    requeue.task_id = task_id;
    requeue.arrival_ms = now;
    requeue.type_index = instance.type_index;
    requeue.work_full_gpu_ms = std::max(resume_work, 1.0);
    queue_.Push(PendingTask{requeue, /*priority=*/0});
    displaced.push_back(TrainingTaskInfo{task_id, instance.type_index,
                                         &ModelZoo::TrainingTasks()[instance.type_index]});

    telemetry_.Count("fault.trainings_displaced");
    MUDI_TRACE_INSTANT(&telemetry_, "fault", "training_displaced", dev.id(), now,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", task_id),
                           telemetry::TraceArg::Num("work_lost_ms", lost),
                           telemetry::TraceArg::Num("resume_work_ms", requeue.work_full_gpu_ms)});
  }
  return displaced;
}

void TrainingRunner::Report(ExperimentResult& result) const {
  for (const auto& [id, record] : records_) {
    result.tasks.push_back(record);
  }
  result.swap_events = memory_.records().size();
  result.swap_total_mb = memory_.total_swapped_out_mb();
  FaultMetrics& fm = result.faults;
  fm.trainings_displaced = displaced_;
  fm.trainings_replaced = replaced_;
  fm.work_lost_ms = work_lost_ms_;
  fm.mean_replacement_ms =
      replaced_ == 0 ? 0.0 : replacement_time_sum_ms_ / static_cast<double>(replaced_);
}

}  // namespace mudi
