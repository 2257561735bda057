#include "src/core/memory_manager.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

MemoryManager::MemoryManager() : MemoryManager(Options{}) {}

MemoryManager::MemoryManager(Options options) : options_(options) {
  MUDI_CHECK_GT(options_.pcie_mb_per_ms, 0.0);
  MUDI_CHECK_GE(options_.min_resident_fraction, 0.0);
  MUDI_CHECK_LT(options_.min_resident_fraction, 1.0);
}

double MemoryManager::Rebalance(GpuDevice& device, TimeMs now) {
  double transfer_ms = 0.0;

  // Phase 1: swap out while over capacity. Inference memory is pinned; we
  // page out training memory, largest resident working set first so fewer
  // tasks are disturbed.
  double deficit = device.MemoryDeficitMb();
  if (deficit > 0.0) {
    auto& trainings = device.mutable_trainings();
    std::vector<TrainingInstance*> order;
    order.reserve(trainings.size());
    for (auto& t : trainings) {
      order.push_back(&t);
    }
    std::sort(order.begin(), order.end(), [](const TrainingInstance* a,
                                             const TrainingInstance* b) {
      return a->mem_resident_mb() > b->mem_resident_mb();
    });
    for (TrainingInstance* t : order) {
      if (deficit <= 0.0) {
        break;
      }
      double min_resident = options_.min_resident_fraction * t->mem_required_mb;
      double can_release = t->mem_resident_mb() - min_resident;
      if (can_release <= 0.0) {
        continue;
      }
      double mb = std::min(deficit, can_release);
      t->mem_swapped_mb += mb;
      deficit -= mb;
      double ms = mb / options_.pcie_mb_per_ms;
      transfer_ms += ms;
      total_swapped_out_mb_ += mb;
      SwapRecord record{now, device.id(), t->task_id, mb, /*to_host=*/true, ms};
      RecordSwap(record);
      records_.push_back(record);
      TimeMs& busy = transfer_busy_until_[{device.id(), t->task_id}];
      busy = std::max(busy, now + ms);
    }
  }

  // Phase 2: swap back in when there is comfortable headroom.
  double headroom = device.MemoryFreeMb() - options_.swap_in_headroom_mb;
  if (headroom > 0.0) {
    for (auto& t : device.mutable_trainings()) {
      if (headroom <= 0.0) {
        break;
      }
      if (t.mem_swapped_mb <= 0.0) {
        continue;
      }
      double mb = std::min(headroom, t.mem_swapped_mb);
      t.mem_swapped_mb -= mb;
      headroom -= mb;
      double ms = mb / options_.pcie_mb_per_ms;
      transfer_ms += ms;
      SwapRecord record{now, device.id(), t.task_id, mb, /*to_host=*/false, ms};
      RecordSwap(record);
      records_.push_back(record);
      TimeMs& busy = transfer_busy_until_[{device.id(), t.task_id}];
      busy = std::max(busy, now + ms);
    }
  }
  return transfer_ms;
}

Status MemoryManager::Release(GpuDevice& device, int task_id, TimeMs now) {
  TrainingInstance* training = device.FindTraining(task_id);
  if (training == nullptr) {
    return NotFoundError("memory manager: task " + std::to_string(task_id) +
                         " not resident on device " + std::to_string(device.id()));
  }
  auto busy_it = transfer_busy_until_.find({device.id(), task_id});
  bool aborted = busy_it != transfer_busy_until_.end() && now < busy_it->second;
  if (aborted) {
    ++aborted_transfers_;
  }
  if (busy_it != transfer_busy_until_.end()) {
    transfer_busy_until_.erase(busy_it);
  }
  double reclaimed = training->mem_swapped_mb;
  reclaimed_swap_mb_ += reclaimed;
  training->mem_swapped_mb = 0.0;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().GetCounter("memory.releases").Increment();
    if (aborted) {
      telemetry_->metrics().GetCounter("memory.aborted_transfers").Increment();
    }
    if (reclaimed > 0.0) {
      telemetry_->metrics().GetCounter("memory.reclaimed_mb").Increment(reclaimed);
    }
    MUDI_TRACE_INSTANT(telemetry_, "memory", "release", device.id(), now,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("task_id", task_id),
                           telemetry::TraceArg::Num("reclaimed_mb", reclaimed),
                           telemetry::TraceArg::Num("aborted", aborted ? 1.0 : 0.0)});
  }
  return Status::Ok();
}

void MemoryManager::SetTelemetry(Telemetry* telemetry) {
  telemetry_ = (telemetry != nullptr && telemetry->enabled()) ? telemetry : nullptr;
}

void MemoryManager::RecordSwap(const SwapRecord& record) {
  if (telemetry_ == nullptr) {
    return;
  }
  auto& metrics = telemetry_->metrics();
  const char* name = record.to_host ? "swap_out" : "swap_in";
  if (record.to_host) {
    metrics.GetCounter("memory.swaps_out").Increment();
    metrics.GetCounter("memory.swapped_out_mb").Increment(record.mb);
  } else {
    metrics.GetCounter("memory.swaps_in").Increment();
    metrics.GetCounter("memory.swapped_in_mb").Increment(record.mb);
  }
  metrics.GetCounter("memory.transfer_ms").Increment(record.transfer_ms);
  MUDI_TRACE_INSTANT(telemetry_, "memory", name, record.device_id, record.time_ms,
                     telemetry::TraceArgs{
                         telemetry::TraceArg::Num("task_id", record.task_id),
                         telemetry::TraceArg::Num("mb", record.mb),
                         telemetry::TraceArg::Num("transfer_ms", record.transfer_ms)});
}

}  // namespace mudi
