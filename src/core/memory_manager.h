// GPU Memory Manager (paper §5.6, module ⑧ of Fig. 6).
//
// Models the unified-memory middleware: a shared host/device pool where the
// inference service's allocations are pinned device-side and training-task
// memory is demand-swapped to the host when device memory is insufficient
// (e.g. the Tuner raised the inference batching size during a burst). When
// headroom returns, training memory migrates back. Transfers cost PCIe time
// and swapped-out training state slows iterations (paged access over UM).
#ifndef SRC_CORE_MEMORY_MANAGER_H_
#define SRC_CORE_MEMORY_MANAGER_H_

#include <map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/gpu/gpu_device.h"
#include "src/sim/simulator.h"

namespace mudi {

class Telemetry;

struct SwapRecord {
  TimeMs time_ms = 0.0;
  int device_id = -1;
  int task_id = -1;
  double mb = 0.0;
  bool to_host = false;  // true: device → host; false: host → device
  double transfer_ms = 0.0;
};

class MemoryManager {
 public:
  struct Options {
    // Effective PCIe bandwidth for UM page migration.
    double pcie_mb_per_ms = 12.0;
    // Keep at least this fraction of a training task's memory resident
    // (weights stay on device; only activations/optimizer state page out).
    double min_resident_fraction = 0.15;
    // Free-memory headroom required before swapping training memory back.
    double swap_in_headroom_mb = 1024.0;
  };

  MemoryManager();
  explicit MemoryManager(Options options);

  // Brings `device` to a consistent state: swaps training memory to the host
  // while the device is over capacity (inference has priority), and back to
  // the device when headroom allows. Returns total PCIe transfer time of the
  // operations performed; the caller charges it to the affected tasks.
  double Rebalance(GpuDevice& device, TimeMs now);

  // Drops all manager state for `task_id` on `device`: host-swapped pages are
  // reclaimed and a PCIe transfer still in flight for the task (one issued at
  // time t completes at t + transfer_ms) is aborted and counted. Call when a
  // task completes or its device fails, before removing the instance.
  // Returns NotFoundError when the task is not resident on `device` — never
  // admitted, already removed, or a double release.
  Status Release(GpuDevice& device, int task_id, TimeMs now);

  const std::vector<SwapRecord>& records() const { return records_; }
  double total_swapped_out_mb() const { return total_swapped_out_mb_; }
  size_t aborted_transfers() const { return aborted_transfers_; }
  double reclaimed_swap_mb() const { return reclaimed_swap_mb_; }

  // Emits "memory/swap_out" / "memory/swap_in" instant events on the affected
  // device's trace lane and maintains "memory.*" counters. Observational only.
  void SetTelemetry(Telemetry* telemetry);

 private:
  void RecordSwap(const SwapRecord& record);

  Options options_;
  std::vector<SwapRecord> records_;
  double total_swapped_out_mb_ = 0.0;
  size_t aborted_transfers_ = 0;
  double reclaimed_swap_mb_ = 0.0;
  // (device_id, task_id) -> virtual time the task's last PCIe transfer lands.
  std::map<std::pair<int, int>, TimeMs> transfer_busy_until_;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace mudi

#endif  // SRC_CORE_MEMORY_MANAGER_H_
