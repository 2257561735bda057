// Host-speed calibration for the benchmark's timings.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over minutes as other tenants' load comes and goes, far more than the
// changes the benchmark must resolve. Each repetition therefore also times
// two fixed kernels, and the end-to-end timings are reported scaled to a
// reference host on which each kernel takes its reference time:
//
//   reported = measured * kernel_reference_s / kernel_measured_s
//
// The kernels are compiled into the benchmark, call no simulator code and do
// not allocate while timed, so a change to the simulator (or the counting
// allocation hook of the traced binary) cannot move them:
//
//   EventLoopKernel   a binary-heap event loop updating per-entity state in a
//                     4 MiB table: the simulator's kind of work (one thread,
//                     cache- and branch-bound); scales `run_s`.
//   ArithmeticKernel  a dependent floating-point chain: the kind of work of
//                     Mudi's offline fit; scales `setup_s`.
#ifndef PERFBENCH_SRC_HOST_SPEED_H_
#define PERFBENCH_SRC_HOST_SPEED_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeedKernels {
 public:
  HostSpeedKernels();

  // Wall seconds of one pass of each kernel.
  double EventLoopSeconds();
  double ArithmeticSeconds();

 private:
  // Per-entity state, kEntityDoubles doubles each.
  std::vector<double> entities_;
  // Pending events as a binary min-heap on time.
  std::vector<double> event_time_;
  std::vector<uint32_t> event_entity_;
};

// Each kernel's time on the reference host (a quiet 4-vCPU Xeon VM at
// 2.1 GHz). Fixed: changing them rescales every reported timing.
inline constexpr double kEventLoopReferenceS = 0.05;
inline constexpr double kArithmeticReferenceS = 0.05;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_SPEED_H_
