#include "perfbench/src/host_speed.h"

#include <cmath>

#include "src/common/wallclock.h"

namespace perfbench {

namespace {

constexpr uint32_t kEntities = 1u << 16;
constexpr uint32_t kEntityDoubles = 8;  // 64 bytes: 6-slot ring, sum, count
constexpr uint32_t kPending = 4096;
constexpr int kEventSteps = 300000;
constexpr int kArithmeticSteps = 20000000;

uint64_t XorShift(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// Uniform in (0, 1].
double Uniform(uint64_t& state) {
  return static_cast<double>((XorShift(state) >> 11) + 1) * 0x1.0p-53;
}

}  // namespace

HostSpeedKernels::HostSpeedKernels()
    : entities_(static_cast<size_t>(kEntities) * kEntityDoubles, 0.0),
      event_time_(kPending),
      event_entity_(kPending) {}

double HostSpeedKernels::EventLoopSeconds() {
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  // Increasing start times make the array a valid min-heap.
  for (uint32_t i = 0; i < kPending; ++i) {
    event_time_[i] = static_cast<double>(i) * 1e-3;
    event_entity_[i] = static_cast<uint32_t>(XorShift(rng) % kEntities);
  }
  // Bring the table back into cache, untimed, so the pass does not depend on
  // how much of it the simulator evicted before.
  double checksum = 0.0;
  for (double v : entities_) {
    checksum += v;
  }
  mudi::WallTimer timer;
  for (int step = 0; step < kEventSteps; ++step) {
    // Fire the earliest event: record it in its entity's ring.
    const double now = event_time_[0];
    double* entity = &entities_[static_cast<size_t>(event_entity_[0]) * kEntityDoubles];
    const uint32_t count = static_cast<uint32_t>(entity[7]);
    const double evicted = entity[count % 6];
    entity[count % 6] = now;
    entity[6] += now - evicted;
    entity[7] = static_cast<double>(count + 1);
    checksum += entity[6];

    // Schedule its successor in place of it and restore the heap.
    const double time = now - std::log(Uniform(rng)) * 4.0;
    const uint32_t id = static_cast<uint32_t>(XorShift(rng) % kEntities);
    uint32_t hole = 0;
    for (;;) {
      uint32_t child = 2 * hole + 1;
      if (child >= kPending) {
        break;
      }
      if (child + 1 < kPending && event_time_[child + 1] < event_time_[child]) {
        ++child;
      }
      if (event_time_[child] >= time) {
        break;
      }
      event_time_[hole] = event_time_[child];
      event_entity_[hole] = event_entity_[child];
      hole = child;
    }
    event_time_[hole] = time;
    event_entity_[hole] = id;
  }
  const double seconds = timer.ElapsedSeconds();
  volatile double sink = checksum;
  (void)sink;
  return seconds;
}

double HostSpeedKernels::ArithmeticSeconds() {
  mudi::WallTimer timer;
  double x = 1.0;
  for (int i = 0; i < kArithmeticSteps; ++i) {
    x = x * 1.0000001 + 1e-9;
  }
  const double seconds = timer.ElapsedSeconds();
  volatile double sink = x;
  (void)sink;
  return seconds;
}

}  // namespace perfbench
