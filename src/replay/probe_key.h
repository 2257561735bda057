// Content-addressed keys for what-if probe observations.
//
// A probe's result is fully determined by its inputs (the oracle is a pure
// function of them plus seeded noise), so record and replay agree on a key by
// hashing the effective inputs the probe pipeline (probe.h) passes to the
// PerfOracle. Both run modes key probes through that one pipeline: a
// recording run stores each answer under its key, and a replay looks the
// same key up. Keys are FNV-1a 64 over the raw bit patterns, so two probes
// collide only when the oracle would have been asked the identical question
// — which is exactly when serving the recorded answer is sound.
#ifndef SRC_REPLAY_PROBE_KEY_H_
#define SRC_REPLAY_PROBE_KEY_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/gpu/perf_oracle.h"
#include "src/workload/models.h"

namespace mudi {
namespace replay {

// FNV-1a 64 over explicitly mixed-in words; byte-order independent of host
// (values are mixed little-endian byte by byte).
class KeyHasher {
 public:
  KeyHasher& Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
    return *this;
  }
  KeyHasher& Mix(int64_t v) { return Mix(static_cast<uint64_t>(v)); }
  KeyHasher& Mix(int v) { return Mix(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  KeyHasher& Mix(uint32_t v) { return Mix(static_cast<uint64_t>(v)); }
  KeyHasher& Mix(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return Mix(bits);
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// Mixes a co-location list, in residency order, as (training type index,
// gpu fraction) pairs. The type index is recovered from the spec pointer,
// which points into ModelZoo::TrainingTasks() (see CollectColocation).
inline void MixColocation(KeyHasher& h, const std::vector<ColocatedTraining>& colocated) {
  const TrainingTaskSpec* tasks = ModelZoo::TrainingTasks().data();
  h.Mix(static_cast<uint64_t>(colocated.size()));
  for (const ColocatedTraining& c : colocated) {
    h.Mix(static_cast<uint32_t>(c.spec - tasks)).Mix(c.gpu_fraction);
  }
}

// Key for SchedulingEnv::ProbeInferenceLatencyMs: the inputs of the
// ObserveInferenceBatchLatency call plus the device's effective compute
// scale, which divides the returned latency.
inline uint64_t InferenceProbeKey(uint32_t service_index, int batch, double gpu_fraction,
                                  const std::vector<ColocatedTraining>& colocated,
                                  double effective_compute_scale) {
  KeyHasher h;
  h.Mix(uint64_t{1}).Mix(service_index).Mix(batch).Mix(gpu_fraction);
  MixColocation(h, colocated);
  h.Mix(effective_compute_scale);
  return h.hash();
}

// Key for SchedulingEnv::ProbeTrainingIterMs: the inputs of the
// ObserveTrainingIterationMs call (task spec, clamped fraction, effective
// inference load including measured QPS, the other co-resident trainings)
// plus the two post-factors applied to the oracle's answer: the hypothetical
// swap slowdown and the device's effective compute scale.
inline uint64_t TrainingProbeKey(uint32_t type_index, double clamped_fraction,
                                 uint32_t load_service_index, int load_batch,
                                 double load_gpu_fraction, double load_qps,
                                 const std::vector<ColocatedTraining>& others,
                                 double swap_factor, double effective_compute_scale) {
  KeyHasher h;
  h.Mix(uint64_t{2}).Mix(type_index).Mix(clamped_fraction);
  h.Mix(load_service_index).Mix(load_batch).Mix(load_gpu_fraction).Mix(load_qps);
  MixColocation(h, others);
  h.Mix(swap_factor).Mix(effective_compute_scale);
  return h.hash();
}

// Key for an interference-curve prediction request
// (InterferencePredictor::PredictCurve): service, batch, sorted type mix.
inline uint64_t PredictionKey(uint32_t service_index, int batch,
                              const std::vector<uint32_t>& sorted_mix) {
  KeyHasher h;
  h.Mix(uint64_t{3}).Mix(service_index).Mix(batch);
  h.Mix(static_cast<uint64_t>(sorted_mix.size()));
  for (uint32_t type : sorted_mix) h.Mix(type);
  return h.hash();
}

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_PROBE_KEY_H_
