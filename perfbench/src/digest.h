// Result digest: a 64-bit FNV-1a hash over a run's complete outputs, with
// every double hashed by its bit pattern. Two runs with equal digests
// produced the same results bit for bit; the benchmark uses this to prove
// repetitions agree and that tracing only observes.
#ifndef PERFBENCH_SRC_DIGEST_H_
#define PERFBENCH_SRC_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/exp/metrics.h"
#include "src/replay/replay_run.h"

namespace perfbench {

class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  void Bytes(const void* data, size_t n);
  uint64_t h_ = 1469598103934665603ull;
};

std::string HexDigest(uint64_t value);

// Hashes the whole ExperimentResult except the wall-clock
// placement_overheads_ms. `tuning_iterations` must come from the policy the
// run actually wrapped (TimedPolicy::inner()), because Run() reads the
// recorders off the wrapper, whose copies stay empty.
void AddResult(Digest& digest, const mudi::ExperimentResult& result,
               const std::vector<size_t>& tuning_iterations);

// Hashes everything a counterfactual replay reports.
void AddWhatIf(Digest& digest, const mudi::replay::WhatIfResult& result,
               const std::vector<size_t>& tuning_iterations);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DIGEST_H_
