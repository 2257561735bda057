// Memoization for offline model selection. A fitted regressor is a pure
// function of its training data and fold count (every model in the zoo is
// internally seeded), so a fit keyed by a fingerprint of exactly those inputs
// can be reused across repeated `policy.initialize` calls, re-tunes, and
// runs that profile identical curves — which is what makes warm Mudi runs
// skip the model-selection bill entirely. Cold, that bill is about 0.9 s of
// CPU for the smoke preset's Initialize in an -O2 build (0.25 s of wall time
// with four fit threads on a 4-vCPU x86-64 VM), after the early-exit CV and
// the -O2 vectoriser flag; see DESIGN.md §12.3, §12.5.
#ifndef SRC_ML_FIT_CACHE_H_
#define SRC_ML_FIT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/ml/regressor.h"

namespace mudi {

// 128-bit FNV-style digest over the bit patterns of the training doubles.
// Bit patterns — not values — so two datasets fingerprint equal only if every
// float is identical to the last bit, matching the repo's determinism bar.
struct FitFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const FitFingerprint& o) const { return hi == o.hi && lo == o.lo; }
  bool operator<(const FitFingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
};

FitFingerprint FingerprintSamples(const std::vector<std::vector<double>>& x,
                                  const std::vector<double>& y, size_t folds);

// One memoized selection outcome: the winning model refit on all data, plus
// the metadata callers surface (Fig. 11 labels, CV score). The model is
// shared immutably — Regressor::Predict is const, so concurrent readers and
// multiple InterferenceModelers can hold the same instance.
struct CachedFit {
  std::shared_ptr<const Regressor> model;
  std::string model_name;
  double cv_error = 0.0;
};

// Process-global, mutex-guarded cache. Deliberately unbounded: an entry is
// ~one small fitted model, and a process fits at most a few hundred distinct
// (service, param) datasets. Clear() exists for tests that must exercise the
// cold path.
class FitCache {
 public:
  static FitCache& Global();

  // Returns the cached fit or nullptr. Counts a hit or miss either way.
  std::shared_ptr<const CachedFit> Find(const FitFingerprint& key);
  void Insert(const FitFingerprint& key, std::shared_ptr<const CachedFit> fit);
  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;

 private:
  // Guards entries_/hits_/misses_ against concurrent FitPool shards; the map
  // is content-addressed, so lock order never influences fitted values.
  MUDI_GUARDED_STATE("protects the memo map during parallel fit shards");
  mutable std::mutex mu_;
  std::map<FitFingerprint, std::shared_ptr<const CachedFit>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace mudi

#endif  // SRC_ML_FIT_CACHE_H_
