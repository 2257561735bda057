// Schema gate for the repo-root throughput trajectory. Documents are parsed
// with the shared reader in src/common/json.h; this header only checks their
// shape.
//
// This backs `bench_throughput --validate FILE` (the check.sh --bench gate),
// the baseline load behind `bench_throughput --compare`, and the schema
// assertions in tests/perf_test.cc.
#ifndef SRC_PERF_JSON_CHECK_H_
#define SRC_PERF_JSON_CHECK_H_

#include "src/common/json.h"
#include "src/common/status.h"

namespace mudi {
namespace perf {

// Schema gate for BENCH_throughput.json (schema mudi.bench_throughput.v1).
// Checks: schema tag, build metadata, and a non-empty `records` array where
// every record names {preset, policy} and carries events/sec,
// sim-seconds-per-wall-second, and decision-latency p50/p95. Keys it does not
// read are ignored, so older artifacts that still carry an `optimizations`
// block stay valid baselines.
Status ValidateBenchThroughputJson(const JsonValue& root);

}  // namespace perf
}  // namespace mudi

#endif  // SRC_PERF_JSON_CHECK_H_
