#include "perfbench/src/digest.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

void Digest::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(uint64_t v) { Bytes(&v, sizeof(v)); }

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  Bytes(s.data(), s.size());
}

std::string HexDigest(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string Digest::Hex() const { return HexDigest(h_); }

namespace {

void AddSizes(Digest& d, const std::vector<size_t>& values) {
  d.Add(static_cast<uint64_t>(values.size()));
  for (size_t v : values) {
    d.Add(static_cast<uint64_t>(v));
  }
}

}  // namespace

void AddResult(Digest& d, const mudi::ExperimentResult& r,
               const std::vector<size_t>& tuning_iterations) {
  d.Add(r.policy_name);
  d.Add(static_cast<uint64_t>(r.per_service.size()));
  for (const auto& [name, m] : r.per_service) {
    d.Add(name);
    d.Add(m.service_name);
    d.Add(static_cast<uint64_t>(m.windows_total));
    d.Add(static_cast<uint64_t>(m.windows_violated));
    d.Add(static_cast<uint64_t>(m.windows_violated_failure));
    d.Add(m.mean_latency_ms);
    d.Add(m.served_requests);
  }
  d.Add(static_cast<uint64_t>(r.tasks.size()));
  for (const mudi::TaskRecord& t : r.tasks) {
    d.Add(static_cast<uint64_t>(t.task_id));
    d.Add(static_cast<uint64_t>(t.type_index));
    d.Add(t.arrival_ms);
    d.Add(t.start_ms);
    d.Add(t.completion_ms);
    d.Add(static_cast<uint64_t>(t.device_id));
    d.Add(static_cast<uint64_t>(t.failures));
    d.Add(t.work_lost_ms);
  }
  d.Add(r.makespan_ms);
  d.Add(r.avg_sm_util);
  d.Add(r.avg_mem_util);
  d.Add(static_cast<uint64_t>(r.util_series.size()));
  for (const mudi::UtilSample& s : r.util_series) {
    d.Add(s.time_ms);
    d.Add(s.sm_util);
    d.Add(s.mem_util);
  }
  d.Add(static_cast<uint64_t>(r.swap_time_fraction.size()));
  for (const auto& [name, fraction] : r.swap_time_fraction) {
    d.Add(name);
    d.Add(fraction);
  }
  d.Add(static_cast<uint64_t>(r.swap_events));
  d.Add(r.swap_total_mb);
  AddSizes(d, tuning_iterations);
  d.Add(static_cast<uint64_t>(r.device_series.size()));
  for (const mudi::DeviceSeriesSample& s : r.device_series) {
    d.Add(s.time_ms);
    d.Add(s.qps);
    d.Add(static_cast<uint64_t>(s.batch));
    d.Add(s.inference_fraction);
    d.Add(s.swapped_mb);
    d.Add(s.mem_resident_mb);
  }

  const mudi::FaultMetrics& f = r.faults;
  d.Add(static_cast<uint64_t>(f.faults_injected));
  d.Add(static_cast<uint64_t>(f.device_failures));
  d.Add(static_cast<uint64_t>(f.devices_recovered));
  d.Add(f.total_downtime_ms);
  d.Add(static_cast<uint64_t>(f.trainings_displaced));
  d.Add(f.work_lost_ms);
  d.Add(f.mean_replacement_ms);
  d.Add(static_cast<uint64_t>(f.trainings_replaced));
  d.Add(f.failed_requests);
  d.Add(f.rerouted_requests);
  d.Add(f.goodput_rps);

  const mudi::ControlMetrics& c = r.ctrl;
  for (size_t v : {c.events_injected, c.kv_partitions, c.watch_losses, c.scheduler_crashes,
                   c.scheduler_recoveries, c.retries, c.stale_reads, c.unavailable_reads,
                   c.watch_delivered, c.watch_dropped, c.watch_lost_partition,
                   c.configs_published, c.configs_applied, c.stale_scan_entries}) {
    d.Add(static_cast<uint64_t>(v));
  }
  d.Add(c.total_recovery_ms);
}

void AddWhatIf(Digest& d, const mudi::replay::WhatIfResult& r,
               const std::vector<size_t>& tuning_iterations) {
  d.Add(r.decisions_replayed);
  d.Add(r.diverged_decisions);
  d.Add(static_cast<uint64_t>(r.diverged));
  d.Add(r.first_divergence_seq);
  d.Add(r.first_divergence_detail);
  d.Add(r.probe_hits);
  d.Add(r.probe_sticky_hits);
  d.Add(r.probe_misses);
  AddSizes(d, tuning_iterations);
}

}  // namespace perfbench
