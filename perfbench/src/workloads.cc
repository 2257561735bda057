#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "perfbench/src/digest.h"
#include "perfbench/src/host_speed.h"
#include "perfbench/src/timing.h"
#include "src/common/wallclock.h"
#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/ml/fit_cache.h"
#include "src/perf/mem_probe.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_run.h"
#include "src/replay/replay_source.h"

namespace perfbench {

namespace {

using mudi::ExperimentOptions;
using mudi::ExperimentResult;

// --- sizes ------------------------------------------------------------------

// A live workload: `instances` independent clusters, each with its own seed
// derived from the workload seed, run one after another in every
// repetition. Each runs for a fixed simulated horizon, so every seed costs
// about the same host work; several instances average out how much one
// seed's trace differs from another's (hook mix, tuning iterations).
struct LiveSpec {
  int nodes;
  int gpus;
  size_t tasks;
  double load;  // QPS scale factor
  double horizon_s;
  bool chaos;
  int instances;
};

// 80 replicas already average the QPS walks; the second instance is for the
// hook-latency tail, which one trace's few slowest decisions would set.
LiveSpec ServeSpec(bool tiny) {
  return tiny ? LiveSpec{1, 4, 6, 1.0, 90.0, false, 1}
              : LiveSpec{10, 8, 200, 1.0, 300.0, false, 2};
}

// 600 s covers the whole device-fault schedule (60-340 s) and control-plane
// schedule (90-285 s) plus recovery.
LiveSpec ChaosSpec(bool tiny) {
  return tiny ? LiveSpec{3, 4, 10, 1.0, 120.0, true, 2}
              : LiveSpec{3, 4, 120, 1.0, 600.0, true, 3};
}

// The whatif-sweep inputs: Mudi decision traces from the 3x4 cluster at 1.5x
// load, one per instance.
LiveSpec RecordSpec(bool tiny) {
  return tiny ? LiveSpec{1, 4, 8, 1.5, 120.0, false, 1}
              : LiveSpec{3, 4, 120, 1.5, 1000.0, false, 3};
}

// Each replay covers the first this-many recorded decisions, so the replay
// work does not follow the seed's trace length (1000 simulated seconds
// recorded more than 1500 decisions on every seed tried).
size_t ReplayedDecisions(bool tiny) { return tiny ? 1000000 : 1500; }

const std::vector<std::string>& SweepPolicies() {
  static const std::vector<std::string> names = {
      "Mudi",   "Mudi-more", "Mudi-cluster-only", "Mudi-device-only", "GSLICE",
      "gpulets", "MuxFlow",  "Random",            "Optimal"};
  return names;
}

// --- seeds ------------------------------------------------------------------

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Every input seed of an instance derives from the workload seed.
ExperimentOptions LiveOptions(const LiveSpec& spec, uint64_t seed, int instance) {
  uint64_t stream = SplitMix(SplitMix(seed) ^ static_cast<uint64_t>(instance));
  // Experiment RNG, per-replica QPS walks and the training trace all derive
  // from the base seed inside PhysicalClusterOptions.
  ExperimentOptions options = mudi::PhysicalClusterOptions(spec.tasks, stream % 1000000007ull);
  options.num_nodes = spec.nodes;
  options.gpus_per_node = spec.gpus;
  options.oracle_seed = SplitMix(stream ^ 0x6f7261636c65ull) % 1000000007ull;
  if (spec.load != 1.0) {
    mudi::ScaleQps(options, spec.load);
  }
  options.horizon_ms = spec.horizon_s * mudi::kMsPerSecond;
  if (spec.chaos) {
    options.fault_plan = mudi::StandardChaosPlan(spec.nodes * spec.gpus, spec.nodes);
    options.ctrl_fault_plan = mudi::StandardControlChaosPlan();
  }
  return options;
}

// --- statistics -------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Hook latencies pooled over modules and hooks, Initialize excluded (it is
// set-up, not a decision).
std::vector<double> DecisionLatenciesUs(const Probe& probe) {
  std::vector<double> pooled;
  for (size_t m = 0; m < kNumModules; ++m) {
    for (size_t k = static_cast<size_t>(kFirstHook) + 1; k <= static_cast<size_t>(kLastHook);
         ++k) {
      const auto& lat = probe.hook_latencies_us(static_cast<Module>(m), static_cast<Span>(k));
      pooled.insert(pooled.end(), lat.begin(), lat.end());
    }
  }
  return pooled;
}

// Inclusive time of every non-Initialize hook.
double DecisionHooksMs(const Probe& probe) {
  double ms = 0.0;
  for (size_t k = static_cast<size_t>(kFirstHook) + 1; k <= static_cast<size_t>(kLastHook); ++k) {
    ms += Ms(probe.Total(static_cast<Span>(k)).total_ns);
  }
  return ms;
}

// --- one repetition's totals ------------------------------------------------

// Raw sums over a repetition's instances; ratios are formed in Emit. Fields
// stay zero where a layer does not take part in the workload.
struct Totals {
  // Modelled outcome, summed over instances (Emit averages).
  double instances = 0.0;
  double slo_violation_pct = 0.0;
  double mean_ct_s = 0.0;
  double goodput_rps = 0.0;
  double sm_util_pct = 0.0;
  double queue_wait_s = 0.0;
  double swap_events = 0.0;
  double tuning_iterations = 0.0;
  double tunings = 0.0;
  // Control plane and faults.
  double kv_published = 0.0;
  double kv_applied = 0.0;
  double kv_retries = 0.0;
  double kv_stale_reads = 0.0;
  double kv_unavailable_reads = 0.0;
  double kv_watch_dropped = 0.0;
  double kv_recovery_ms = 0.0;
  double kv_recoveries = 0.0;
  double failed_requests = 0.0;
  double rerouted_requests = 0.0;
  double trainings_displaced = 0.0;
  double work_lost_ms = 0.0;
  // Traced live runs: program counters read from the PerfCollector.
  double in_program_run_ms = 0.0;
  double requests_served = 0.0;
  double run_allocations = 0.0;
  double events_fired = 0.0;
  double events_scheduled = 0.0;
  double events_cancelled = 0.0;
  double fit_shards_computed = 0.0;
  double fit_cache_hits = 0.0;
  double fit_cache_misses = 0.0;
  // whatif-sweep.
  double replay_decisions = 0.0;
  double replay_probe_lookups = 0.0;
  double replay_probe_answered = 0.0;
  double replay_diverged = 0.0;

  void AddModelled(const ExperimentResult& r, const std::vector<size_t>& tuning) {
    instances += 1.0;
    slo_violation_pct += 100.0 * r.OverallSloViolationRate();
    mean_ct_s += r.MeanCtMs() / mudi::kMsPerSecond;
    goodput_rps += r.faults.goodput_rps;
    sm_util_pct += 100.0 * r.avg_sm_util;
    queue_wait_s += r.MeanWaitingMs() / mudi::kMsPerSecond;
    swap_events += static_cast<double>(r.swap_events);
    AddTuning(tuning);
    kv_published += static_cast<double>(r.ctrl.configs_published);
    kv_applied += static_cast<double>(r.ctrl.configs_applied);
    kv_retries += static_cast<double>(r.ctrl.retries);
    kv_stale_reads += static_cast<double>(r.ctrl.stale_reads);
    kv_unavailable_reads += static_cast<double>(r.ctrl.unavailable_reads);
    kv_watch_dropped += static_cast<double>(r.ctrl.watch_dropped);
    kv_recovery_ms += r.ctrl.total_recovery_ms;
    kv_recoveries += static_cast<double>(r.ctrl.scheduler_recoveries);
    failed_requests += r.faults.failed_requests;
    rerouted_requests += r.faults.rerouted_requests;
    trainings_displaced += static_cast<double>(r.faults.trainings_displaced);
    work_lost_ms += r.faults.work_lost_ms;
  }

  void AddTuning(const std::vector<size_t>& tuning) {
    for (size_t n : tuning) {
      tuning_iterations += static_cast<double>(n);
    }
    tunings += static_cast<double>(tuning.size());
  }
};

// One repetition's metrics, in a fixed order.
class Sample {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  double Get(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0.0;
  }
  void Scale(const std::string& name, double factor) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value *= factor;
      }
    }
  }

 private:
  std::vector<Metric> metrics_;
};

// `run_ms`: ClusterExperiment::Run wall time (0 for whatif-sweep, which has
// no data plane).
// The decision latency percentiles are not per repetition: Repeat pools
// every passing repetition's hook latencies and takes them over the run.
void Emit(Sample& s, double run_s, double setup_s, double run_ms, double replay_ms,
          const Totals& t, const Probe& probe, bool traced) {
  s.Set("run_s", run_s, "s");
  s.Set("setup_s", setup_s, "s");
  double n = t.instances;
  s.Set("slo_violation_pct", Ratio(t.slo_violation_pct, n), "%");
  s.Set("mean_ct_s", Ratio(t.mean_ct_s, n), "s");
  s.Set("goodput_rps", Ratio(t.goodput_rps, n), "1/s");
  s.Set("sm_util_pct", Ratio(t.sm_util_pct, n), "%");
  if (!traced) {
    return;
  }

  double init_ms = Ms(probe.Total(Span::kInitialize).total_ns);
  double hooks_ms = run_ms > 0.0 ? DecisionHooksMs(probe) : 0.0;
  double dataplane_ms = run_ms > 0.0 ? run_ms - init_ms - hooks_ms : 0.0;
  SpanStats apply = probe.Total(Span::kEnvApply);
  SpanStats probes = probe.Total(Span::kEnvProbe);
  SpanStats monitor = probe.Total(Span::kEnvMonitorRead);

  s.Set("exp.run_ms", run_ms, "ms");
  s.Set("exp.hooks_ms", hooks_ms, "ms");
  s.Set("exp.dataplane_ms", dataplane_ms, "ms");
  s.Set("exp.ledger_gap_ms", run_ms > 0.0 ? run_ms - t.in_program_run_ms : 0.0, "ms");
  s.Set("exp.requests_served", t.requests_served, "count");
  s.Set("exp.allocs_per_event", Ratio(t.run_allocations, t.events_fired), "count");
  s.Set("exp.apply_calls", static_cast<double>(apply.calls), "count");
  s.Set("exp.apply_ms", Ms(apply.total_ns), "ms");

  s.Set("sim.events_fired", t.events_fired, "count");
  s.Set("sim.events_scheduled", t.events_scheduled, "count");
  s.Set("sim.events_cancelled", t.events_cancelled, "count");
  s.Set("sim.ns_per_event", Ratio(dataplane_ms * 1e6, t.events_fired), "ns");
  s.Set("sim.cancel_ratio", Ratio(t.events_cancelled, t.events_scheduled), "ratio");

  for (size_t m = 0; m < kNumModules; ++m) {
    Module module = static_cast<Module>(m);
    for (size_t k = static_cast<size_t>(kFirstHook); k <= static_cast<size_t>(kLastHook); ++k) {
      Span hook = static_cast<Span>(k);
      std::string prefix = std::string(ModuleName(module)) + "." + HookMetricName(hook);
      const SpanStats& st = probe.stats(module, hook);
      s.Set(prefix + ".calls", static_cast<double>(st.calls), "count");
      s.Set(prefix + ".self_ms", Ms(st.self_ns), "ms");
      s.Set(prefix + ".p99_us", Percentile(probe.hook_latencies_us(module, hook), 99.0), "us");
    }
  }
  s.Set("core.tuning_iterations_mean", Ratio(t.tuning_iterations, t.tunings), "count");
  s.Set("core.swap_events", t.swap_events, "count");

  s.Set("gpu.probes", static_cast<double>(probes.calls), "count");
  s.Set("gpu.probe_ms", Ms(probes.total_ns), "ms");

  s.Set("cluster.monitor_reads", static_cast<double>(monitor.calls), "count");
  s.Set("cluster.monitor_read_ms", Ms(monitor.total_ns), "ms");
  s.Set("cluster.queue_wait_s", Ratio(t.queue_wait_s, n), "s");
  s.Set("cluster.kv_configs_published", t.kv_published, "count");
  s.Set("cluster.kv_configs_applied", t.kv_applied, "count");
  s.Set("cluster.kv_apply_ratio", Ratio(t.kv_applied, t.kv_published), "ratio");
  s.Set("cluster.kv_retries", t.kv_retries, "count");
  s.Set("cluster.kv_stale_reads", t.kv_stale_reads, "count");
  s.Set("cluster.kv_unavailable_reads", t.kv_unavailable_reads, "count");
  s.Set("cluster.kv_watch_dropped", t.kv_watch_dropped, "count");
  s.Set("cluster.kv_mean_recovery_ms", Ratio(t.kv_recovery_ms, t.kv_recoveries), "ms");

  s.Set("fault.failed_requests", t.failed_requests, "count");
  s.Set("fault.rerouted_requests", t.rerouted_requests, "count");
  s.Set("fault.trainings_displaced", t.trainings_displaced, "count");
  s.Set("fault.work_lost_s", t.work_lost_ms / mudi::kMsPerSecond, "s");

  s.Set("ml.init_ms", init_ms, "ms");
  s.Set("ml.fit_cache_hits", t.fit_cache_hits, "count");
  s.Set("ml.fit_cache_misses", t.fit_cache_misses, "count");
  s.Set("ml.fit_shards_computed", t.fit_shards_computed, "count");

  s.Set("replay.load_ms", Ms(probe.Total(Span::kReplayLoad).total_ns), "ms");
  s.Set("replay.decisions", t.replay_decisions, "count");
  s.Set("replay.us_per_decision", Ratio(replay_ms * 1e3, t.replay_decisions), "us");
  s.Set("replay.probe_hit_ratio", Ratio(t.replay_probe_answered, t.replay_probe_lookups),
        "ratio");
  s.Set("replay.diverged_decisions", t.replay_diverged, "count");
}

// Invariants every modelled result must hold. Returns "" when it does.
std::string CheckModelled(const ExperimentResult& r, double sim_now_ms, double stop_ms) {
  for (double v : {r.OverallSloViolationRate(), r.MeanCtMs(), r.makespan_ms, r.avg_sm_util,
                   r.avg_mem_util, r.faults.goodput_rps, r.swap_total_mb}) {
    if (!std::isfinite(v)) {
      return "non-finite modelled metric";
    }
  }
  if (r.CompletedTasks() < r.tasks.size() && sim_now_ms < stop_ms) {
    return "tasks left incomplete before the run reached its stop time";
  }
  if (r.faults.goodput_rps <= 0.0) {
    return "no request was served";
  }
  return "";
}

struct Outcome {
  std::optional<Sample> sample;  // empty when the repetition failed
  std::vector<double> decision_us;
  uint64_t digest = 0;
  std::string failure;
};

// --- live workloads ---------------------------------------------------------

// Runs one instance; returns a failure message or "".
std::string RunInstance(const ExperimentOptions& base, const Config& cfg, Probe& probe,
                        Digest& digest, Totals& t) {
  mudi::FitCache::Global().Clear();
  mudi::perf::PerfCollector collector;
  ExperimentOptions options = base;
  if (cfg.traced) {
    options.perf = &collector;
  }

  probe.Begin(Span::kConstruct);
  auto oracle = std::make_unique<mudi::PerfOracle>(options.oracle_seed);
  auto policy = std::make_unique<TimedPolicy>(mudi::MakePolicy("Mudi", *oracle), probe);
  auto experiment = std::make_unique<mudi::ClusterExperiment>(options, policy.get());
  probe.End();

  uint64_t allocs_before = mudi::perf::ReadAllocStats().allocations;
  uint64_t init_allocs_before = probe.initialize_allocations();
  probe.Begin(Span::kExperimentRun);
  ExperimentResult result = experiment->Run();
  probe.End();
  uint64_t run_allocs = mudi::perf::ReadAllocStats().allocations - allocs_before -
                        (probe.initialize_allocations() - init_allocs_before);

  if (cfg.force_invariant_failure) {
    result.makespan_ms = std::nan("");
  }
  double stop_ms = options.horizon_ms > 0.0 ? options.horizon_ms : options.max_sim_ms;
  std::string failure = CheckModelled(result, experiment->SimNowMs(), stop_ms);
  if (!failure.empty()) {
    return failure;
  }
  const std::vector<size_t>& tuning = policy->inner().tuning_iterations();
  AddResult(digest, result, tuning);
  t.AddModelled(result, tuning);
  if (cfg.traced) {
    auto counter = [&collector](const char* name) -> double {
      auto it = collector.counters().find(name);
      return it == collector.counters().end() ? 0.0 : static_cast<double>(it->second);
    };
    auto region = collector.regions().find("exp.run");
    if (region != collector.regions().end()) {
      t.in_program_run_ms += region->second.total_ms();
    }
    t.requests_served += counter("exp.requests_served");
    t.run_allocations += static_cast<double>(run_allocs);
    t.events_fired += counter("sim.events_fired");
    t.events_scheduled += counter("sim.events_scheduled");
    t.events_cancelled += counter("sim.events_cancelled");
    t.fit_shards_computed += counter("mudi.fit_shards_computed");
    t.fit_cache_hits += static_cast<double>(mudi::FitCache::Global().hits());
    t.fit_cache_misses += static_cast<double>(mudi::FitCache::Global().misses());
  }
  return "";
}

Outcome RunLiveRep(const std::vector<ExperimentOptions>& instances, const Config& cfg,
                   Probe& probe) {
  Outcome out;
  Digest digest;
  Totals t;
  for (const ExperimentOptions& options : instances) {
    out.failure = RunInstance(options, cfg, probe, digest, t);
    if (!out.failure.empty()) {
      return out;
    }
  }
  out.digest = digest.value();
  double init_ms = Ms(probe.Total(Span::kInitialize).total_ns);
  double run_ms = Ms(probe.Total(Span::kExperimentRun).total_ns);
  Sample s;
  Emit(s, (run_ms - init_ms) / 1e3, probe.setup_cpu_s(), run_ms, 0.0, t, probe, cfg.traced);
  out.decision_us = DecisionLatenciesUs(probe);
  out.sample = std::move(s);
  return out;
}

// --- whatif-sweep -----------------------------------------------------------

struct RecordedTrace {
  std::string path;
  ExperimentResult result;
  std::vector<size_t> tuning_iterations;
  uint64_t decisions = 0;  // in the (cut) trace
};

// Rewrites the trace at `path` with only its first `n` decisions, so the
// replay work does not follow the seed's trace length. Every stream is cut
// at the first dropped decision's sequence
// number: RunWhatIf hands the last decision all remaining monitor feedback,
// so records from after the cut would show it readings from its future.
mudi::Status CutTrace(const std::string& path, size_t n, uint64_t* kept) {
  namespace replay = mudi::replay;
  auto trace = replay::ReadDecisionTrace(path);
  if (!trace.ok()) {
    return trace.status();
  }
  *kept = trace->decisions.size();
  if (trace->decisions.size() <= n) {
    return mudi::Status::Ok();
  }
  *kept = n;
  const uint64_t cut = trace->decisions[n].seq;
  auto before = [cut](const auto& record) { return record.seq < cut; };
  replay::TraceWriter writer(trace->header);
  writer.AppendDeviceTable(trace->device_table);
  for (const auto& curve : trace->curves) {
    writer.AppendCurve(curve);
  }
  for (const auto& prediction : trace->predictions) {
    if (before(prediction)) {
      writer.AppendPrediction(prediction);
    }
  }
  for (const auto& obs : trace->observations) {
    if (before(obs)) {
      writer.AppendObservation(obs);
    }
  }
  for (const auto& feedback : trace->qps_feedback) {
    if (before(feedback)) {
      writer.AppendQpsFeedback(feedback);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    writer.AppendDecision(trace->decisions[i]);
  }
  writer.Finish();
  std::string bytes = writer.TakeBuffer();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return mudi::InvalidArgumentError("cannot rewrite " + path);
  }
  bool written = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !written) {
    return mudi::InvalidArgumentError("cannot rewrite " + path);
  }
  return mudi::Status::Ok();
}

// Input generation, untimed: one live Mudi run with the decision recorder on,
// its trace then cut to the replayed length.
bool RecordTrace(const Config& cfg, int instance, RecordedTrace* out, std::string* error) {
  ExperimentOptions options = LiveOptions(RecordSpec(cfg.tiny), cfg.seed, instance);
  out->path = cfg.work_dir + "/whatif-" + std::to_string(cfg.seed) + "-" +
              std::to_string(instance) + ".mtrace";
  mudi::replay::TraceHeader header;
  header.policy = "Mudi";
  header.mode = "record";
  header.seed = options.seed;
  header.oracle_seed = options.oracle_seed;
  header.num_devices = static_cast<uint32_t>(options.num_nodes * options.gpus_per_node);
  header.num_services = static_cast<uint32_t>(options.num_services);
  header.service_offset = static_cast<uint32_t>(options.service_offset);
  auto recorder = mudi::replay::DecisionRecorder::Create(out->path, header);
  if (!recorder.ok()) {
    *error = recorder.status().message();
    return false;
  }
  options.recorder = recorder->get();
  mudi::FitCache::Global().Clear();
  mudi::PerfOracle oracle(options.oracle_seed);
  auto policy = mudi::MakePolicy("Mudi", oracle);
  mudi::ClusterExperiment experiment(options, policy.get());
  out->result = experiment.Run();
  out->tuning_iterations = policy->tuning_iterations();
  mudi::Status closed = (*recorder)->Close();
  if (closed.ok()) {
    closed = CutTrace(out->path, ReplayedDecisions(cfg.tiny), &out->decisions);
  }
  if (!closed.ok()) {
    *error = closed.message();
    return false;
  }
  std::string failure = CheckModelled(out->result, experiment.SimNowMs(), options.horizon_ms);
  if (!failure.empty()) {
    *error = "recorded run: " + failure;
    return false;
  }
  return true;
}

// Replays one trace through one policy; returns a failure message or "".
std::string ReplayOnce(const RecordedTrace& trace, const std::string& name, const Config& cfg,
                       Probe& probe, Digest& digest, Totals& t) {
  mudi::FitCache::Global().Clear();
  probe.set_module(ModuleOfPolicy(name));

  probe.Begin(Span::kReplayLoad);
  auto source = mudi::replay::ReplaySource::Load(trace.path);
  probe.End();
  if (!source.ok()) {
    return name + ": " + source.status().message();
  }

  probe.Begin(Span::kConstruct);
  auto oracle = std::make_unique<mudi::PerfOracle>(source->trace().header.oracle_seed);
  auto policy = std::make_unique<TimedPolicy>(mudi::MakePolicy(name, *oracle), probe);
  probe.End();

  probe.Begin(Span::kRunWhatIf);
  auto result = mudi::replay::RunWhatIf(*source, *policy);
  probe.End();

  if (!result.ok()) {
    return name + ": " + result.status().message();
  }
  if (cfg.force_invariant_failure) {
    result->decisions_replayed = 0;
  }
  if (result->decisions_replayed != trace.decisions) {
    return name + ": replayed " + std::to_string(result->decisions_replayed) + " of " +
           std::to_string(trace.decisions) + " decisions";
  }
  if (name == "Mudi" && result->diverged) {
    return "Mudi over its own trace diverged: " + result->first_divergence_detail;
  }
  const std::vector<size_t>& tuning = policy->inner().tuning_iterations();
  AddWhatIf(digest, *result, tuning);
  if (ModuleOfPolicy(name) == Module::kCore) {
    t.AddTuning(tuning);
  }
  t.replay_decisions += static_cast<double>(result->decisions_replayed);
  t.replay_diverged += static_cast<double>(result->diverged_decisions);
  t.replay_probe_answered += static_cast<double>(result->probe_hits + result->probe_sticky_hits);
  t.replay_probe_lookups +=
      static_cast<double>(result->probe_hits + result->probe_sticky_hits + result->probe_misses);
  t.fit_cache_hits += static_cast<double>(mudi::FitCache::Global().hits());
  t.fit_cache_misses += static_cast<double>(mudi::FitCache::Global().misses());
  return "";
}

Outcome RunSweepRep(const std::vector<RecordedTrace>& traces, const Config& cfg, Probe& probe) {
  Outcome out;
  Digest digest;
  Totals t;
  for (const RecordedTrace& trace : traces) {
    for (const std::string& name : SweepPolicies()) {
      out.failure = ReplayOnce(trace, name, cfg, probe, digest, t);
      if (!out.failure.empty()) {
        return out;
      }
    }
  }
  // The modelled outcome (and swaps and queueing) is the recorded runs'.
  // Their tuning iterations stay out: core.tuning_iterations_mean describes
  // the replays.
  for (const RecordedTrace& trace : traces) {
    t.AddModelled(trace.result, {});
  }

  out.digest = digest.value();
  double init_ms = Ms(probe.Total(Span::kInitialize).total_ns);
  double replay_ms = Ms(probe.Total(Span::kRunWhatIf).total_ns) - init_ms;
  Sample s;
  Emit(s, replay_ms / 1e3, probe.setup_cpu_s(), 0.0, replay_ms, t, probe, cfg.traced);
  out.decision_us = DecisionLatenciesUs(probe);
  out.sample = std::move(s);
  return out;
}

// --- the repetition loop ----------------------------------------------------

template <typename RunRep>
void Repeat(const Config& cfg, uint64_t input_digest, RunRep run_rep, Report* report) {
  // At least two repetitions in an untraced run, so the digest is always
  // compared across repetitions.
  const uint64_t min_reps = cfg.traced ? 1 : 2;
  std::vector<Sample> samples;
  std::vector<double> decision_us;
  std::unique_ptr<Probe> last_probe;
  std::optional<uint64_t> first_digest;
  HostSpeedKernels kernels;
  mudi::WallTimer wall;
  while (report->attempted < min_reps || wall.ElapsedSeconds() < cfg.seconds) {
    auto probe = std::make_unique<Probe>(cfg.traced);
    // Host speed around the repetition: each kernel once before, once after.
    double event_s = kernels.EventLoopSeconds();
    double arithmetic_s = kernels.ArithmeticSeconds();
    Outcome out = run_rep(*probe);
    event_s += kernels.EventLoopSeconds();
    arithmetic_s += kernels.ArithmeticSeconds();
    ++report->attempted;
    if (out.failure.empty() && first_digest.has_value() && out.digest != *first_digest) {
      out.failure = "digest " + HexDigest(out.digest) + " differs from the first repetition's " +
                    HexDigest(*first_digest);
    }
    if (!out.failure.empty()) {
      ++report->failed;
      report->notes.push_back("repetition " + std::to_string(report->attempted) +
                              " failed: " + out.failure);
      continue;
    }
    if (!first_digest.has_value()) {
      first_digest = out.digest;
    }
    Sample& sample = *out.sample;
    const double event_slowdown = event_s / (2.0 * kEventLoopReferenceS);
    const double arithmetic_slowdown = arithmetic_s / (2.0 * kArithmeticReferenceS);
    sample.Set("bench.run_wall_s", sample.Get("run_s"), "s");
    sample.Set("bench.setup_cpu_s", sample.Get("setup_s"), "s");
    sample.Set("bench.host_slowdown_event", event_slowdown, "ratio");
    sample.Set("bench.host_slowdown_arith", arithmetic_slowdown, "ratio");
    sample.Scale("run_s", 1.0 / event_slowdown);
    sample.Scale("setup_s", 1.0 / arithmetic_slowdown);
    samples.push_back(std::move(sample));
    decision_us.insert(decision_us.end(), out.decision_us.begin(), out.decision_us.end());
    last_probe = std::move(probe);
  }

  Digest combined;
  combined.Add(input_digest);
  combined.Add(first_digest.value_or(0));
  report->digest = combined.Hex();
  if (samples.empty()) {
    return;
  }
  // Medians over repetitions: one noisy repetition cannot move them.
  for (size_t i = 0; i < samples.front().metrics().size(); ++i) {
    std::vector<double> values;
    for (const Sample& s : samples) {
      values.push_back(s.metrics()[i].value);
    }
    const Metric& first = samples.front().metrics()[i];
    report->metrics.push_back(Metric{first.name, Median(values), first.unit});
  }
  // Pooled over the run, so the 99th percentile rests on every repetition's
  // slowest hooks, not on one repetition's few.
  report->metrics.push_back(Metric{"decision_p50_us", Percentile(decision_us, 50.0), "us"});
  report->metrics.push_back(Metric{"decision_p99_us", Percentile(decision_us, 99.0), "us"});
  report->metrics.push_back(
      Metric{"bench.decision_samples", static_cast<double>(decision_us.size()), "count"});
  report->metrics.push_back(
      Metric{"bench.repetitions", static_cast<double>(samples.size()), "count"});
  if (cfg.traced && last_probe != nullptr) {
    if (!cfg.spans_path.empty() && !last_probe->WriteChromeTrace(cfg.spans_path)) {
      report->notes.push_back("could not write spans to " + cfg.spans_path);
    }
    if (last_probe->truncated()) {
      report->notes.push_back("span file truncated at the span cap; aggregates are complete");
    }
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve-80gpu", "chaos-12gpu", "whatif-sweep"};
  return names;
}

bool RunWorkload(const Config& cfg, Report* report, std::string* error) {
  if (cfg.workload == "serve-80gpu" || cfg.workload == "chaos-12gpu") {
    LiveSpec spec = cfg.workload == "serve-80gpu" ? ServeSpec(cfg.tiny) : ChaosSpec(cfg.tiny);
    std::vector<ExperimentOptions> instances;
    for (int i = 0; i < spec.instances; ++i) {
      instances.push_back(LiveOptions(spec, cfg.seed, i));
    }
    Repeat(
        cfg, /*input_digest=*/0,
        [&](Probe& probe) { return RunLiveRep(instances, cfg, probe); }, report);
    report->notes.push_back(
        "exp.dataplane_ms is Run minus Initialize minus policy hooks; the outside view cannot "
        "split it into monitor ticks, calendar queue and per-batch oracle");
    return true;
  }
  if (cfg.workload == "whatif-sweep") {
    std::vector<RecordedTrace> traces(static_cast<size_t>(RecordSpec(cfg.tiny).instances));
    Digest input;
    uint64_t decisions = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
      if (!RecordTrace(cfg, static_cast<int>(i), &traces[i], error)) {
        return false;
      }
      AddResult(input, traces[i].result, traces[i].tuning_iterations);
      input.Add(traces[i].decisions);
      decisions += traces[i].decisions;
    }
    Repeat(
        cfg, input.value(), [&](Probe& probe) { return RunSweepRep(traces, cfg, probe); },
        report);
    report->notes.push_back("replayed " + std::to_string(decisions) + " decisions from " +
                            std::to_string(traces.size()) +
                            " recorded traces; modelled metrics are the recorded runs'");
    for (const RecordedTrace& trace : traces) {
      std::remove(trace.path.c_str());
    }
    return true;
  }
  *error = "unknown workload '" + cfg.workload + "'";
  return false;
}

}  // namespace perfbench
