#include "src/exp/serving_replica.h"

#include <algorithm>
#include <cmath>

#include "src/common/stats.h"
#include "src/replay/probe.h"

namespace mudi {
namespace {

TimeMs WaitTimeoutMs(const GpuDevice& dev) {
  return std::clamp(0.25 * ServiceOf(dev.inference()).slo_ms, 5.0, 400.0);
}

TimeMs ArrivalTickMs(const ServingContext& ctx, const GpuDevice& dev) {
  return ctx.arrival_tick_ms > 0.0 ? ctx.arrival_tick_ms
                                   : std::clamp(ServiceOf(dev.inference()).slo_ms / 15.0, 5.0, 100.0);
}

// Poisson arrivals on `r`'s request profile over one tick.
double DrawArrivals(ServingContext& ctx, const ServingReplica& r, const GpuDevice& dev,
                    TimeMs now) {
  return static_cast<double>(
      ctx.rng.Poisson(r.qps->QpsAt(now) * ArrivalTickMs(ctx, dev) / kMsPerSecond));
}

void CountFailed(ServingContext& ctx, double count) {
  ctx.failed_requests += count;
  ctx.telemetry.Count("fault.failed_requests", count);
}

void RouteCohort(ServingContext& ctx, std::vector<ServingReplica>& replicas,
                 std::vector<GpuDevice>& devices, int failed_device, const Cohort& cohort) {
  ServingReplica& failed = replicas[static_cast<size_t>(failed_device)];
  size_t service = devices[static_cast<size_t>(failed_device)].inference().service_index;
  std::vector<int> survivors;
  for (const GpuDevice& dev : devices) {
    if (dev.id() != failed_device && dev.healthy() && dev.has_inference() &&
        dev.inference().service_index == service) {
      survivors.push_back(dev.id());
    }
  }
  if (survivors.empty()) {
    CountFailed(ctx, cohort.count);  // no surviving replica of this service
    return;
  }
  TimeMs now = ctx.sim.Now();
  int target = survivors[failed.reroute_cursor % survivors.size()];
  ++failed.reroute_cursor;
  ServingReplica& r = replicas[static_cast<size_t>(target)];
  r.queue.push_back(cohort);
  r.queued += cohort.count;
  r.monitor.RecordArrivals(now, cohort.count);
  r.window_failure_tainted = true;
  ctx.rerouted_requests += cohort.count;
  ctx.telemetry.Count("fault.rerouted_requests", cohort.count);
  MUDI_TRACE_INSTANT(&ctx.telemetry, "fault", "reroute", target, now,
                     telemetry::TraceArgs{telemetry::TraceArg::Num("from_device", failed_device),
                                          telemetry::TraceArg::Num("count", cohort.count)});
  r.TryStartBatch(ctx, devices[static_cast<size_t>(target)]);
}

}  // namespace

ServingContext::ServingContext(Simulator& sim, Rng& rng, const PerfOracle& oracle,
                               Telemetry& telemetry, TimeMs arrival_tick_ms)
    : sim(sim), rng(rng), oracle(oracle), telemetry(telemetry), arrival_tick_ms(arrival_tick_ms) {
  if (telemetry.enabled()) {
    auto& metrics = telemetry.metrics();
    batches = &metrics.GetCounter("serving.batches");
    requests = &metrics.GetCounter("serving.requests");
    shed = &metrics.GetCounter("serving.shed_requests");
    batch_latency = &metrics.GetHistogram("serving.batch_latency_ms",
                                          telemetry::MetricsRegistry::DefaultLatencyBucketsMs());
    windows_total = &metrics.GetCounter("slo.windows_total");
    windows_violated = &metrics.GetCounter("slo.windows_violated");
    windows_violated_failure = &metrics.GetCounter("slo.windows_violated_failure");
  }
}

void ServingReplica::Start(ServingContext& ctx, GpuDevice& dev, TimeMs now) {
  TimeMs tick = ArrivalTickMs(ctx, dev);
  arrival_event =
      ctx.sim.SchedulePeriodic(now + tick, tick, [this, &ctx, &dev] { ArrivalTick(ctx, dev); });
  slo_event = ctx.sim.SchedulePeriodic(now + kSloWindowMs, kSloWindowMs,
                                       [this, &ctx, &dev] { CloseSloWindow(ctx, dev); });
}

void ServingReplica::Restart(ServingContext& ctx, GpuDevice& dev, TimeMs now) {
  monitor = QpsMonitor();
  monitor.SetTelemetry(&ctx.telemetry, dev.id());
  window_latencies.clear();
  window_failure_tainted = false;
  if (failover_event != Simulator::kInvalidEventId) {
    ctx.sim.Cancel(failover_event);
    failover_event = Simulator::kInvalidEventId;
  }
  Start(ctx, dev, now);
}

// MUDI_HOT_PATH  ArrivalTick runs once per device per tick and
// TryStartBatch/FinishBatch once per served batch. Each batch lives in its
// replica's inflight buffer, whose capacity is kept from batch to batch.
void ServingReplica::ArrivalTick(ServingContext& ctx, GpuDevice& dev) {
  if (!dev.healthy()) {
    return;  // the periodic event is cancelled at failure; belt and braces
  }
  TimeMs now = ctx.sim.Now();
  double count = DrawArrivals(ctx, *this, dev, now);
  if (count > 0.0) {
    // NOLINTNEXTLINE(mudi-hot-path-alloc): std::deque takes one chunk per ~32 cohorts and frees it as the front drains; the 50-batch cap bounds the live chunks
    queue.push_back(Cohort{now, count});
    queued += count;
    monitor.RecordArrivals(now, count);

    // Overload shedding: bound the queue, penalizing shed requests.
    double cap = kQueueCapBatches * static_cast<double>(std::max(dev.inference().batch_size, 1));
    while (queued > cap && !queue.empty()) {
      Cohort shed = queue.front();
      queue.pop_front();
      queued -= shed.count;
      double penalty = kPenaltySlos * ServiceOf(dev.inference()).slo_ms;
      // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth, capacity kept
      window_latencies.emplace_back(penalty, shed.count);
      monitor.RecordLatency(penalty, shed.count);
      if (ctx.shed != nullptr) {
        ctx.shed->Increment(shed.count);
        MUDI_TRACE_INSTANT(&ctx.telemetry, "serving", "shed", dev.id(), now,
                           telemetry::TraceArgs{telemetry::TraceArg::Num("count", shed.count)});
      }
    }
    TryStartBatch(ctx, dev);
  }
}

void ServingReplica::TryStartBatch(ServingContext& ctx, GpuDevice& dev) {
  if (busy || queue.empty() || !dev.healthy()) {
    return;
  }
  int target_batch = std::max(dev.inference().batch_size, 1);
  TimeMs now = ctx.sim.Now();
  TimeMs oldest_age = now - queue.front().arrival_ms;
  // The epsilon guards against a Zeno loop: when the timeout fires at
  // exactly arrival+timeout, floating-point error can leave oldest_age one
  // ulp short of the timeout, which would re-arm at the same instant.
  if (queued < static_cast<double>(target_batch) && oldest_age + 1e-6 < WaitTimeoutMs(dev)) {
    // Not enough for a full batch yet: arm the formation timeout.
    if (timeout_event == Simulator::kInvalidEventId) {
      TimeMs fire_at = queue.front().arrival_ms + WaitTimeoutMs(dev);
      timeout_event = ctx.sim.ScheduleAt(std::max(fire_at, now + 0.001), [this, &ctx, &dev] {
        timeout_event = Simulator::kInvalidEventId;
        TryStartBatch(ctx, dev);
      });
    }
    return;
  }
  if (timeout_event != Simulator::kInvalidEventId) {
    ctx.sim.Cancel(timeout_event);
    timeout_event = Simulator::kInvalidEventId;
  }

  // Form the batch FIFO from cohorts, straight into the inflight buffer.
  double want = std::min(queued, static_cast<double>(target_batch));
  int actual = std::max(1, static_cast<int>(std::lround(want)));
  inflight.clear();
  double remaining = static_cast<double>(actual);
  while (remaining > 1e-9 && !queue.empty()) {
    Cohort& front = queue.front();
    double take = std::min(front.count, remaining);
    // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth, capacity kept
    inflight.emplace_back(front.arrival_ms, take);
    front.count -= take;
    queued -= take;
    remaining -= take;
    if (front.count <= 1e-9) {
      queue.pop_front();
    }
  }

  replay::CollectColocation(dev, replay::kNoTask, ctx.colocation);
  double latency = ctx.oracle
                       .ObserveInferenceBatchLatency(ServiceOf(dev.inference()), actual,
                                                     dev.inference().gpu_fraction, ctx.colocation,
                                                     ctx.rng)
                       .total_ms() /
                   dev.EffectiveComputeScale();
  busy = true;
  busy_start = now;
  batch_event = ctx.sim.ScheduleAfter(
      latency, [this, &ctx, &dev, latency] { FinishBatch(ctx, dev, latency); });
}

void ServingReplica::FinishBatch(ServingContext& ctx, GpuDevice& dev, double latency_ms) {
  TimeMs now = ctx.sim.Now();
  busy = false;
  batch_event = Simulator::kInvalidEventId;
  busy_accum_ms += now - busy_start;
  double batch_requests = 0.0;
  for (const auto& [arrival, count] : inflight) {
    // End-to-end latency = queueing + batch service time.
    double e2e = now - arrival;
    // NOLINTNEXTLINE(mudi-hot-path-alloc): one-way high-water-mark growth, capacity kept
    window_latencies.emplace_back(e2e, count);
    monitor.RecordLatency(e2e, count);
    latency_weighted_sum += e2e * count;
    served += count;
    batch_requests += count;
  }
  if (ctx.batches != nullptr) {
    ctx.batches->Increment();
    ctx.requests->Increment(batch_requests);
    ctx.batch_latency->Observe(latency_ms);
    // Re-routed cohorts keep their arrival times, so the oldest request need
    // not be at the front.
    TimeMs oldest_arrival = busy_start;
    for (const auto& cohort : inflight) {
      oldest_arrival = std::min(oldest_arrival, cohort.first);
    }
    MUDI_TRACE_COMPLETE(&ctx.telemetry, "serving", "batch", dev.id(), busy_start,
                        now - busy_start,
                        telemetry::TraceArgs{
                            telemetry::TraceArg::Num("requests", batch_requests),
                            telemetry::TraceArg::Num("latency_ms", latency_ms),
                            telemetry::TraceArg::Num("max_wait_ms", busy_start - oldest_arrival)});
  }
  inflight.clear();
  TryStartBatch(ctx, dev);
}
// MUDI_HOT_PATH_END

void ServingReplica::CloseSloWindow(ServingContext& ctx, const GpuDevice& dev) {
  bool tainted = window_failure_tainted;
  window_failure_tainted = false;
  if (window_latencies.empty()) {
    return;  // idle window: nothing to judge
  }
  double p99 = WeightedP99(window_latencies);  // reorders the window; cleared below
  double slo_ms = ServiceOf(dev.inference()).slo_ms;
  ++windows_total;
  bool violated = p99 > slo_ms;
  if (violated) {
    ++windows_violated;
    if (tainted) {
      ++windows_violated_failure;
    }
  }
  if (ctx.windows_total != nullptr) {
    ctx.windows_total->Increment();
    if (violated) {
      ctx.windows_violated->Increment();
      if (tainted) {
        ctx.windows_violated_failure->Increment();
      }
      MUDI_TRACE_INSTANT(&ctx.telemetry, "slo", "window_violation", dev.id(), ctx.sim.Now(),
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("p99_ms", p99),
                             telemetry::TraceArg::Num("slo_ms", slo_ms),
                             telemetry::TraceArg::Num("failure_attributed", tainted ? 1.0 : 0.0)});
    }
  }
  window_latencies.clear();
}

void FailReplica(ServingContext& ctx, std::vector<ServingReplica>& replicas,
                 std::vector<GpuDevice>& devices, int device_id, TimeMs now) {
  ServingReplica& r = replicas[static_cast<size_t>(device_id)];
  const GpuDevice& dev = devices[static_cast<size_t>(device_id)];
  // Stop every per-device event: arrivals, SLO windows, batch formation
  // timeouts, the in-flight batch, and any shadow-instance reconfiguration.
  for (Simulator::EventId* ev :
       {&r.arrival_event, &r.slo_event, &r.timeout_event, &r.batch_event, &r.pending_event}) {
    if (*ev != Simulator::kInvalidEventId) {
      ctx.sim.Cancel(*ev);
      *ev = Simulator::kInvalidEventId;
    }
  }
  r.pending_config.reset();

  // In-flight requests die with the device: worst-case penalty latency in
  // the (failure-attributed) SLO window, counted as failed.
  if (r.busy) {
    r.busy = false;
    r.busy_accum_ms += now - r.busy_start;
    double penalty = ServingReplica::kPenaltySlos * ServiceOf(dev.inference()).slo_ms;
    for (const auto& [arrival, count] : r.inflight) {
      r.window_latencies.emplace_back(penalty, count);
      CountFailed(ctx, count);
    }
    r.inflight.clear();
    r.window_failure_tainted = true;
  }
  // Queued cohorts fail over to surviving replicas of the same service.
  std::deque<Cohort> queued;
  queued.swap(r.queue);
  r.queued = 0.0;
  for (const Cohort& cohort : queued) {
    RouteCohort(ctx, replicas, devices, device_id, cohort);
  }
  // Judge the partial window now; subsequent windows belong to the failover
  // replicas (this replica's window clock stops until recovery).
  if (!r.window_latencies.empty()) {
    r.window_failure_tainted = true;
  }
  r.CloseSloWindow(ctx, dev);
  r.window_failure_tainted = false;

  // The service's request stream does not stop because a replica died:
  // future arrivals are drawn on the dead replica's profile and re-routed.
  TimeMs tick = ArrivalTickMs(ctx, dev);
  r.failover_event = ctx.sim.SchedulePeriodic(
      now + tick, tick, [&ctx, &replicas, &devices, device_id] {
        ServingReplica& down = replicas[static_cast<size_t>(device_id)];
        TimeMs at = ctx.sim.Now();
        double count = DrawArrivals(ctx, down, devices[static_cast<size_t>(device_id)], at);
        if (count > 0.0) {
          RouteCohort(ctx, replicas, devices, device_id, Cohort{at, count});
        }
      });
}

}  // namespace mudi
