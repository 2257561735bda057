#include "src/cluster/monitor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/float_eq.h"
#include "src/common/stats.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

QpsMonitor::QpsMonitor() : QpsMonitor(Options{}) {}

QpsMonitor::QpsMonitor(Options options) : options_(options) {
  MUDI_CHECK_GT(options_.window_ms, 0.0);
  MUDI_CHECK_GT(options_.change_threshold, 0.0);
  MUDI_CHECK_GT(options_.latency_window, 0u);
  latencies_.reserve(options_.latency_window);
}

void QpsMonitor::EvictOld(TimeMs now) {
  while (!arrivals_.empty() && arrivals_.front().first < now - options_.window_ms) {
    arrivals_in_window_ -= arrivals_.front().second;
    arrivals_.pop_front();
  }
  if (arrivals_.empty()) {
    arrivals_in_window_ = 0.0;
  }
}

void QpsMonitor::RecordArrivals(TimeMs now, double count) {
  MUDI_CHECK_GE(count, 0.0);
  if (feedback_lost_) {
    return;  // Samples from the device never reach the monitor.
  }
  arrivals_.emplace_back(now, count);
  arrivals_in_window_ += count;
  EvictOld(now);
}

void QpsMonitor::RecordLatency(double latency_ms, double weight) {
  MUDI_CHECK_GE(weight, 0.0);
  if (ExactEq(weight, 0.0) || feedback_lost_) {
    return;
  }
  if (latencies_.size() < options_.latency_window) {
    latencies_.emplace_back(latency_ms, weight);  // within the reserved slots
    return;
  }
  latencies_[latency_head_] = {latency_ms, weight};
  latency_head_ = (latency_head_ + 1) % options_.latency_window;
}

double QpsMonitor::CurrentQps(TimeMs now) {
  if (feedback_lost_ || now < stale_until_ms_) {
    return frozen_qps_;
  }
  EvictOld(now);
  return arrivals_in_window_ / options_.window_ms * kMsPerSecond;
}

bool QpsMonitor::QpsChangedBeyondThreshold(TimeMs now) {
  if (feedback_lost_ || now < stale_until_ms_) {
    return false;  // A frozen estimate carries no new information.
  }
  double qps = CurrentQps(now);
  if (base_qps_ < 0.0) {
    return qps > 0.0;  // first observation always triggers initial tuning
  }
  double base = std::max(base_qps_, 1e-9);
  return std::abs(qps - base_qps_) / base > options_.change_threshold;
}

void QpsMonitor::SetFeedbackLost(bool lost, TimeMs now) {
  if (lost == feedback_lost_) {
    return;
  }
  if (lost) {
    frozen_qps_ = CurrentQps(now);
    frozen_at_ms_ = now;
    feedback_lost_ = true;
    stale_until_ms_ = -1.0;
  } else {
    feedback_lost_ = false;
    // Whatever survived in the window predates the outage; drop it and keep
    // serving the frozen value until a full window of fresh samples exists.
    arrivals_.clear();
    arrivals_in_window_ = 0.0;
    ClearLatencyWindow();
    stale_until_ms_ = now + options_.window_ms;
  }
}

std::optional<TimeMs> QpsMonitor::StalenessMs(TimeMs now) const {
  if (feedback_lost_ || now < stale_until_ms_) {
    return now - frozen_at_ms_;
  }
  return std::nullopt;
}

void QpsMonitor::SetTelemetry(Telemetry* telemetry, int device_id) {
  telemetry_ = (telemetry != nullptr && telemetry->enabled()) ? telemetry : nullptr;
  device_id_ = device_id;
}

void QpsMonitor::AckQpsChange(TimeMs now) {
  double previous = base_qps_;
  base_qps_ = CurrentQps(now);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().GetCounter("monitor.qps_reacks").Increment();
    MUDI_TRACE_INSTANT(telemetry_, "monitor", "qps_reack", device_id_, now,
                       telemetry::TraceArgs{telemetry::TraceArg::Num("qps", base_qps_),
                                            telemetry::TraceArg::Num("prev_qps", previous)});
  }
}

double QpsMonitor::P99LatencyMs() const {
  p99_scratch_.assign(latencies_.begin(), latencies_.end());
  return WeightedP99(p99_scratch_);
}

}  // namespace mudi
