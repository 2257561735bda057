#include "src/common/stats.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/check.h"

namespace mudi {

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0.0;
  }
  double mean = Mean(values);
  double sq = 0.0;
  for (double v : values) {
    sq += (v - mean) * (v - mean);
  }
  return std::sqrt(sq / static_cast<double>(values.size()));
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  MUDI_CHECK(!sorted.empty());
  MUDI_CHECK_GE(p, 0.0);
  MUDI_CHECK_LE(p, 100.0);
  if (sorted.size() == 1) {
    return sorted[0];
  }
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Percentile(std::vector<double> values, double p) {
  MUDI_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

double WeightedP99(std::span<std::pair<double, double>> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& [lat, w] : samples) {
    total += w;
  }
  const double target = 0.99 * total;
  // Invariant: the answer lies in [lo, hi), whose samples weigh range_w, and
  // `below` is the weight of the samples left of lo, all smaller than
  // anything in the range.
  size_t lo = 0;
  size_t hi = samples.size();
  double below = 0.0;
  double range_w = total;
  while (true) {
    // Pivot at the weighted quantile the answer sits at within the range,
    // estimated on a strided sample: most of the range then lands on one
    // side of it, so the partition's branches predict well and the next
    // range is small. Any pivot taken from the range keeps the result exact.
    constexpr size_t kSample = 15;
    size_t n = hi - lo;
    double pivot = samples[lo + n / 2].first;
    if (n > kSample) {
      // The sample, ordered by latency as it is drawn (insertion).
      std::array<std::pair<double, double>, kSample> sample;
      size_t stride = n / kSample;
      double sample_w = 0.0;
      for (size_t j = 0; j < kSample; ++j) {
        const auto& drawn = samples[lo + j * stride + stride / 2];
        size_t k = j;
        for (; k > 0 && sample[k - 1].first > drawn.first; --k) {
          sample[k] = sample[k - 1];
        }
        sample[k] = drawn;
        sample_w += drawn.second;
      }
      double want = range_w > 0.0 ? (target - below) / range_w * sample_w : 0.0;
      double cum = 0.0;
      pivot = sample.back().first;
      for (const auto& [lat, w] : sample) {
        cum += w;
        if (cum >= want) {
          pivot = lat;
          break;
        }
      }
    }
    // Partition into [lo, lt) < pivot, [lt, gt) == pivot, [gt, hi) > pivot.
    size_t lt = lo;
    size_t i = lo;
    size_t gt = hi;
    double w_less = 0.0;
    double w_equal = 0.0;
    while (i < gt) {
      double v = samples[i].first;
      if (v < pivot) {
        w_less += samples[i].second;
        std::swap(samples[lt++], samples[i++]);
      } else if (v > pivot) {
        std::swap(samples[i], samples[--gt]);
      } else {
        w_equal += samples[i].second;
        ++i;
      }
    }
    if (lt > lo && below + w_less >= target) {
      hi = lt;  // already reached below the pivot
      range_w = w_less;
    } else if (below + w_less + w_equal >= target || gt == hi) {
      return pivot;
    } else {
      below += w_less + w_equal;
      range_w -= w_less + w_equal;
      lo = gt;
    }
  }
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, size_t num_points) {
  std::vector<CdfPoint> cdf;
  if (values.empty()) {
    return cdf;
  }
  std::sort(values.begin(), values.end());
  num_points = std::max<size_t>(num_points, 2);
  cdf.reserve(num_points);
  for (size_t i = 0; i < num_points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(num_points - 1);
    size_t idx = std::min(values.size() - 1,
                          static_cast<size_t>(frac * static_cast<double>(values.size() - 1)));
    cdf.push_back({values[idx], static_cast<double>(idx + 1) / static_cast<double>(values.size())});
  }
  return cdf;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  MUDI_CHECK_GT(alpha, 0.0);
  MUDI_CHECK_LE(alpha, 1.0);
}

void Ewma::Add(double value) {
  if (!has_value_) {
    value_ = value;
    has_value_ = true;
  } else {
    value_ = alpha_ * value + (1.0 - alpha_) * value_;
  }
}

void Ewma::Reset() {
  value_ = 0.0;
  has_value_ = false;
}

SlidingWindow::SlidingWindow(size_t capacity) : capacity_(capacity) {
  MUDI_CHECK_GT(capacity, 0u);
}

void SlidingWindow::Add(double value) {
  if (values_.size() == capacity_) {
    values_.pop_front();
  }
  values_.push_back(value);
}

void SlidingWindow::Clear() { values_.clear(); }

double SlidingWindow::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

double SlidingWindow::Percentile(double p) const {
  MUDI_CHECK(!values_.empty());
  std::vector<double> copy(values_.begin(), values_.end());
  return ::mudi::Percentile(std::move(copy), p);
}

void TimeWeightedMean::Add(double value, double duration) {
  MUDI_CHECK_GE(duration, 0.0);
  weighted_sum_ += value * duration;
  total_duration_ += duration;
}

double TimeWeightedMean::value() const {
  if (total_duration_ <= 0.0) {
    return 0.0;
  }
  return weighted_sum_ / total_duration_;
}

Histogram::Histogram(double lo, double hi, size_t num_buckets)
    : lo_(lo), hi_(hi), counts_(num_buckets, 0) {
  MUDI_CHECK_LT(lo, hi);
  MUDI_CHECK_GT(num_buckets, 0u);
}

void Histogram::Add(double value) {
  double frac = (value - lo_) / (hi_ - lo_);
  auto idx = static_cast<int64_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<int64_t>(idx, 0, static_cast<int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(idx)];
  ++total_;
}

double Histogram::BucketLow(size_t i) const {
  MUDI_CHECK_LT(i, counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::BucketHigh(size_t i) const {
  MUDI_CHECK_LT(i, counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) / static_cast<double>(counts_.size());
}

double Histogram::CumulativeFraction(size_t i) const {
  MUDI_CHECK_LT(i, counts_.size());
  if (total_ == 0) {
    return 0.0;
  }
  size_t cum = 0;
  for (size_t j = 0; j <= i; ++j) {
    cum += counts_[j];
  }
  return static_cast<double>(cum) / static_cast<double>(total_);
}

}  // namespace mudi
