#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netmon::util {

void Accumulator::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Accumulator::reset() { *this = Accumulator{}; }

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::cv() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return stddev() / std::abs(m);
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double x : samples_) m2 += (x - m) * (x - m);
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.front();
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::out_of_range("quantile: q not in [0,1]");
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

}  // namespace netmon::util
