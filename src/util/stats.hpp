#pragma once

// Streaming statistics helpers used by sensors, benches, and tests.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace netmon::util {

// Welford-style streaming accumulator: O(1) memory, numerically stable.
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);
  void reset();

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Coefficient of variation (stddev/mean); 0 when mean is 0.
  double cv() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores all samples; supports exact quantiles. Use for bounded experiment
// sample sets, not unbounded streams.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  // q in [0,1]; linear interpolation between closest ranks.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& samples() const { return samples_; }
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace netmon::util
