// Streaming scalar statistics (Welford's online algorithm).
//
// Used for per-packet latency and any quantity observed sample-by-sample.
// Single pass, numerically stable, O(1) memory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace erapid::stats {

/// Online mean / variance / extrema accumulator.
class Streaming {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const Streaming& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto n = static_cast<double>(n_ + o.n_);
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(o.n_) / n;
    mean_ = (mean_ * static_cast<double>(n_) + o.mean_ * static_cast<double>(o.n_)) / n;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

  void reset() { *this = Streaming{}; }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace erapid::stats
