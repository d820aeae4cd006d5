// Streaming statistics used to aggregate simulation replications.
//
// Experiments in this library report the mean over N independent replications
// together with a 95 % confidence half-width (Student t).  RunningStats
// accumulates with Welford's algorithm so long sweeps stay numerically stable.
#pragma once

#include <cstddef>
#include <vector>

namespace gridtrust {

/// Single-pass mean / variance / extrema accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return mean_; }

  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;

  /// Unbiased sample standard deviation.
  double stddev() const;

  /// Standard error of the mean.
  double stderr_mean() const;

  /// Half-width of the 95 % confidence interval for the mean (Student t).
  double ci95_halfwidth() const;

  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Two-sided Student-t 0.975 quantile for `df` degrees of freedom; exact
/// table below 30 df, 1.96 asymptote above.
double t_critical_95(std::size_t df);

/// Percentage improvement of `better` over `base`: (base-better)/base * 100.
/// Requires base != 0.
double percent_improvement(double base, double better);

/// Interpolated percentile of a sample (p in [0, 100]): the two order
/// statistics around rank p/100 * (n - 1), blended linearly.  They are found
/// by selection, not a full sort.  The input vector is taken by value, so
/// callers keep their ordering (or move a sample they no longer need).
/// Requires a non-empty sample.
double percentile(std::vector<double> values, double p);

}  // namespace gridtrust
