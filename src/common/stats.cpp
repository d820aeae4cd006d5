#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace gridtrust {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return t_critical_95(n_ - 1) * stderr_mean();
}

double t_critical_95(std::size_t df) {
  // Two-sided 95 % critical values of Student's t distribution.
  static constexpr std::array<double, 31> kTable = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df < kTable.size()) return kTable[df];
  if (df < 40) return 2.030;
  if (df < 60) return 2.009;
  if (df < 120) return 1.990;
  return 1.960;
}

double percent_improvement(double base, double better) {
  GT_REQUIRE(base != 0.0, "percent_improvement requires a non-zero baseline");
  return (base - better) / base * 100.0;
}

double percentile(std::vector<double> values, double p) {
  GT_REQUIRE(!values.empty(), "percentile requires a non-empty sample");
  GT_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  if (values.size() == 1) return values.front();
  // Selects the two order statistics the rank falls between rather than
  // sorting the whole sample: the nth element, then the least one above it.
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double below = *nth;
  const double above = nth + 1 == values.end()
                           ? below
                           : *std::min_element(nth + 1, values.end());
  const double frac = rank - static_cast<double>(lo);
  return below * (1.0 - frac) + above * frac;
}

}  // namespace gridtrust
