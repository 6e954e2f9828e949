#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vbsrm::stats {

double mean(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("mean: empty sample");
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.size() < 2) throw std::invalid_argument("variance: need n >= 2");
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size() - 1);
}

double covariance(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("covariance: need equal sizes, n >= 2");
  }
  const double mx = mean(x), my = mean(y);
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += (x[i] - mx) * (y[i] - my);
  return s / static_cast<double>(x.size() - 1);
}

double central_moment(std::span<const double> x, int k) {
  if (x.empty()) throw std::invalid_argument("central_moment: empty sample");
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += std::pow(v - m, k);
  return s / static_cast<double>(x.size());
}

double skewness(std::span<const double> x) {
  const double m2 = central_moment(x, 2);
  if (m2 <= 0.0) return 0.0;
  return central_moment(x, 3) / std::pow(m2, 1.5);
}

Summary summarize(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("summarize: empty sample");
  Summary s;
  s.n = x.size();
  s.mean = mean(x);
  s.variance = x.size() > 1 ? variance(x) : 0.0;
  s.sd = std::sqrt(s.variance);
  const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
  s.min = *lo;
  s.max = *hi;
  return s;
}

}  // namespace vbsrm::stats
