#include "stats/quantiles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace vbsrm::stats {

double order_statistic_quantile(std::span<const double> x, double p) {
  if (x.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(p > 0.0) || p > 1.0) throw std::invalid_argument("quantile: bad p");
  std::vector<double> s(x.begin(), x.end());
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  // The 1e-9 guard keeps p*n values that are integers up to floating-
  // point noise (e.g. 0.5*(1-0.98)*1000) from spilling into the next
  // order statistic.
  std::size_t k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  if (k < 1) k = 1;
  if (k > n) k = n;
  return s[k - 1];
}

}  // namespace vbsrm::stats
