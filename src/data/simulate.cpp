#include "data/simulate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/roots.hpp"
#include "random/distributions.hpp"

namespace vbsrm::data {

FailureTimeData simulate_gamma_nhpp(random::Rng& rng, double omega,
                                    double alpha0, double beta, double te) {
  if (!(omega > 0.0) || !(alpha0 > 0.0) || !(beta > 0.0) || !(te > 0.0)) {
    throw std::invalid_argument("simulate_gamma_nhpp: bad parameters");
  }
  const auto n = random::sample_poisson(rng, omega);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const double y = random::sample_gamma(rng, alpha0, beta);
    if (y <= te) times.push_back(y);
  }
  std::sort(times.begin(), times.end());
  return FailureTimeData(std::move(times), te);
}

GroupedData simulate_gamma_nhpp_grouped(random::Rng& rng, double omega,
                                        double alpha0, double beta, double te,
                                        std::size_t intervals) {
  if (intervals == 0) {
    throw std::invalid_argument("simulate_gamma_nhpp_grouped: 0 intervals");
  }
  const auto ft = simulate_gamma_nhpp(rng, omega, alpha0, beta, te);
  std::vector<double> bounds(intervals);
  for (std::size_t i = 0; i < intervals; ++i) {
    bounds[i] = te * static_cast<double>(i + 1) / static_cast<double>(intervals);
  }
  return ft.to_grouped(bounds);
}

std::vector<double> expected_order_statistics(
    const std::function<double(double)>& mean_value, double te,
    std::size_t m) {
  std::vector<double> times;
  times.reserve(m);
  const double lam_te = mean_value(te);
  for (std::size_t i = 1; i <= m; ++i) {
    const double target = static_cast<double>(i) - 0.5;
    if (target >= lam_te) {
      throw std::invalid_argument(
          "expected_order_statistics: mean value at te too small for m");
    }
    auto f = [&](double t) { return mean_value(t) - target; };
    const auto r = math::brent(f, 1e-12 * te, te, 1e-14, 300);
    if (!r.converged) {
      throw std::runtime_error("expected_order_statistics: inversion failed");
    }
    times.push_back(r.x);
  }
  std::sort(times.begin(), times.end());
  return times;
}

}  // namespace vbsrm::data
