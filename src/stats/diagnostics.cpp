#include "stats/diagnostics.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace vbsrm::stats {

std::vector<double> autocorrelation(std::span<const double> x, int max_lag) {
  const std::size_t n = x.size();
  if (n < 2) throw std::invalid_argument("autocorrelation: need n >= 2");
  if (max_lag < 0 || static_cast<std::size_t>(max_lag) >= n) {
    throw std::invalid_argument("autocorrelation: bad max_lag");
  }
  const double m = mean(x);
  double c0 = 0.0;
  for (double v : x) c0 += (v - m) * (v - m);
  c0 /= static_cast<double>(n);
  std::vector<double> rho(static_cast<std::size_t>(max_lag) + 1, 0.0);
  rho[0] = 1.0;
  if (c0 <= 0.0) return rho;  // constant chain
  for (int k = 1; k <= max_lag; ++k) {
    double ck = 0.0;
    for (std::size_t i = 0; i + k < n; ++i) {
      ck += (x[i] - m) * (x[i + k] - m);
    }
    ck /= static_cast<double>(n);
    rho[static_cast<std::size_t>(k)] = ck / c0;
  }
  return rho;
}

double effective_sample_size(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n < 4) return static_cast<double>(n);
  const int max_lag = static_cast<int>(std::min<std::size_t>(n - 2, 2000));
  const auto rho = autocorrelation(x, max_lag);
  // Geyer initial positive sequence: sum pairs rho[2k-1]+rho[2k] while
  // positive.
  double tau = 1.0;
  for (int k = 1; k + 1 <= max_lag; k += 2) {
    const double pair = rho[static_cast<std::size_t>(k)] +
                        rho[static_cast<std::size_t>(k + 1)];
    if (pair <= 0.0) break;
    tau += 2.0 * pair;
  }
  return static_cast<double>(n) / tau;
}

}  // namespace vbsrm::stats
