#include "core/vb1.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/specfun.hpp"
#include "nhpp/model.hpp"

namespace vbsrm::core {

namespace m = vbsrm::math;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Coordinate ascent stops once (E[N], xi) change by less than kTol
/// (relative), or after kMaxIterations sweeps.
constexpr double kTol = 1e-12;
constexpr int kMaxIterations = 2000;
}

Vb1Estimator::Vb1Estimator(double alpha0, const data::FailureTimeData& d,
                           const bayes::PriorPair& priors) {
  run(alpha0, priors, /*grouped=*/false, d.count(), d.observation_end(),
      d.total_time(), {}, {});
}

Vb1Estimator::Vb1Estimator(double alpha0, const data::GroupedData& d,
                           const bayes::PriorPair& priors) {
  run(alpha0, priors, /*grouped=*/true, d.total_failures(),
      d.observation_end(), 0.0, d.boundaries(), d.counts());
}

void Vb1Estimator::run(double alpha0, const bayes::PriorPair& priors,
                       bool grouped, std::uint64_t observed, double horizon,
                       double sum_t, const std::vector<double>& bounds,
                       const std::vector<std::size_t>& counts) {
  if (!(alpha0 > 0.0)) throw std::invalid_argument("Vb1: alpha0 must be > 0");
  if (observed == 0) {
    throw std::invalid_argument(
        "Vb1: no failures observed — beta is unidentifiable");
  }
  const nhpp::GammaFailureLaw law{alpha0};
  const double md = static_cast<double>(observed);

  // Observed-time mass at a given rate xi: exact sum for failure-time
  // data (independent of xi), truncated means for grouped data.
  auto observed_time = [&](double xi) {
    if (!grouped) return sum_t;
    double s = 0.0;
    double prev = 0.0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const double x = static_cast<double>(counts[i]);
      if (x > 0.0) s += x * law.truncated_mean(prev, bounds[i], xi);
      prev = bounds[i];
    }
    return s;
  };

  // Initialization: no residual faults, times anchored at the horizon.
  double e_n = md > 0.0 ? md : 1.0;
  double xi = alpha0 / (0.6 * horizon);

  diag_ = {};
  for (int it = 1; it <= kMaxIterations; ++it) {
    // q(mu) given current E[N], E[sum T].
    const double e_sum_t =
        observed_time(xi) + (e_n - md) * law.truncated_mean(horizon, kInf, xi);
    const double a_w = priors.omega.shape + e_n;
    const double b_w = priors.omega.rate + 1.0;
    const double a_b = priors.beta.shape + alpha0 * e_n;
    const double b_b = priors.beta.rate + e_sum_t;

    // q(U) given q(mu).
    const double e_log_omega = m::digamma(a_w) - std::log(b_w);
    const double e_log_beta = m::digamma(a_b) - std::log(b_b);
    const double xi_new = a_b / b_b;
    const double log_lambda = e_log_omega +
                              alpha0 * (e_log_beta - std::log(xi_new)) +
                              law.log_survival(horizon, xi_new);
    const double lambda = std::exp(log_lambda);
    const double e_n_new = md + lambda;

    const double delta =
        std::max(m::rel_diff(e_n_new, e_n), m::rel_diff(xi_new, xi));
    e_n = e_n_new;
    xi = xi_new;
    diag_.iterations = it;
    if (delta < kTol) {
      diag_.converged = true;
      break;
    }
  }
  diag_.expected_total_faults = e_n;

  const double e_sum_t =
      observed_time(xi) + (e_n - md) * law.truncated_mean(horizon, kInf, xi);
  ProductGammaComponent c;
  c.n = static_cast<std::uint64_t>(std::llround(e_n));
  c.weight = 1.0;
  c.omega = {priors.omega.shape + e_n, priors.omega.rate + 1.0};
  c.beta = {priors.beta.shape + alpha0 * e_n, priors.beta.rate + e_sum_t};
  posterior_.emplace(std::vector<ProductGammaComponent>{c}, alpha0, horizon);
}

}  // namespace vbsrm::core
