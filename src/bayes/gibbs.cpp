#include "bayes/gibbs.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "random/distributions.hpp"

namespace vbsrm::bayes {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The Gibbs iteration of both observation schemes.  Each iteration
/// first calls `observed_time(rng, beta, variates)` for the total time
/// of the m observed failures: a constant for failure-time data, the
/// Tanner-Wong draws for grouped data.  That step is the only per-scheme
/// code; the residual count, beta and omega draws and the thinning are
/// shared.
template <typename ObservedTime>
ChainResult run_gibbs(double alpha0, std::size_t failures, double horizon,
                      const PriorPair& priors, const McmcOptions& opt,
                      ObservedTime&& observed_time) {
  const nhpp::GammaFailureLaw law{alpha0};
  const double m = static_cast<double>(failures);

  random::Rng rng(opt.seed);
  double omega = 1.5 * m + 1.0;  // initial state
  double beta = alpha0 / (0.6 * horizon);

  constexpr std::size_t kMaxIter = std::numeric_limits<std::size_t>::max();
  if (opt.thin != 0 && opt.samples > (kMaxIter - opt.burn_in) / opt.thin) {
    throw std::invalid_argument(
        "gibbs: burn_in + thin * samples overflows the iteration count");
  }
  const std::size_t total_iter = opt.burn_in + opt.thin * opt.samples;
  std::vector<double> omega_chain, beta_chain;
  omega_chain.reserve(opt.samples);
  beta_chain.reserve(opt.samples);
  std::size_t variates = 0;

  for (std::size_t it = 0; it < total_iter; ++it) {
    // 1) total time of the observed failures.
    const double sum_obs = observed_time(rng, beta, variates);

    // 2) residual fault count.
    const double mean_r = omega * law.survival(horizon, beta);
    const auto r = random::sample_poisson(rng, mean_r);
    ++variates;
    const double rd = static_cast<double>(r);

    // 3) beta.
    if (alpha0 == 1.0) {
      // Residual lifetimes marginalized: only the e^{-beta t_e r} factor
      // survives, giving a clean conjugate update.
      beta = random::sample_gamma(rng, priors.beta.shape + m,
                                  priors.beta.rate + sum_obs + rd * horizon);
      ++variates;
    } else {
      // Augment the r unobserved failure times from the right-truncated
      // law, then use full conjugacy with all N = m + r times.
      double sum_all = sum_obs;
      for (std::uint64_t k = 0; k < r; ++k) {
        sum_all += random::sample_truncated_gamma(rng, alpha0, beta,
                                                  horizon, kInf);
      }
      variates += static_cast<std::size_t>(r);
      beta = random::sample_gamma(rng, priors.beta.shape + (m + rd) * alpha0,
                                  priors.beta.rate + sum_all);
      ++variates;
    }

    // 4) omega.
    omega = random::sample_gamma(rng, priors.omega.shape + m + rd,
                                 priors.omega.rate + 1.0);
    ++variates;

    if (it >= opt.burn_in && (it - opt.burn_in) % opt.thin == opt.thin - 1) {
      omega_chain.push_back(omega);
      beta_chain.push_back(beta);
      if (omega_chain.size() == opt.samples) break;
    }
  }
  return ChainResult(std::move(omega_chain), std::move(beta_chain), alpha0,
                     horizon, variates);
}

}  // namespace

ChainResult gibbs_failure_times(double alpha0, const data::FailureTimeData& d,
                                const PriorPair& priors,
                                const McmcOptions& opt) {
  if (d.count() == 0) {
    throw std::invalid_argument("gibbs_failure_times: no failures");
  }
  const double sum_t = d.total_time();
  return run_gibbs(alpha0, d.count(), d.observation_end(), priors, opt,
                   [sum_t](random::Rng&, double, std::size_t&) {
                     return sum_t;
                   });
}

ChainResult gibbs_grouped(double alpha0, const data::GroupedData& d,
                          const PriorPair& priors, const McmcOptions& opt) {
  if (d.total_failures() == 0) {
    throw std::invalid_argument("gibbs_grouped: no failures");
  }
  // Tanner-Wong step: re-draw every observed failure's exact time from
  // the law truncated to its interval.
  const auto augment = [&](random::Rng& rng, double beta,
                           std::size_t& variates) {
    double sum_obs = 0.0;
    for (std::size_t i = 0; i < d.intervals(); ++i) {
      const std::size_t xi = d.counts()[i];
      for (std::size_t k = 0; k < xi; ++k) {
        sum_obs += random::sample_truncated_gamma(
            rng, alpha0, beta, d.left_edge(i), d.right_edge(i));
      }
      variates += xi;
    }
    return sum_obs;
  };
  return run_gibbs(alpha0, d.total_failures(), d.observation_end(), priors,
                   opt, augment);
}

}  // namespace vbsrm::bayes
