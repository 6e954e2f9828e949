#include "bayes/empirical.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bayes/laplace.hpp"
#include "math/optimize.hpp"
#include "nhpp/fit.hpp"
#include "stats/descriptive.hpp"

namespace vbsrm::bayes {

namespace m = vbsrm::math;

namespace {

double total_log_marginal_with_starts(
    double alpha0, const std::vector<data::FailureTimeData>& projects,
    const PriorPair& priors,
    const std::vector<std::pair<double, double>>& starts) {
  double total = 0.0;
  for (std::size_t k = 0; k < projects.size(); ++k) {
    LogPosterior post(alpha0, projects[k], priors);
    const LaplaceEstimator lap(
        std::move(post),
        starts.empty() ? std::pair{0.0, 0.0} : starts[k]);
    total += lap.log_marginal_likelihood();
  }
  return total;
}

}  // namespace

double total_log_marginal(double alpha0,
                          const std::vector<data::FailureTimeData>& projects,
                          const PriorPair& priors) {
  return total_log_marginal_with_starts(alpha0, projects, priors, {});
}

namespace {

PriorPair moment_matched_start(
    double alpha0, const std::vector<data::FailureTimeData>& projects) {
  // Fit each project by EM and moment-match gammas to the spread of the
  // per-project MLEs.
  std::vector<double> omegas, betas;
  nhpp::FitOptions fo;
  fo.compute_covariance = false;
  for (const auto& d : projects) {
    const auto fit = nhpp::fit_em(alpha0, d, fo);
    omegas.push_back(fit.omega);
    betas.push_back(fit.beta);
  }
  const double mo = stats::mean(omegas);
  const double mb = stats::mean(betas);
  // Spread: at least 40% cv so the start is not degenerate when the
  // projects happen to agree closely.
  const double so = std::max(std::sqrt(stats::variance(omegas)), 0.4 * mo);
  const double sb = std::max(std::sqrt(stats::variance(betas)), 0.4 * mb);
  return {GammaPrior::from_mean_sd(mo, so), GammaPrior::from_mean_sd(mb, sb)};
}

}  // namespace

EmpiricalBayesResult empirical_bayes_priors(
    double alpha0, const std::vector<data::FailureTimeData>& projects,
    const EmpiricalBayesOptions& opt) {
  if (projects.size() < 2) {
    throw std::invalid_argument(
        "empirical_bayes_priors: need >= 2 historical projects");
  }
  const PriorPair start = opt.use_default_start
                              ? moment_matched_start(alpha0, projects)
                              : opt.start;
  if (start.omega.is_flat() || start.beta.is_flat()) {
    throw std::invalid_argument(
        "empirical_bayes_priors: start priors must be proper");
  }

  // Warm starts for the per-project MAP searches: the project MLEs.
  std::vector<std::pair<double, double>> starts;
  {
    nhpp::FitOptions fo;
    fo.compute_covariance = false;
    for (const auto& d : projects) {
      const auto fit = nhpp::fit_em(alpha0, d, fo);
      starts.emplace_back(fit.omega, fit.beta);
    }
  }

  // Gamma cv = 1/sqrt(shape): the cv floor caps the shapes.
  const double shape_cap =
      opt.min_cv > 0.0 ? 1.0 / (opt.min_cv * opt.min_cv)
                       : std::numeric_limits<double>::infinity();
  auto objective = [&](const std::vector<double>& p) {
    const PriorPair priors{
        GammaPrior{std::min(std::exp(p[0]), shape_cap), std::exp(p[1])},
        GammaPrior{std::min(std::exp(p[2]), shape_cap), std::exp(p[3])}};
    try {
      const double lm =
          total_log_marginal_with_starts(alpha0, projects, priors, starts);
      return std::isfinite(lm) ? -lm : 1e300;
    } catch (const std::exception&) {
      return 1e300;  // MAP/Hessian failure under absurd hyperparameters
    }
  };
  m::NelderMeadOptions nm;
  nm.max_iter = opt.max_iterations;
  // The inner MAP searches leave ~1e-6-level noise on the evidence
  // surface; demanding more than ~1e-4 relative of the outer optimizer
  // just burns iterations without moving the hyperparameters.
  nm.x_tol = 1e-4;
  nm.f_tol = 1e-6;
  const std::vector<double> x0{
      std::log(start.omega.shape), std::log(start.omega.rate),
      std::log(start.beta.shape), std::log(start.beta.rate)};
  const auto sol = m::nelder_mead(objective, x0, nm);

  EmpiricalBayesResult out;
  out.priors = {
      GammaPrior{std::min(std::exp(sol.x[0]), shape_cap), std::exp(sol.x[1])},
      GammaPrior{std::min(std::exp(sol.x[2]), shape_cap), std::exp(sol.x[3])}};
  out.log_marginal = -sol.f;
  out.converged = sol.converged && sol.f < 1e299;
  return out;
}

}  // namespace vbsrm::bayes
