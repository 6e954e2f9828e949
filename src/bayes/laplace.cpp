#include "bayes/laplace.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "math/optimize.hpp"
#include "math/specfun.hpp"

namespace vbsrm::bayes {

namespace m = vbsrm::math;

namespace {
constexpr int kMapMaxIterations = 4000;  // Nelder-Mead iteration cap
}

LaplaceEstimator::LaplaceEstimator(LogPosterior posterior)
    : posterior_(std::move(posterior)), cov_(2, 2) {
  // Start the MAP search a bit above the observed fault count, with the
  // failure-law mean at ~60% of the horizon.
  const double o0 = 1.3 * static_cast<double>(posterior_.failures()) + 1.0;
  const double b0 = posterior_.alpha0() / (0.6 * posterior_.horizon());
  // Maximize the posterior density in natural coordinates; optimize over
  // logs for scale robustness (the argmax over the plane is unchanged).
  auto nlp = [&](const std::vector<double>& p) {
    const double v = posterior_(std::exp(p[0]), std::exp(p[1]));
    return std::isfinite(v) ? -v : 1e300;
  };
  m::NelderMeadOptions nm;
  nm.max_iter = kMapMaxIterations;
  nm.restarts = 2;
  const auto sol = m::nelder_mead(nlp, {std::log(o0), std::log(b0)}, nm);
  map_omega_ = std::exp(sol.x[0]);
  map_beta_ = std::exp(sol.x[1]);

  auto neg_post = [&](const std::vector<double>& p) {
    const double v = posterior_(p[0], p[1]);
    return std::isfinite(v) ? -v : 1e300;
  };
  const auto h = m::numeric_hessian(neg_post, {map_omega_, map_beta_});
  math::Matrix hess(2, 2);
  hess(0, 0) = h[0];
  hess(0, 1) = h[1];
  hess(1, 0) = h[2];
  hess(1, 1) = h[3];
  cov_ = math::inverse(hess);
  if (!(cov_(0, 0) > 0.0) || !(cov_(1, 1) > 0.0)) {
    throw std::domain_error(
        "LaplaceEstimator: Hessian at MAP not positive definite");
  }
}

PosteriorSummary LaplaceEstimator::summary() const {
  return {map_omega_, map_beta_, cov_(0, 0), cov_(1, 1), cov_(0, 1)};
}

CredibleInterval LaplaceEstimator::interval_omega(double level) const {
  const double z = m::normal_quantile(0.5 + 0.5 * level);
  const double sd = std::sqrt(cov_(0, 0));
  return {map_omega_ - z * sd, map_omega_ + z * sd, level};
}

CredibleInterval LaplaceEstimator::interval_beta(double level) const {
  const double z = m::normal_quantile(0.5 + 0.5 * level);
  const double sd = std::sqrt(cov_(1, 1));
  return {map_beta_ - z * sd, map_beta_ + z * sd, level};
}

double LaplaceEstimator::joint_density(double omega, double beta) const {
  const double det = cov_(0, 0) * cov_(1, 1) - cov_(0, 1) * cov_(1, 0);
  if (det <= 0.0) return 0.0;
  const double dx = omega - map_omega_;
  const double dy = beta - map_beta_;
  const double qf = (cov_(1, 1) * dx * dx - 2.0 * cov_(0, 1) * dx * dy +
                     cov_(0, 0) * dy * dy) /
                    det;
  return std::exp(-0.5 * qf) / (2.0 * M_PI * std::sqrt(det));
}

ReliabilityEstimate LaplaceEstimator::reliability(double u,
                                                  double level) const {
  const nhpp::GammaFailureLaw law{posterior_.alpha0()};
  const double te = posterior_.horizon();
  const double h = law.interval_mass(te, te + u, map_beta_);
  const double r = std::exp(-map_omega_ * h);

  // Delta method: dR/domega = -h R;  dR/dbeta = -omega h'(beta) R with
  // h'(beta) = d/dbeta [G(te+u) - G(te)] computed by central difference.
  const double db = 1e-6 * map_beta_;
  const double hp = (law.interval_mass(te, te + u, map_beta_ + db) -
                     law.interval_mass(te, te + u, map_beta_ - db)) /
                    (2.0 * db);
  const double gr_o = -h * r;
  const double gr_b = -map_omega_ * hp * r;
  const double var = gr_o * gr_o * cov_(0, 0) + gr_b * gr_b * cov_(1, 1) +
                     2.0 * gr_o * gr_b * cov_(0, 1);
  const double sd = std::sqrt(std::max(0.0, var));
  const double z = m::normal_quantile(0.5 + 0.5 * level);
  return {r, r - z * sd, r + z * sd, level};
}

bool LaplaceEstimator::reliability_estimate_out_of_range(
    const ReliabilityEstimate& r) {
  return r.lower < 0.0 || r.upper > 1.0;
}

}  // namespace vbsrm::bayes
