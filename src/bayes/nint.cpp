#include "bayes/nint.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/quadrature.hpp"
#include "math/roots.hpp"
#include "math/specfun.hpp"

namespace vbsrm::bayes {

namespace m = vbsrm::math;

Box Box::from_quantiles(double omega_q005, double omega_q995,
                        double beta_q005, double beta_q995) {
  return {omega_q005 / 2.0, omega_q995 * 1.5, beta_q005 / 2.0,
          beta_q995 * 1.5};
}

NintEstimator::NintEstimator(LogPosterior posterior, Box box,
                             NintOptions opt)
    : posterior_(std::move(posterior)) {
  if (!(box.omega_hi > box.omega_lo) || !(box.beta_hi > box.beta_lo) ||
      box.omega_lo < 0.0 || box.beta_lo < 0.0) {
    throw std::invalid_argument("NintEstimator: bad box");
  }
  const auto grid = m::make_product_grid(box.omega_lo, box.omega_hi,
                                         box.beta_lo, box.beta_hi,
                                         opt.panels, opt.order);
  omega_nodes_ = grid.x;
  beta_nodes_ = grid.y;

  const std::size_t no = omega_nodes_.size();
  const std::size_t nb = beta_nodes_.size();

  // Factorized evaluation: one (C(beta), D(beta), prior) triple per
  // beta node, then the omega sweep is cheap.
  const double mlog = static_cast<double>(posterior_.failures());
  std::vector<double> cb(nb), db(nb), pb(nb);
  for (std::size_t j = 0; j < nb; ++j) {
    cb[j] = posterior_.beta_term(beta_nodes_[j]);
    db[j] = posterior_.exposure(beta_nodes_[j]);
    pb[j] = posterior_.priors().beta.log_density(beta_nodes_[j]);
  }

  std::vector<double> logmass(no * nb);
  double peak = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < no; ++i) {
    const double omega = omega_nodes_[i];
    const double pomega = posterior_.priors().omega.log_density(omega) +
                          mlog * std::log(omega);
    const double lwi = std::log(grid.wx[i]);
    for (std::size_t j = 0; j < nb; ++j) {
      const double lp = pomega + pb[j] + cb[j] - omega * db[j];
      const double v = lp + lwi + std::log(grid.wy[j]);
      logmass[i * nb + j] = v;
      peak = std::max(peak, v);
    }
  }
  double z = 0.0;
  mass_.resize(no * nb);
  for (std::size_t k = 0; k < logmass.size(); ++k) {
    mass_[k] = std::exp(logmass[k] - peak);
    z += mass_[k];
  }
  for (double& v : mass_) v /= z;
  log_z_ = peak + std::log(z);
}

PosteriorSummary NintEstimator::summary() const {
  const std::size_t no = omega_nodes_.size(), nb = beta_nodes_.size();
  double eo = 0.0, eb = 0.0, eoo = 0.0, ebb = 0.0, eob = 0.0;
  for (std::size_t i = 0; i < no; ++i) {
    const double o = omega_nodes_[i];
    for (std::size_t j = 0; j < nb; ++j) {
      const double w = mass_[i * nb + j];
      const double b = beta_nodes_[j];
      eo += w * o;
      eb += w * b;
      eoo += w * o * o;
      ebb += w * b * b;
      eob += w * o * b;
    }
  }
  return {eo, eb, eoo - eo * eo, ebb - eb * eb, eob - eo * eb};
}

namespace {

/// Quantile from (node, mass) pairs with nodes ascending: accumulates
/// mass and linearly interpolates inside the crossing node gap.
double marginal_quantile(const std::vector<double>& nodes,
                         const std::vector<double>& mass, double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("quantile: p in (0,1)");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double next = acc + mass[i];
    if (next >= p) {
      const double frac = mass[i] > 0.0 ? (p - acc) / mass[i] : 0.5;
      const double left = i == 0 ? nodes[0] : 0.5 * (nodes[i - 1] + nodes[i]);
      const double right = i + 1 < nodes.size()
                               ? 0.5 * (nodes[i] + nodes[i + 1])
                               : nodes[i];
      return left + frac * (right - left);
    }
    acc = next;
  }
  return nodes.back();
}

}  // namespace

double NintEstimator::quantile_omega(double p) const {
  const std::size_t no = omega_nodes_.size(), nb = beta_nodes_.size();
  std::vector<double> marg(no, 0.0);
  for (std::size_t i = 0; i < no; ++i) {
    for (std::size_t j = 0; j < nb; ++j) marg[i] += mass_[i * nb + j];
  }
  return marginal_quantile(omega_nodes_, marg, p);
}

double NintEstimator::quantile_beta(double p) const {
  const std::size_t no = omega_nodes_.size(), nb = beta_nodes_.size();
  std::vector<double> marg(nb, 0.0);
  for (std::size_t i = 0; i < no; ++i) {
    for (std::size_t j = 0; j < nb; ++j) marg[j] += mass_[i * nb + j];
  }
  return marginal_quantile(beta_nodes_, marg, p);
}

CredibleInterval NintEstimator::interval_omega(double level) const {
  const double a = 0.5 * (1.0 - level);
  return {quantile_omega(a), quantile_omega(1.0 - a), level};
}

CredibleInterval NintEstimator::interval_beta(double level) const {
  const double a = 0.5 * (1.0 - level);
  return {quantile_beta(a), quantile_beta(1.0 - a), level};
}

double NintEstimator::joint_density(double omega, double beta) const {
  return std::exp(posterior_(omega, beta) - log_z_);
}

double NintEstimator::reliability_point(double u) const {
  const nhpp::GammaFailureLaw law{posterior_.alpha0()};
  const double te = posterior_.horizon();
  const std::size_t no = omega_nodes_.size(), nb = beta_nodes_.size();
  double r = 0.0;
  for (std::size_t j = 0; j < nb; ++j) {
    const double h = law.interval_mass(te, te + u, beta_nodes_[j]);
    for (std::size_t i = 0; i < no; ++i) {
      r += mass_[i * nb + j] * std::exp(-omega_nodes_[i] * h);
    }
  }
  return r;
}

double NintEstimator::node_weight_sum(std::size_t beta_index,
                                      double omega_cut) const {
  // Mass in this beta column with omega >= omega_cut, linearly
  // interpolated within the straddling node cell.
  const std::size_t no = omega_nodes_.size(), nb = beta_nodes_.size();
  if (omega_cut <= omega_nodes_.front()) {
    double s = 0.0;
    for (std::size_t i = 0; i < no; ++i) s += mass_[i * nb + beta_index];
    return s;
  }
  if (omega_cut > omega_nodes_.back()) return 0.0;
  double s = 0.0;
  for (std::size_t i = no; i-- > 0;) {
    if (omega_nodes_[i] >= omega_cut) {
      s += mass_[i * nb + beta_index];
    } else {
      // Fractional share of the straddled gap between node i and node
      // i+1, treating node i's mass as uniform over that gap.
      const double right = omega_nodes_[i + 1];
      const double frac = (right - omega_cut) / (right - omega_nodes_[i]);
      s += frac * mass_[i * nb + beta_index];
      break;
    }
  }
  return s;
}

double NintEstimator::reliability_cdf(double x, double u) const {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const nhpp::GammaFailureLaw law{posterior_.alpha0()};
  const double te = posterior_.horizon();
  const std::size_t nb = beta_nodes_.size();
  const double neg_log_x = -std::log(x);
  double p = 0.0;
  for (std::size_t j = 0; j < nb; ++j) {
    const double h = law.interval_mass(te, te + u, beta_nodes_[j]);
    const double cut = h > 0.0 ? neg_log_x / h
                               : std::numeric_limits<double>::infinity();
    p += node_weight_sum(j, cut);
  }
  return p;
}

double NintEstimator::reliability_quantile(double p, double u) const {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("reliability_quantile: p in (0,1)");
  }
  auto f = [&](double x) { return reliability_cdf(x, u) - p; };
  const auto r = m::bisect(f, 1e-12, 1.0 - 1e-12, 1e-10, 200);
  return r.x;
}

ReliabilityEstimate NintEstimator::reliability(double u, double level) const {
  const double a = 0.5 * (1.0 - level);
  return {reliability_point(u), reliability_quantile(a, u),
          reliability_quantile(1.0 - a, u), level};
}

}  // namespace vbsrm::bayes
