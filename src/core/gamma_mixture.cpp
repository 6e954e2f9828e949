#include "core/gamma_mixture.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "math/quadrature.hpp"
#include "math/roots.hpp"
#include "math/specfun.hpp"
#include "nhpp/model.hpp"
#include "random/distributions.hpp"

namespace vbsrm::core {

namespace m = vbsrm::math;

double GammaParams::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return m::gamma_p(shape, rate * x);
}

double GammaParams::quantile(double p) const {
  return m::inv_gamma_p(shape, p) / rate;
}

double GammaParams::log_pdf(double x) const {
  if (!(x > 0.0)) return -std::numeric_limits<double>::infinity();
  return shape * std::log(rate) + (shape - 1.0) * std::log(x) - rate * x -
         m::log_gamma(shape);
}

GammaMixturePosterior::GammaMixturePosterior(
    std::vector<ProductGammaComponent> components, double alpha0,
    double horizon)
    : components_(std::move(components)), alpha0_(alpha0), horizon_(horizon) {
  if (components_.empty()) {
    throw std::invalid_argument("GammaMixturePosterior: no components");
  }
  double total = 0.0;
  for (const auto& c : components_) {
    if (c.weight < 0.0 || !(c.omega.shape > 0.0) || !(c.omega.rate > 0.0) ||
        !(c.beta.shape > 0.0) || !(c.beta.rate > 0.0)) {
      throw std::invalid_argument("GammaMixturePosterior: bad component");
    }
    total += c.weight;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("GammaMixturePosterior: zero total weight");
  }
  for (auto& c : components_) c.weight /= total;
  cum_weights_.reserve(components_.size());
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight;
    cum_weights_.push_back(acc);
  }
  cache_slot_ = std::make_unique<CacheSlot>();
}

// Per-component quadrature data shared by every reliability functional:
// the mapped Gauss-Legendre abscissae over the beta marginal's effective
// support and the weight * pdf(node) coefficients, so each functional
// evaluation is a dot product against per-node values of the integrand.
struct GammaMixturePosterior::FunctionalCache {
  struct Comp {
    double weight = 0.0;
    double a_w = 0.0, b_w = 0.0;   // omega | N parameters
    double lgamma_aw = 0.0;        // log Gamma(a_w), for the pair kernel
    int order = 0;                 // nodes per panel
    std::vector<double> panel_h;   // per-panel halfwidths
    std::vector<double> nodes;     // beta abscissae, panel-major
    std::vector<double> wpdf;      // gl_weight * pdf(node)
  };
  std::vector<Comp> comps;  // components above the weight floor, in order
  double kept = 0.0;        // total cached weight
  double skipped = 0.0;     // total weight below the floor
};

struct GammaMixturePosterior::CacheSlot {
  std::once_flag once;
  FunctionalCache data;
};

// Interval-mass table for one mission length u.  `h` feeds the point
// estimate; `inv` = b_w/h and `log_inv` = log(b_w/h) let each CDF
// evaluation call the cached incomplete-gamma pair kernel with
// x = inv * (-log x_R) and log x = log_inv + log(-log x_R), so a whole
// CDF sweep costs one log() total instead of a log + lgamma per node.
struct GammaMixturePosterior::HTable {
  std::vector<std::vector<double>> h, inv, log_inv;
};

GammaMixturePosterior::~GammaMixturePosterior() = default;
GammaMixturePosterior::GammaMixturePosterior(GammaMixturePosterior&&) noexcept =
    default;
GammaMixturePosterior& GammaMixturePosterior::operator=(
    GammaMixturePosterior&&) noexcept = default;

bayes::PosteriorSummary GammaMixturePosterior::summary() const {
  double eo = 0.0, eb = 0.0, eoo = 0.0, ebb = 0.0, eob = 0.0;
  for (const auto& c : components_) {
    const double mo = c.omega.mean(), mb = c.beta.mean();
    eo += c.weight * mo;
    eb += c.weight * mb;
    eoo += c.weight * (c.omega.variance() + mo * mo);
    ebb += c.weight * (c.beta.variance() + mb * mb);
    // omega and beta independent within a component.
    eob += c.weight * mo * mb;
  }
  return {eo, eb, eoo - eo * eo, ebb - eb * eb, eob - eo * eb};
}

double GammaMixturePosterior::mean_total_faults() const {
  double s = 0.0;
  for (const auto& c : components_) {
    s += c.weight * static_cast<double>(c.n);
  }
  return s;
}

double GammaMixturePosterior::prob_total_faults(std::uint64_t n) const {
  double s = 0.0;
  for (const auto& c : components_) {
    if (c.n == n) s += c.weight;
  }
  return s;
}

double GammaMixturePosterior::cdf_omega(double x) const {
  double s = 0.0;
  for (const auto& c : components_) s += c.weight * c.omega.cdf(x);
  return s;
}

double GammaMixturePosterior::cdf_beta(double x) const {
  double s = 0.0;
  for (const auto& c : components_) s += c.weight * c.beta.cdf(x);
  return s;
}

namespace {

double mixture_quantile(double p, double lo, double hi,
                        const std::function<double(double)>& cdf) {
  auto f = [&](double x) { return cdf(x) - p; };
  const auto r = m::brent(f, lo, hi, 1e-13, 300);
  return r.x;
}

}  // namespace

double GammaMixturePosterior::quantile_omega(double p) const {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("quantile_omega: p in (0,1)");
  }
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (const auto& c : components_) {
    lo = std::min(lo, c.omega.quantile(std::min(p, 1e-7)));
    hi = std::max(hi, c.omega.quantile(std::max(p, 1.0 - 1e-7)));
  }
  return mixture_quantile(p, lo, hi, [&](double x) { return cdf_omega(x); });
}

double GammaMixturePosterior::quantile_beta(double p) const {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("quantile_beta: p in (0,1)");
  }
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (const auto& c : components_) {
    lo = std::min(lo, c.beta.quantile(std::min(p, 1e-7)));
    hi = std::max(hi, c.beta.quantile(std::max(p, 1.0 - 1e-7)));
  }
  return mixture_quantile(p, lo, hi, [&](double x) { return cdf_beta(x); });
}

bayes::CredibleInterval GammaMixturePosterior::interval_omega(
    double level) const {
  const double a = 0.5 * (1.0 - level);
  return {quantile_omega(a), quantile_omega(1.0 - a), level};
}

bayes::CredibleInterval GammaMixturePosterior::interval_beta(
    double level) const {
  const double a = 0.5 * (1.0 - level);
  return {quantile_beta(a), quantile_beta(1.0 - a), level};
}

double GammaMixturePosterior::joint_density(double omega, double beta) const {
  double s = 0.0;
  for (const auto& c : components_) {
    s += c.weight * std::exp(c.omega.log_pdf(omega) + c.beta.log_pdf(beta));
  }
  return s;
}

std::pair<double, double> GammaMixturePosterior::sample(
    random::Rng& rng) const {
  // First component whose cumulative weight exceeds u — the binary-search
  // equivalent of the linear subtractive scan, O(log K) per draw.
  const double u = rng.next_double();
  const auto it =
      std::upper_bound(cum_weights_.begin(), cum_weights_.end(), u);
  const ProductGammaComponent& pick =
      it == cum_weights_.end()
          ? components_.back()
          : components_[static_cast<std::size_t>(it - cum_weights_.begin())];
  return {random::sample_gamma(rng, pick.omega.shape, pick.omega.rate),
          random::sample_gamma(rng, pick.beta.shape, pick.beta.rate)};
}

namespace {
// Components below this weight contribute less than ~1e-12 to any
// functional bounded by 1 (reliability, cdf values): skipping them
// turns heavy-tailed mixtures (thousands of components) from seconds
// into milliseconds without a measurable accuracy change.
constexpr double kFunctionalWeightFloor = 1e-12;
// Quadrature layout of every reliability functional: a 24-point rule
// over 8 equal panels of the component's effective support.
constexpr int kFunctionalOrder = 24;
constexpr int kFunctionalPanels = 8;

/// Dot product of a cached component against g(flat node index): each
/// panel's weighted sum is scaled by its half-width, then the panels are
/// added in order.  The component type is deduced (FunctionalCache::Comp
/// is private).
template <typename C, typename G>
double cached_integral(const C& cc, G&& g) {
  double s = 0.0;
  std::size_t j = 0;
  for (const double h : cc.panel_h) {
    double ps = 0.0;
    for (int i = 0; i < cc.order; ++i, ++j) {
      ps += cc.wpdf[j] * g(j);
    }
    s += ps * h;
  }
  return s;
}

}  // namespace

const GammaMixturePosterior::FunctionalCache&
GammaMixturePosterior::functional_cache() const {
  std::call_once(cache_slot_->once, [&] {
    FunctionalCache& fc = cache_slot_->data;
    const m::GaussLegendre rule(kFunctionalOrder);
    for (const auto& c : components_) {
      if (c.weight < kFunctionalWeightFloor) {
        fc.skipped += c.weight;
        continue;
      }
      fc.kept += c.weight;
      FunctionalCache::Comp cc;
      cc.weight = c.weight;
      cc.a_w = c.omega.shape;
      cc.b_w = c.omega.rate;
      cc.lgamma_aw = m::log_gamma(c.omega.shape);
      cc.order = rule.size();
      // Effective support [q(1e-10), q(1 - 1e-10)] in equal panels.
      const double lo = c.beta.quantile(1e-10);
      const double hi = c.beta.quantile(1.0 - 1e-10);
      const double pw = (hi - lo) / kFunctionalPanels;
      const std::size_t total =
          static_cast<std::size_t>(cc.order) * kFunctionalPanels;
      cc.panel_h.reserve(kFunctionalPanels);
      cc.nodes.reserve(total);
      cc.wpdf.reserve(total);
      for (int p = 0; p < kFunctionalPanels; ++p) {
        const double pa = lo + p * pw;
        const double pb = lo + (p + 1) * pw;
        const double mid = 0.5 * (pa + pb);
        const double half = 0.5 * (pb - pa);
        cc.panel_h.push_back(half);
        for (int i = 0; i < cc.order; ++i) {
          const double b = mid + half * rule.nodes()[i];
          cc.nodes.push_back(b);
          cc.wpdf.push_back(rule.weights()[i] * std::exp(c.beta.log_pdf(b)));
        }
      }
      fc.comps.push_back(std::move(cc));
    }
  });
  return cache_slot_->data;
}

GammaMixturePosterior::HTable GammaMixturePosterior::make_h_table(
    const FunctionalCache& fc, double u) const {
  HTable t;
  t.h.resize(fc.comps.size());
  t.inv.resize(fc.comps.size());
  t.log_inv.resize(fc.comps.size());
  for (std::size_t ci = 0; ci < fc.comps.size(); ++ci) {
    const auto& cc = fc.comps[ci];
    // The two-boundary mass table hits the Erlang closed form for the
    // paper's integral-alpha0 models: one exp per node instead of two
    // log-space incomplete-gamma round trips.
    nhpp::GroupedMassTable masses(alpha0_, {horizon_, horizon_ + u},
                                  /*with_up_law=*/false);
    auto& row = t.h[ci];
    auto& inv = t.inv[ci];
    auto& log_inv = t.log_inv[ci];
    row.resize(cc.nodes.size());
    inv.resize(cc.nodes.size());
    log_inv.resize(cc.nodes.size());
    for (std::size_t j = 0; j < cc.nodes.size(); ++j) {
      masses.evaluate(cc.nodes[j]);
      const double hh = masses.interval_mass(1);
      row[j] = hh;
      if (hh > 0.0) {
        inv[j] = cc.b_w / hh;
        log_inv[j] = std::log(inv[j]);
      }
    }
  }
  return t;
}

double GammaMixturePosterior::reliability_point_from(
    const FunctionalCache& fc, const HTable& h) const {
  double s = 0.0;
  for (std::size_t ci = 0; ci < fc.comps.size(); ++ci) {
    const auto& cc = fc.comps[ci];
    const auto& row = h.h[ci];
    s += cc.weight * cached_integral(cc, [&](std::size_t j) {
           // E[e^{-omega h}] for omega ~ Gamma(a, b_w).
           return std::exp(-cc.a_w * std::log1p(row[j] / cc.b_w));
         });
  }
  // Renormalize for the skipped sliver so the estimate stays a mean.
  return fc.skipped > 0.0 ? s / (1.0 - fc.skipped) : s;
}

double GammaMixturePosterior::reliability_cdf_from(
    double x, const FunctionalCache& fc, const HTable& h) const {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double neg_log_x = -std::log(x);
  const double log_nlx = std::log(neg_log_x);
  double s = 0.0;
  for (std::size_t ci = 0; ci < fc.comps.size(); ++ci) {
    const auto& cc = fc.comps[ci];
    const auto& row = h.h[ci];
    const auto& inv = h.inv[ci];
    const auto& log_inv = h.log_inv[ci];
    s += cc.weight * cached_integral(cc, [&](std::size_t j) {
           if (!(row[j] > 0.0)) return 0.0;  // R == 1 surely > x
           // P(R <= x | beta) = Q(a, b_w * (-log x) / h), via the pair
           // kernel with every log/lgamma precomputed.
           return m::gamma_pq_cached(cc.a_w, inv[j] * neg_log_x,
                                     log_inv[j] + log_nlx, cc.lgamma_aw)
               .q;
         });
  }
  return fc.kept > 0.0 ? s / fc.kept : 0.0;
}

double GammaMixturePosterior::reliability_quantile_from(
    double p, const FunctionalCache& fc, const HTable& h) const {
  // The CDF is monotone in x with the h-table fixed, so Brent converges
  // in ~12-15 evaluations where bisection needs ~37.
  auto f = [&](double x) { return reliability_cdf_from(x, fc, h) - p; };
  const auto r = m::brent(f, 1e-14, 1.0 - 1e-14, 1e-12, 120);
  return r.x;
}

double GammaMixturePosterior::reliability_point(double u) const {
  const auto& fc = functional_cache();
  return reliability_point_from(fc, make_h_table(fc, u));
}

double GammaMixturePosterior::reliability_cdf(double x, double u) const {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const auto& fc = functional_cache();
  return reliability_cdf_from(x, fc, make_h_table(fc, u));
}

double GammaMixturePosterior::reliability_quantile(double p, double u) const {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("reliability_quantile: p in (0,1)");
  }
  const auto& fc = functional_cache();
  return reliability_quantile_from(p, fc, make_h_table(fc, u));
}

bayes::ReliabilityEstimate GammaMixturePosterior::reliability(
    double u, double level) const {
  const double a = 0.5 * (1.0 - level);
  // One h-table serves the point estimate and both quantile searches.
  const auto& fc = functional_cache();
  const auto h = make_h_table(fc, u);
  return {reliability_point_from(fc, h),
          reliability_quantile_from(a, fc, h),
          reliability_quantile_from(1.0 - a, fc, h), level};
}

}  // namespace vbsrm::core
