#include "core/vb2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/roots.hpp"
#include "math/specfun.hpp"
#include "nhpp/model.hpp"

namespace vbsrm::core {

namespace m = vbsrm::math;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Components per chunk of the sweep.  The chunk layout fixes the
/// warm-start chain, so changing it changes the fitted bits.  The lgamma
/// ladder reseeds exactly at every chunk head, so it also bounds the
/// recurrence drift to kSweepChunk - 1 steps.
constexpr std::uint64_t kSweepChunk = 64;

/// Stopping tolerance on |g(xi) - xi| and iteration cap shared by the
/// three fixed-point solvers.
constexpr double kFixedPointTol = 1e-13;
constexpr int kFixedPointMaxIter = 500;

/// True when alpha0 is a (small) positive integer, which makes the
/// lgamma(a_b) ladder advance by whole steps.
bool integral_alpha(double alpha0) {
  return alpha0 == std::floor(alpha0) && alpha0 >= 1.0 && alpha0 <= 64.0;
}

}  // namespace

Vb2Estimator::Vb2Estimator(double alpha0, const data::FailureTimeData& d,
                           const bayes::PriorPair& priors,
                           const Vb2Options& opt)
    : alpha0_(alpha0),
      priors_(priors),
      grouped_(false),
      observed_(d.count()),
      horizon_(d.observation_end()),
      sum_t_(d.total_time()),
      sum_log_t_(d.total_log_time()) {
  if (!(alpha0 > 0.0)) throw std::invalid_argument("Vb2: alpha0 must be > 0");
  if (observed_ == 0) {
    throw std::invalid_argument(
        "Vb2: no failures observed — beta is unidentifiable (with flat "
        "priors the N=0 component would even have an improper beta "
        "posterior); collect data or encode knowledge in the priors");
  }
  run(opt);
}

Vb2Estimator::Vb2Estimator(double alpha0, const data::GroupedData& d,
                           const bayes::PriorPair& priors,
                           const Vb2Options& opt)
    : alpha0_(alpha0),
      priors_(priors),
      grouped_(true),
      observed_(d.total_failures()),
      horizon_(d.observation_end()),
      bounds_(d.boundaries()),
      counts_(d.counts()) {
  if (!(alpha0 > 0.0)) throw std::invalid_argument("Vb2: alpha0 must be > 0");
  if (observed_ == 0) {
    throw std::invalid_argument(
        "Vb2: no failures observed — beta is unidentifiable");
  }
  run(opt);
}

nhpp::GroupedMassTable Vb2Estimator::make_table() const {
  return {alpha0_, grouped_ ? bounds_ : std::vector<double>{horizon_}};
}

double Vb2Estimator::zeta_from_table(nhpp::GroupedMassTable& table, double xi,
                                     double nd) const {
  table.evaluate(xi);
  double z = 0.0;
  if (!grouped_) {
    z = sum_t_;
  } else {
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      const double x = static_cast<double>(counts_[i]);
      if (x > 0.0) z += x * table.truncated_mean(i);
    }
  }
  const double residual = nd - static_cast<double>(observed_);
  if (residual > 0.0) z += residual * table.tail_truncated_mean();
  return z;
}

Vb2Estimator::LadderTerms Vb2Estimator::ladder_exact(std::uint64_t n) const {
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(observed_);
  return {m::log_gamma(priors_.omega.shape + nd),
          m::log_gamma(priors_.beta.shape + nd * alpha0_),
          m::log_gamma(nd - md + 1.0)};
}

void Vb2Estimator::ladder_advance(LadderTerms& lt, std::uint64_t n) const {
  // Advance from N = n to N = n + 1: lgamma(x + 1) = lgamma(x) + log(x).
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(observed_);
  lt.lg_aw += std::log(priors_.omega.shape + nd);
  lt.lg_rdp1 += std::log(nd - md + 1.0);
  if (integral_alpha(alpha0_)) {
    const int k = static_cast<int>(alpha0_);
    double a = priors_.beta.shape + nd * alpha0_;
    for (int j = 0; j < k; ++j) {
      lt.lg_ab += std::log(a);
      a += 1.0;
    }
  } else {
    lt.lg_ab = m::log_gamma(priors_.beta.shape + (nd + 1.0) * alpha0_);
  }
}

std::pair<double, double> Vb2Estimator::solve_component(
    std::uint64_t n) const {
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(observed_);
  const double a_beta = priors_.beta.shape + nd * alpha0_;
  // Start: pretend every unobserved fault fails right at the horizon.
  const double warm =
      a_beta / (priors_.beta.rate + sum_t_ + std::max(0.0, nd - md) * horizon_ +
                (grouped_ ? md * 0.5 * horizon_ : 0.0) + 1e-300);
  auto table = make_table();
  const auto r = process_component(n, warm, ladder_exact(n), table);
  return {r.zeta, r.xi};
}

double Vb2Estimator::component_objective(std::uint64_t n, double xi) const {
  if (n < observed_ || !(xi > 0.0)) return -kInf;
  auto table = make_table();
  return score_component(n, xi, ladder_exact(n), table).log_w;
}

Vb2Estimator::ComponentResult Vb2Estimator::score_component(
    std::uint64_t n, double xi, const LadderTerms& lt,
    nhpp::GroupedMassTable& table) const {
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(observed_);
  const double rd = nd - md;

  // One table evaluation at xi serves both zeta and the observed-data
  // log-masses of the objective.
  ComponentResult out;
  out.xi = xi;
  out.zeta = zeta_from_table(table, xi, nd);
  if (!(xi > 0.0)) {
    out.log_w = -kInf;
    return out;
  }

  const double a_w = priors_.omega.shape + nd;
  const double b_w = priors_.omega.rate + 1.0;
  const double a_b = priors_.beta.shape + nd * alpha0_;
  const double b_b = priors_.beta.rate + out.zeta;

  // log C(N): observed-data term at rate xi.
  double log_c;
  if (!grouped_) {
    log_c = md * alpha0_ * std::log(xi) + ft_logc_const_ - xi * sum_t_;
  } else {
    log_c = 0.0;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      const double x = static_cast<double>(counts_[i]);
      if (x > 0.0) log_c += x * table.log_interval_mass(i);
    }
  }
  log_c += rd * table.log_tail_survival() - lt.lg_rdp1;

  out.log_w = lt.lg_aw - a_w * std::log(b_w) + lt.lg_ab -
              a_b * std::log(b_b) + log_c - nd * alpha0_ * std::log(xi) +
              xi * out.zeta;
  return out;
}

Vb2Estimator::ComponentResult Vb2Estimator::process_component(
    std::uint64_t n, double warm, const LadderTerms& lt,
    nhpp::GroupedMassTable& table) const {
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(observed_);
  const double a_beta = priors_.beta.shape + nd * alpha0_;

  double xi = warm;
  std::uint64_t iterations = 0;
  if (!grouped_ && alpha0_ == 1.0 && opt_.use_closed_form) {
    xi = (priors_.beta.shape + md) /
         (priors_.beta.rate + sum_t_ + (nd - md) * horizon_);
    iterations = 1;
  } else {
    auto g = [&](double x) {
      return a_beta / (priors_.beta.rate + zeta_from_table(table, x, nd));
    };
    switch (opt_.solver) {
      case FixedPointSolver::steffensen: {
        // One Aitken delta-squared extrapolation per pair of
        // substitution steps.  Convergence is declared by the same
        // |g(x) - x| criterion as m::fixed_point, so the accepted xi
        // satisfies the identical residual bound.
        double x = warm;
        std::uint64_t evals = 0;
        const auto limit = static_cast<std::uint64_t>(kFixedPointMaxIter);
        while (evals + 2 <= limit) {
          const double x1 = g(x);
          ++evals;
          if (std::abs(x1 - x) <=
              kFixedPointTol * std::max(1.0, std::abs(x1))) {
            x = x1;
            break;
          }
          const double x2 = g(x1);
          ++evals;
          const double d2 = x2 - x1;
          const double denom = d2 - (x1 - x);
          x = x2;
          if (denom != 0.0) {
            const double cand = x2 - d2 * d2 / denom;
            if (std::isfinite(cand) && cand > 0.0) x = cand;
          }
        }
        xi = x;
        iterations = evals;
        break;
      }
      case FixedPointSolver::newton: {
        auto f = [&](double x) { return g(x) - x; };
        auto df = [&](double x) {
          const double h = 1e-7 * std::max(x, 1e-12);
          return (f(x + h) - f(x - h)) / (2.0 * h);
        };
        const auto r = m::newton(f, df, warm, warm * 1e-3, warm * 1e3,
                                 kFixedPointTol, kFixedPointMaxIter);
        xi = r.x;
        iterations = static_cast<std::uint64_t>(r.iterations);
        break;
      }
      case FixedPointSolver::substitution: {
        const auto r =
            m::fixed_point(g, warm, kFixedPointTol, kFixedPointMaxIter);
        xi = r.x;
        iterations = static_cast<std::uint64_t>(r.iterations);
        break;
      }
    }
  }

  ComponentResult out = score_component(n, xi, lt, table);
  out.iterations = iterations;
  return out;
}

std::uint64_t Vb2Estimator::sweep_stage(std::uint64_t lo, std::uint64_t hi,
                                        std::uint64_t n_min,
                                        double& stage_warm,
                                        std::vector<double>& log_w,
                                        std::vector<double>& zetas,
                                        std::vector<double>& xis) const {
  // Chunked sweep: each chunk head warm-starts from the previous head
  // and reseeds the lgamma ladder exactly; its body warm-chains from
  // the head.  The chunk layout fixes the warm starts, hence the bits.
  auto table = make_table();
  std::uint64_t iters = 0;
  double head_warm = stage_warm;
  for (std::uint64_t head = lo; head <= hi; head += kSweepChunk) {
    const std::uint64_t end = std::min(hi, head + kSweepChunk - 1);
    LadderTerms lt = ladder_exact(head);
    double warm = head_warm;
    for (std::uint64_t n = head; n <= end; ++n) {
      if (n != head) ladder_advance(lt, n - 1);
      const auto r = process_component(n, warm, lt, table);
      const std::size_t k = static_cast<std::size_t>(n - n_min);
      log_w[k] = r.log_w;
      zetas[k] = r.zeta;
      xis[k] = r.xi;
      warm = r.xi;
      iters += r.iterations;
    }
    head_warm = xis[static_cast<std::size_t>(head - n_min)];
  }
  stage_warm = xis[static_cast<std::size_t>(hi - n_min)];
  return iters;
}

void Vb2Estimator::run(const Vb2Options& opt) {
  opt_ = opt;
  ft_logc_const_ = (alpha0_ - 1.0) * sum_log_t_ -
                   static_cast<double>(observed_) * m::log_gamma(alpha0_);

  const std::uint64_t n_min = observed_;
  std::uint64_t n_max = std::max<std::uint64_t>(opt.n_max, n_min + 1);

  std::vector<double> log_w;       // indexed by N - n_min
  std::vector<double> zetas, xis;  // per component
  std::uint64_t fp_iters = 0;

  const double a_beta_base = priors_.beta.shape;

  // Initial warm start: all mass at the horizon.
  double warm = (a_beta_base + static_cast<double>(n_min) * alpha0_) /
                (priors_.beta.rate +
                 (grouped_ ? static_cast<double>(observed_) * 0.5 * horizon_
                           : sum_t_) +
                 1.0e-300 + static_cast<double>(n_min) * 0.1);
  if (!(warm > 0.0) || !std::isfinite(warm)) warm = alpha0_ / horizon_;

  std::uint64_t doublings = 0;
  std::uint64_t n_next = n_min;
  for (;;) {
    log_w.resize(static_cast<std::size_t>(n_max - n_min) + 1);
    zetas.resize(log_w.size());
    xis.resize(log_w.size());
    fp_iters += sweep_stage(n_next, n_max, n_min, warm, log_w, zetas, xis);
    n_next = n_max + 1;

    // Step 3-4: normalize and test the tail mass.
    std::vector<double> w = log_w;
    const double log_z = m::log_sum_exp(w);
    const double p_tail = std::exp(log_w.back() - log_z);
    if (!opt.adapt_n_max || p_tail < opt.epsilon ||
        n_max >= opt.n_max_limit) {
      diag_.n_max_used = n_max;
      diag_.prob_at_n_max = p_tail;
      diag_.n_max_doublings = doublings;
      diag_.total_fixed_point_iterations = fp_iters;
      diag_.log_evidence_bound = log_z;
      break;
    }
    n_max = std::min(opt.n_max_limit, n_max * 2);
    ++doublings;
  }

  // Build the mixture, pruning numerically-zero components.
  std::vector<double> w = log_w;
  m::normalize_log_weights(w);
  std::vector<ProductGammaComponent> comps;
  comps.reserve(w.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    if (w[k] < 1e-15 && comps.size() > 2) continue;
    ProductGammaComponent c;
    c.n = n_min + static_cast<std::uint64_t>(k);
    c.weight = w[k];
    c.omega = {priors_.omega.shape + static_cast<double>(c.n),
               priors_.omega.rate + 1.0};
    c.beta = {priors_.beta.shape + static_cast<double>(c.n) * alpha0_,
              priors_.beta.rate + zetas[k]};
    comps.push_back(c);
  }
  posterior_.emplace(std::move(comps), alpha0_, horizon_);
}

}  // namespace vbsrm::core
