#include "nhpp/model.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "math/specfun.hpp"

namespace vbsrm::nhpp {

namespace m = vbsrm::math;

double GammaFailureLaw::cdf(double t, double beta) const {
  if (t <= 0.0) return 0.0;
  return m::gamma_p(alpha0, beta * t);
}

double GammaFailureLaw::pdf(double t, double beta) const {
  if (t <= 0.0) return 0.0;
  return std::exp(log_pdf(t, beta));
}

double GammaFailureLaw::log_pdf(double t, double beta) const {
  if (t <= 0.0) return -std::numeric_limits<double>::infinity();
  return alpha0 * std::log(beta) + (alpha0 - 1.0) * std::log(t) - beta * t -
         m::log_gamma(alpha0);
}

double GammaFailureLaw::survival(double t, double beta) const {
  if (t <= 0.0) return 1.0;
  return m::gamma_q(alpha0, beta * t);
}

double GammaFailureLaw::log_survival(double t, double beta) const {
  if (t <= 0.0) return 0.0;
  return m::log_gamma_q(alpha0, beta * t);
}

double GammaFailureLaw::interval_mass(double a, double b, double beta) const {
  if (!(b > a) || a < 0.0) {
    throw std::invalid_argument("interval_mass: need 0 <= a < b");
  }
  // Difference of survival functions keeps accuracy in the right tail;
  // difference of CDFs keeps it in the left tail.  Pick by location.
  if (beta * a > alpha0) {
    return m::gamma_q(alpha0, beta * a) -
           (std::isfinite(b) ? m::gamma_q(alpha0, beta * b) : 0.0);
  }
  const double fb = std::isfinite(b) ? m::gamma_p(alpha0, beta * b) : 1.0;
  return fb - m::gamma_p(alpha0, beta * a);
}

double GammaFailureLaw::log_interval_mass(double a, double b,
                                          double beta) const {
  const double mass = interval_mass(a, b, beta);
  if (mass > 1e-290) return std::log(mass);
  // Deep-tail fallback: log(Q(a') - Q(b')) via log-space subtraction.
  const double lqa = log_survival(a, beta);
  const double lqb = std::isfinite(b)
                         ? log_survival(b, beta)
                         : -std::numeric_limits<double>::infinity();
  if (lqb == -std::numeric_limits<double>::infinity()) return lqa;
  return lqa + m::log1m_exp(lqb - lqa);
}

double GammaFailureLaw::truncated_mean(double a, double b, double beta) const {
  // E[T; a < T <= b] = (alpha0/beta) * (G_{alpha0+1}(b) - G_{alpha0+1}(a)),
  // so the conditional mean is that over the alpha0 interval mass.
  GammaFailureLaw up{alpha0 + 1.0};
  const double num_log = up.log_interval_mass(a, b, beta);
  const double den_log = log_interval_mass(a, b, beta);
  return alpha0 / beta * std::exp(num_log - den_log);
}

namespace {
// Linear-space masses below this underflow double arithmetic soon;
// match the deep-tail threshold of log_interval_mass.
constexpr double kMassFloor = 1e-290;
}  // namespace

GroupedMassTable::GroupedMassTable(double alpha0,
                                   std::vector<double> boundaries,
                                   bool with_up_law)
    : law_{alpha0}, bounds_(std::move(boundaries)), with_up_(with_up_law) {
  if (!(alpha0 > 0.0)) {
    throw std::invalid_argument("GroupedMassTable: alpha0 must be > 0");
  }
  if (bounds_.empty()) {
    throw std::invalid_argument("GroupedMassTable: need >= 1 boundary");
  }
  double prev = 0.0;
  log_bounds_.reserve(bounds_.size());
  for (const double s : bounds_) {
    if (!(s > prev)) {
      throw std::invalid_argument(
          "GroupedMassTable: boundaries must be positive and increasing");
    }
    log_bounds_.push_back(std::log(s));
    prev = s;
  }
  lgamma_a_ = m::log_gamma(alpha0);
  lgamma_up_ = m::log_gamma(alpha0 + 1.0);
  if (alpha0 == std::floor(alpha0) && alpha0 >= 1.0 && alpha0 <= 32.0) {
    erlang_k_ = static_cast<int>(alpha0);
  }
  p_.resize(bounds_.size());
  q_.resize(bounds_.size());
  p_up_.resize(bounds_.size());
  q_up_.resize(bounds_.size());
}

void GroupedMassTable::evaluate(double beta) {
  if (!(beta > 0.0)) {
    throw std::invalid_argument("GroupedMassTable: beta must be > 0");
  }
  beta_ = beta;
  if (erlang_k_ > 0) {
    // Integral alpha0 = k: Q_k(x) = e^-x sum_{i<k} x^i/i!, all-positive
    // terms, so one exp yields full relative accuracy for both laws
    // (the alpha0+1 survival just adds the next term).  The complement
    // P = 1 - Q is only ulp-accurate when P is O(1); for small P the
    // lower tail series sum_{i>=k} e^-x x^i/i! restores relative
    // accuracy and converges fast precisely there (x < k).
    const int k = erlang_k_;
    for (std::size_t j = 0; j < bounds_.size(); ++j) {
      const double x = beta * bounds_[j];
      const double e = std::exp(-x);
      double term = e;  // e^-x x^i / i!, starting at i = 0
      double q = 0.0;
      for (int i = 0; i < k; ++i) {
        q += term;
        term *= x / (i + 1);
      }
      const double q_up = q + term;  // term now e^-x x^k / k!
      double p = 1.0 - q;
      double p_up = 1.0 - q_up;
      if (p < 0.5 && e > 0.0) {
        double rest = 0.0;
        double t2 = term * x / (k + 1);  // i = k + 1
        for (int i = k + 1; i < k + 512; ++i) {
          rest += t2;
          t2 *= x / (i + 1);
          if (t2 < (rest + term) * 1e-17) break;
        }
        p = term + rest;  // sum_{i>=k}
        p_up = rest;      // sum_{i>=k+1}
      }
      p_[j] = p;
      q_[j] = q;
      p_up_[j] = p_up;
      q_up_[j] = q_up;
    }
    return;
  }
  const double log_beta = std::log(beta);
  const double a = law_.alpha0;
  for (std::size_t j = 0; j < bounds_.size(); ++j) {
    const double x = beta * bounds_[j];
    const double log_x = log_beta + log_bounds_[j];
    const auto pq = m::gamma_pq_cached(a, x, log_x, lgamma_a_);
    p_[j] = pq.p;
    q_[j] = pq.q;
    if (with_up_) {
      const auto pq_up = m::gamma_pq_cached(a + 1.0, x, log_x, lgamma_up_);
      p_up_[j] = pq_up.p;
      q_up_[j] = pq_up.q;
    }
  }
}

double GroupedMassTable::interval_mass(std::size_t i) const {
  // Same branch as GammaFailureLaw::interval_mass: survival differences
  // in the right tail, CDF differences in the left.
  if (i > 0 && beta_ * bounds_[i - 1] > law_.alpha0) {
    return q_[i - 1] - q_[i];
  }
  return p_[i] - (i > 0 ? p_[i - 1] : 0.0);
}

double GroupedMassTable::interval_mass_up(std::size_t i) const {
  if (i > 0 && beta_ * bounds_[i - 1] > law_.alpha0 + 1.0) {
    return q_up_[i - 1] - q_up_[i];
  }
  return p_up_[i] - (i > 0 ? p_up_[i - 1] : 0.0);
}

double GroupedMassTable::truncated_mean(std::size_t i) const {
  const double mass = interval_mass(i);
  const double mass_up = interval_mass_up(i);
  if (mass > kMassFloor && mass_up > kMassFloor) {
    return law_.alpha0 / beta_ * (mass_up / mass);
  }
  return law_.truncated_mean(left_edge(i), bounds_[i], beta_);
}

double GroupedMassTable::tail_truncated_mean() const {
  const double mass = q_.back();
  const double mass_up = q_up_.back();
  if (mass > kMassFloor && mass_up > kMassFloor) {
    return law_.alpha0 / beta_ * (mass_up / mass);
  }
  return law_.truncated_mean(bounds_.back(),
                             std::numeric_limits<double>::infinity(), beta_);
}

double GroupedMassTable::log_interval_mass(std::size_t i) const {
  const double mass = interval_mass(i);
  if (mass > kMassFloor) return std::log(mass);
  return law_.log_interval_mass(left_edge(i), bounds_[i], beta_);
}

double GroupedMassTable::log_tail_survival() const {
  const double mass = q_.back();
  if (mass > kMassFloor) return std::log(mass);
  return m::log_gamma_q(law_.alpha0, beta_ * bounds_.back());
}

GammaTypeModel::GammaTypeModel(double alpha0, double omega, double beta)
    : law_{alpha0}, omega_(omega), beta_(beta) {
  if (!(alpha0 > 0.0) || !(omega > 0.0) || !(beta > 0.0)) {
    throw std::invalid_argument("GammaTypeModel: parameters must be > 0");
  }
}

double GammaTypeModel::mean_value(double t) const {
  return omega_ * law_.cdf(t, beta_);
}

double GammaTypeModel::intensity(double t) const {
  return omega_ * law_.pdf(t, beta_);
}

double GammaTypeModel::reliability(double t, double u) const {
  if (u < 0.0) throw std::invalid_argument("reliability: u must be >= 0");
  if (u == 0.0) return 1.0;
  const double inc = omega_ * law_.interval_mass(t, t + u, beta_);
  return std::exp(-inc);
}

std::string GammaTypeModel::name() const {
  std::ostringstream os;
  if (law_.alpha0 == 1.0) {
    os << "Goel-Okumoto";
  } else if (law_.alpha0 == 2.0) {
    os << "delayed S-shaped";
  } else {
    os << "gamma-type(alpha0=" << law_.alpha0 << ")";
  }
  os << "(omega=" << omega_ << ", beta=" << beta_ << ")";
  return os.str();
}

GammaTypeModel goel_okumoto(double omega, double beta) {
  return GammaTypeModel(1.0, omega, beta);
}

GammaTypeModel delayed_s_shaped(double omega, double beta) {
  return GammaTypeModel(2.0, omega, beta);
}

}  // namespace vbsrm::nhpp
