#include "math/specfun.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vbsrm::math {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kEps = std::numeric_limits<double>::epsilon();

// Lanczos coefficients (g = 7, n = 9), Godfrey's set.
constexpr double kLanczosG = 7.0;
constexpr double kLanczos[9] = {
    0.99999999999980993,   676.5203681218851,    -1259.1392167224028,
    771.32342877765313,    -176.61502916214059,  12.507343278686905,
    -0.13857109526572012,  9.9843695780195716e-6, 1.5056327351493116e-7};

// Series sum for P(a,x)*Gamma(a)*exp(x)*x^-a; converges fast for
// x < a + 1.
double gamma_p_series_sum(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int n = 0; n < 2000; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-17) break;
  }
  return sum;
}

// Modified Lentz continued-fraction value h with
// Q(a,x) = h * exp(-x + a log x - lgamma(a)); valid for x > a + 1.
double gamma_q_cf_value(double a, double x) {
  constexpr double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 2000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) break;
  }
  return h;
}

// Log of the regularized lower incomplete gamma via the series kernel.
double log_gamma_p_series(double a, double x) {
  return std::log(gamma_p_series_sum(a, x)) - x + a * std::log(x) -
         log_gamma(a);
}

// log Q(a,x) via the continued-fraction kernel.
double log_gamma_q_cf(double a, double x) {
  return std::log(gamma_q_cf_value(a, x)) - x + a * std::log(x) -
         log_gamma(a);
}

}  // namespace

GammaPQ gamma_pq_cached(double a, double x, double log_x,
                        double log_gamma_a) {
  if (!(a > 0.0) || x < 0.0) return {kNan, kNan};
  if (x == 0.0) return {0.0, 1.0};
  const double prefactor = std::exp(a * log_x - x - log_gamma_a);
  if (x < a + 1.0) {
    const double p = std::min(1.0, gamma_p_series_sum(a, x) * prefactor);
    return {p, 1.0 - p};
  }
  const double q = std::min(1.0, gamma_q_cf_value(a, x) * prefactor);
  return {1.0 - q, q};
}

GammaPQ gamma_pq(double a, double x) {
  if (!(a > 0.0) || x < 0.0) return {kNan, kNan};
  if (x == 0.0) return {0.0, 1.0};
  return gamma_pq_cached(a, x, std::log(x), log_gamma(a));
}

double log_gamma(double z) {
  if (!(z > 0.0)) return kNan;
  if (z < 0.5) {
    // Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).
    return std::log(M_PI / std::sin(M_PI * z)) - log_gamma(1.0 - z);
  }
  const double zm1 = z - 1.0;
  double acc = kLanczos[0];
  for (int i = 1; i < 9; ++i) acc += kLanczos[i] / (zm1 + i);
  const double t = zm1 + kLanczosG + 0.5;
  return 0.5 * std::log(2.0 * M_PI) + (zm1 + 0.5) * std::log(t) - t +
         std::log(acc);
}

double digamma(double x) {
  if (!(x > 0.0)) return kNan;
  double result = 0.0;
  // Recurrence psi(x) = psi(x+1) - 1/x until x is large enough for the
  // asymptotic expansion (cutoff 12 keeps the truncation below 1e-15).
  while (x < 12.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  // psi(x) ~ ln x - 1/(2x) - sum B_{2n} / (2n x^{2n})
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 -
                                    inv2 * (1.0 / 240.0 -
                                            inv2 * (1.0 / 132.0)))));
  return result;
}

double log_gamma_p(double a, double x) {
  if (!(a > 0.0) || x < 0.0) return kNan;
  if (x == 0.0) return -kInf;
  if (x < a + 1.0) return std::min(0.0, log_gamma_p_series(a, x));
  // P = 1 - Q with Q from the continued fraction.
  return std::min(0.0, log1m_exp(log_gamma_q_cf(a, x)));
}

double log_gamma_q(double a, double x) {
  if (!(a > 0.0) || x < 0.0) return kNan;
  if (x == 0.0) return 0.0;
  if (x > a + 1.0) return std::min(0.0, log_gamma_q_cf(a, x));
  return std::min(0.0, log1m_exp(log_gamma_p_series(a, x)));
}

double gamma_p(double a, double x) {
  const double lp = log_gamma_p(a, x);
  return std::isnan(lp) ? kNan : std::exp(lp);
}

double gamma_q(double a, double x) {
  const double lq = log_gamma_q(a, x);
  return std::isnan(lq) ? kNan : std::exp(lq);
}

double inv_gamma_p(double a, double p) {
  if (!(a > 0.0) || p < 0.0 || p >= 1.0) {
    if (p == 1.0) return kInf;
    return kNan;
  }
  if (p == 0.0) return 0.0;

  // Wilson-Hilferty initial guess.
  const double z = normal_quantile(p);
  const double wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
  double x = a * wh * wh * wh;
  if (!(x > 0.0) || !std::isfinite(x)) x = a;  // crude fallback start

  // For very small p with small shape, the solution is ~(p Gamma(a+1))^{1/a};
  // start there so the iteration has the right scale.
  if (p < 1e-4 && a < 2.0) {
    const double guess =
        std::exp((std::log(p) + log_gamma(a + 1.0)) / a);
    if (guess > 0.0 && std::isfinite(guess)) x = guess;
  }

  // Halley iteration on f(x) = P(a,x) - p.  f'(x) = x^{a-1}e^{-x}/Gamma(a).
  const double lga = log_gamma(a);
  double lo = 0.0, hi = kInf;
  auto bracket_step = [&]() {
    if (!std::isfinite(hi)) return std::max(2.0 * x, 1.0);
    // Geometric mean when the bracket spans decades (tiny-x regime).
    if (lo > 0.0 && hi / lo > 16.0) return std::sqrt(lo * hi);
    return 0.5 * (lo + hi);
  };
  for (int it = 0; it < 128; ++it) {
    const double f = gamma_p(a, x) - p;
    if (f > 0.0) hi = std::min(hi, x); else lo = std::max(lo, x);
    const double logpdf = (a - 1.0) * std::log(x) - x - lga;
    const double pdf = std::exp(logpdf);
    if (pdf <= 0.0 || !std::isfinite(pdf)) {
      x = bracket_step();
      continue;
    }
    double step = f / pdf;
    // Halley correction: f''/f' = (a-1)/x - 1.
    const double corr = 1.0 - 0.5 * step * ((a - 1.0) / x - 1.0);
    if (corr > 0.5) step /= corr;
    double xn = x - step;
    if (!(xn > lo) || !(xn < hi) || !std::isfinite(xn)) xn = bracket_step();
    if (std::abs(xn - x) <= 1e-15 * std::abs(xn)) return xn;
    x = xn;
  }
  return x;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    if (p == 0.0) return -kInf;
    if (p == 1.0) return kInf;
    return kNan;
  }
  // Acklam's rational approximation.
  static constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                  -2.759285104469687e+02, 1.383577518672690e+02,
                                  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                  -2.400758277161838e+00, -2.549732539343734e+00,
                                  4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley polish step against the exact cdf.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double log_sum_exp(std::span<const double> v) {
  if (v.empty()) return -kInf;
  const double m = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (const double x : v) s += std::exp(x - m);
  return m + std::log(s);
}

double normalize_log_weights(std::vector<double>& v) {
  const double lz = log_sum_exp(v);
  for (double& x : v) x = std::exp(x - lz);
  return lz;
}

double log1m_exp(double x) {
  if (x >= 0.0) return (x == 0.0) ? -kInf : kNan;
  // Maechler's cutoff: for x > -ln 2 use log(-expm1(x)).
  if (x > -M_LN2) return std::log(-std::expm1(x));
  return std::log1p(-std::exp(x));
}

double rel_diff(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

}  // namespace vbsrm::math
