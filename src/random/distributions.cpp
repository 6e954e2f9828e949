#include "random/distributions.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/roots.hpp"
#include "math/specfun.hpp"

namespace vbsrm::random {

namespace m = vbsrm::math;

double sample_normal(Rng& rng) {
  // Marsaglia polar method.
  for (;;) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Rng& rng, double mean, double sd) {
  if (sd < 0.0) throw std::invalid_argument("normal: sd < 0");
  return mean + sd * sample_normal(rng);
}

double sample_gamma(Rng& rng, double shape, double rate) {
  if (!(shape > 0.0) || !(rate > 0.0)) {
    throw std::invalid_argument("gamma: shape and rate must be > 0");
  }
  if (shape < 1.0) {
    // Boost: X ~ Gamma(shape+1) * U^(1/shape).
    const double x = sample_gamma(rng, shape + 1.0, 1.0);
    const double u = rng.next_open();
    return x * std::pow(u, 1.0 / shape) / rate;
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = sample_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.next_open();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v / rate;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v / rate;
    }
  }
}

std::uint64_t sample_poisson(Rng& rng, double mean) {
  if (mean < 0.0) throw std::invalid_argument("poisson: mean < 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Multiplicative inversion.
    const double l = std::exp(-mean);
    std::uint64_t k = 0;
    double p = rng.next_open();
    while (p > l) {
      p *= rng.next_open();
      ++k;
    }
    return k;
  }
  // Atkinson / PTRS-style rejection via the logistic envelope.
  const double c = 0.767 - 3.36 / mean;
  const double beta = M_PI / std::sqrt(3.0 * mean);
  const double alpha = beta * mean;
  const double k = std::log(c) - mean - std::log(beta);
  for (;;) {
    const double u = rng.next_open();
    const double x = (alpha - std::log((1.0 - u) / u)) / beta;
    const double n = std::floor(x + 0.5);
    if (n < 0.0) continue;
    const double v = rng.next_open();
    const double y = alpha - beta * x;
    const double t = 1.0 + std::exp(y);
    const double lhs = y + std::log(v / (t * t));
    const double rhs = k + n * std::log(mean) - m::log_gamma(n + 1.0);
    if (lhs <= rhs) return static_cast<std::uint64_t>(n);
  }
}

namespace {

// Invert Q(a, x) = q on x in (x_lo, inf): used for deep upper tails
// where P-based inversion loses all precision.  Works in log space.
double inv_gamma_q_tail(double a, double log_q, double x_lo) {
  auto f = [&](double x) { return m::log_gamma_q(a, x) - log_q; };
  double lo = std::max(x_lo, 1e-300);
  double hi = std::max(2.0 * lo, a + 10.0);
  // f is decreasing in x; expand hi until f(hi) < 0.
  int guard = 0;
  while (f(hi) > 0.0 && guard++ < 200) hi *= 1.7;
  const auto r = m::brent(f, lo, hi, 1e-13, 200);
  return r.x;
}

}  // namespace

double sample_truncated_gamma(Rng& rng, double shape, double rate, double lo,
                              double hi) {
  if (!(shape > 0.0) || !(rate > 0.0)) {
    throw std::invalid_argument("truncated gamma: bad shape/rate");
  }
  if (!(lo >= 0.0) || !(hi > lo)) {
    throw std::invalid_argument("truncated gamma: need 0 <= lo < hi");
  }
  const double rlo = rate * lo;
  const bool unbounded = !std::isfinite(hi);
  const double rhi = unbounded ? std::numeric_limits<double>::infinity()
                               : rate * hi;

  const double plo = m::gamma_p(shape, rlo);
  const double phi = unbounded ? 1.0 : m::gamma_p(shape, rhi);
  const double mass = phi - plo;

  // Fast path: rejection from the untruncated gamma when the region
  // holds enough mass that the expected number of proposals is small.
  if (mass > 0.05) {
    for (int tries = 0; tries < 400; ++tries) {
      const double x = sample_gamma(rng, shape, rate);
      if (x > lo && x <= hi) return x;
    }
    // Fall through to inversion in the (statistically negligible) event
    // rejection kept missing.
  }

  const double u = rng.next_open();
  if (plo < 0.999) {
    // Left-anchored inversion keeps precision.
    double p = plo + u * mass;
    if (p >= 1.0) p = std::nextafter(1.0, 0.0);
    const double x = m::inv_gamma_p(shape, p) / rate;
    return std::min(std::max(x, std::nextafter(lo, hi)), hi);
  }
  // Deep right tail: work with Q in log space.
  const double lqlo = m::log_gamma_q(shape, rlo);
  const double lqhi = unbounded ? -std::numeric_limits<double>::infinity()
                                : m::log_gamma_q(shape, rhi);
  // Target Q = Qlo * (1 - u (1 - Qhi/Qlo)); compute log target stably.
  const double ratio = unbounded ? 0.0 : std::exp(lqhi - lqlo);
  const double log_q = lqlo + std::log1p(-u * (1.0 - ratio));
  const double x = inv_gamma_q_tail(shape, log_q, rlo) / rate;
  return std::min(std::max(x, std::nextafter(lo, lo + 1.0)),
                  unbounded ? std::numeric_limits<double>::max() : hi);
}

std::vector<double> sample_gamma_many(Rng& rng, std::size_t n, double shape,
                                      double rate) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample_gamma(rng, shape, rate));
  return out;
}

}  // namespace vbsrm::random
