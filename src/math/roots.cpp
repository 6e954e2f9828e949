#include "math/roots.hpp"

#include <cmath>
#include <stdexcept>

namespace vbsrm::math {

namespace {

// The solvers proper, for a caller that already holds fa = f(a) and
// fb = f(b): the bracket searches below reuse the end values their
// probes computed.

RootResult bisect_from(const std::function<double(double)>& f, double a,
                       double fa, double b, double fb, double x_tol,
                       int max_iter) {
  RootResult r;
  if (fa == 0.0) return {a, 0, true};
  if (fb == 0.0) return {b, 0, true};
  if (fa * fb > 0.0) throw std::invalid_argument("bisect: root not bracketed");
  for (int i = 0; i < max_iter; ++i) {
    const double m = 0.5 * (a + b);
    const double fm = f(m);
    r.iterations = i + 1;
    if (fm == 0.0 || 0.5 * (b - a) < x_tol * std::max(1.0, std::abs(m))) {
      return {m, r.iterations, true};
    }
    if (fa * fm < 0.0) {
      b = m;
      fb = fm;
    } else {
      a = m;
      fa = fm;
    }
  }
  r.x = 0.5 * (a + b);
  r.converged = true;  // bisection reached max_iter: still inside bracket
  return r;
}

RootResult brent_from(const std::function<double(double)>& f, double a,
                      double fa, double b, double fb, double x_tol,
                      int max_iter) {
  if (fa == 0.0) return {a, 0, true};
  if (fb == 0.0) return {b, 0, true};
  if (fa * fb > 0.0) throw std::invalid_argument("brent: root not bracketed");
  double c = a, fc = fa, d = b - a, e = d;
  for (int it = 1; it <= max_iter; ++it) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol = 2.0 * 1e-16 * std::abs(b) + 0.5 * x_tol;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || fb == 0.0) return {b, it, true};
    if (std::abs(e) < tol || std::abs(fa) <= std::abs(fb)) {
      d = e = m;  // bisection
    } else {
      double p, q;
      const double s = fb / fa;
      if (a == c) {  // secant
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {  // inverse quadratic
        const double qq = fa / fc, rr = fb / fc;
        p = s * (2.0 * m * qq * (qq - rr) - (b - a) * (rr - 1.0));
        q = (qq - 1.0) * (rr - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q; else p = -p;
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q),
                             std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = e = m;
      }
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol) ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = e = b - a;
    }
  }
  return {b, max_iter, false};
}

RootResult solve_from(RootSolver solver,
                      const std::function<double(double)>& f, double a,
                      double fa, double b, double fb, double x_tol,
                      int max_iter) {
  return solver == RootSolver::kBisect
             ? bisect_from(f, a, fa, b, fb, x_tol, max_iter)
             : brent_from(f, a, fa, b, fb, x_tol, max_iter);
}

}  // namespace

RootResult bisect(const std::function<double(double)>& f, double a, double b,
                  double x_tol, int max_iter) {
  const double fa = f(a);
  return bisect_from(f, a, fa, b, f(b), x_tol, max_iter);
}

RootResult brent(const std::function<double(double)>& f, double a, double b,
                 double x_tol, int max_iter) {
  const double fa = f(a);
  return brent_from(f, a, fa, b, f(b), x_tol, max_iter);
}

double increasing_root(const std::function<double(double)>& f, double lo,
                       double hi, double rel_tol, int max_iter) {
  double flo = f(lo), fhi;
  if (flo > 0.0) {
    do {
      hi = lo;
      fhi = flo;
      lo *= 0.5;
      flo = f(lo);
    } while (flo > 0.0);
  } else {
    fhi = f(hi);
  }
  while (fhi < 0.0 && std::isfinite(hi)) {
    lo = hi;
    flo = fhi;
    hi *= 2.0;
    fhi = f(hi);
  }
  if (!(flo <= 0.0 && fhi >= 0.0)) {
    throw std::domain_error("increasing_root: f never changes sign");
  }
  return brent_from(f, lo, flo, hi, fhi, rel_tol * lo, max_iter).x;
}

double unit_interval_quantile(const std::function<double(double)>& f,
                              double edge, RootSolver solver, double x_tol,
                              int max_iter) {
  const double lo = edge, hi = 1.0 - edge;
  const double flo = f(lo);
  if (flo > 0.0) {
    // The root lies below the edge: continue downward in log x,
    // doubling the step until f turns negative (a CDF is 0 once x
    // underflows).
    const std::function<double(double)> g = [&](double y) {
      return f(std::exp(y));
    };
    double y_hi = std::log(lo), g_hi = flo;
    double y_lo = 2.0 * y_hi, g_lo = g(y_lo);
    while (g_lo > 0.0) {
      y_hi = y_lo;
      g_hi = g_lo;
      y_lo *= 2.0;
      g_lo = g(y_lo);
    }
    return std::exp(
        solve_from(solver, g, y_lo, g_lo, y_hi, g_hi, x_tol, max_iter).x);
  }
  const double fhi = f(hi);
  // Above 1 - edge the bracket closes at x = 1, where the CDF is 1.
  if (fhi < 0.0) {
    return solve_from(solver, f, hi, fhi, 1.0, f(1.0), x_tol, max_iter).x;
  }
  return solve_from(solver, f, lo, flo, hi, fhi, x_tol, max_iter).x;
}

RootResult newton(const std::function<double(double)>& f,
                  const std::function<double(double)>& df, double x0,
                  double lo, double hi, double x_tol, int max_iter) {
  double x = x0;
  double flo = f(lo), fhi = f(hi);
  const bool bracketed = flo * fhi < 0.0;
  for (int it = 1; it <= max_iter; ++it) {
    const double fx = f(x);
    if (fx == 0.0) return {x, it, true};
    if (bracketed) {
      if ((fx > 0.0) == (fhi > 0.0)) { hi = x; fhi = fx; }
      else { lo = x; flo = fx; }
    }
    const double dfx = df(x);
    double xn;
    if (dfx != 0.0 && std::isfinite(dfx)) {
      xn = x - fx / dfx;
    } else {
      xn = 0.5 * (lo + hi);
    }
    if (bracketed && (xn <= lo || xn >= hi)) xn = 0.5 * (lo + hi);
    if (std::abs(xn - x) <= x_tol * std::max(1.0, std::abs(xn))) {
      return {xn, it, true};
    }
    x = xn;
  }
  return {x, max_iter, false};
}

RootResult fixed_point(const std::function<double(double)>& g, double x0,
                       double rel_tol, int max_iter, double damping) {
  if (damping <= 0.0 || damping > 1.0) {
    throw std::invalid_argument("fixed_point: damping must be in (0, 1]");
  }
  double x = x0;
  for (int it = 1; it <= max_iter; ++it) {
    const double gx = g(x);
    const double xn = (1.0 - damping) * x + damping * gx;
    if (std::abs(xn - x) <= rel_tol * std::max(1.0, std::abs(xn))) {
      return {xn, it, true};
    }
    x = xn;
  }
  return {x, max_iter, false};
}

}  // namespace vbsrm::math
