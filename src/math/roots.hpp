// Scalar root finding and fixed-point iteration.
#pragma once

#include <functional>

namespace vbsrm::math {

struct RootResult {
  double x = 0.0;        // located root / fixed point
  int iterations = 0;    // iterations consumed
  bool converged = false;
};

// bisect and brent require f(a) and f(b) of opposite sign (or one of
// them zero) and throw std::invalid_argument otherwise, so an
// unbracketed start never comes back as a value.  When max_iter runs
// out, x is still inside the bracket (brent then reports
// converged = false).

/// Bisection on [a, b].
RootResult bisect(const std::function<double(double)>& f, double a, double b,
                  double x_tol = 1e-12, int max_iter = 200);

/// Brent's method (inverse quadratic + secant + bisection safeguards).
RootResult brent(const std::function<double(double)>& f, double a, double b,
                 double x_tol = 1e-13, int max_iter = 200);

enum class RootSolver { kBisect, kBrent };

/// Root of a nondecreasing f on (0, inf) with f(0+) < 0 < f(inf) (a
/// CDF minus p), from the starting bracket [lo, hi], lo > 0: halves lo
/// and doubles hi until f changes sign, then runs Brent to a stop of
/// rel_tol * lo.  Throws std::domain_error when f is still negative at
/// infinity (p within rounding of 1 or above).
double increasing_root(const std::function<double(double)>& f, double lo,
                       double hi, double rel_tol, int max_iter);

/// Root in (0, 1) of f = CDF - p for a law on [0, 1], p in (0, 1).
/// Solves on [edge, 1 - edge] when that brackets the root.  Below edge
/// the search continues in y = log x, doubling |y| until f turns
/// negative, and solves in y; above 1 - edge the bracket closes at
/// x = 1.  Each probe's value is reused as a bracket end.
double unit_interval_quantile(const std::function<double(double)>& f,
                              double edge, RootSolver solver, double x_tol,
                              int max_iter);

/// Newton iteration with a bracketing safeguard: if [lo, hi] brackets a
/// root, iterates never leave it and fall back to bisection when the
/// Newton step misbehaves.
RootResult newton(const std::function<double(double)>& f,
                  const std::function<double(double)>& df, double x0,
                  double lo, double hi, double x_tol = 1e-13,
                  int max_iter = 100);

/// Damped successive substitution for x = g(x).  `damping` in (0, 1];
/// 1.0 is plain substitution (the solver the paper uses for the VB
/// fixed point, with its global convergence property).
RootResult fixed_point(const std::function<double(double)>& g, double x0,
                       double rel_tol = 1e-13, int max_iter = 500,
                       double damping = 1.0);

}  // namespace vbsrm::math
