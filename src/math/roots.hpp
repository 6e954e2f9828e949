// Scalar root finding and fixed-point iteration.
#pragma once

#include <functional>

namespace vbsrm::math {

struct RootResult {
  double x = 0.0;        // located root / fixed point
  int iterations = 0;    // iterations consumed
  bool converged = false;
};

/// Bisection on [a, b]; requires f(a) and f(b) of opposite sign.
RootResult bisect(const std::function<double(double)>& f, double a, double b,
                  double x_tol = 1e-12, int max_iter = 200);

/// Brent's method (inverse quadratic + secant + bisection safeguards).
RootResult brent(const std::function<double(double)>& f, double a, double b,
                 double x_tol = 1e-13, int max_iter = 200);

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
