#include "math/quadrature.hpp"

#include <cmath>
#include <stdexcept>

namespace vbsrm::math {

GaussLegendre::GaussLegendre(int n) {
  if (n < 1) throw std::invalid_argument("GaussLegendre: n must be >= 1");
  nodes_.resize(n);
  weights_.resize(n);
  // Newton iteration on P_n with the Chebyshev-like initial guess.
  const int m = (n + 1) / 2;
  for (int i = 0; i < m; ++i) {
    double x = std::cos(M_PI * (i + 0.75) / (n + 0.5));
    double pp = 0.0;
    for (int it = 0; it < 100; ++it) {
      // Evaluate P_n(x) and P_{n-1}(x) by the three-term recurrence.
      double p0 = 1.0, p1 = x;
      for (int k = 2; k <= n; ++k) {
        const double p2 = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
        p0 = p1;
        p1 = p2;
      }
      // P'_n(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
      pp = n * (x * p1 - p0) / (x * x - 1.0);
      const double dx = p1 / pp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    nodes_[i] = -x;
    nodes_[n - 1 - i] = x;
    const double w = 2.0 / ((1.0 - x * x) * pp * pp);
    weights_[i] = w;
    weights_[n - 1 - i] = w;
  }
  if (n % 2 == 1) nodes_[n / 2] = 0.0;  // exact symmetry for odd rules
}

ProductGrid make_product_grid(double ax, double bx, double ay, double by,
                              int panels, int order) {
  const GaussLegendre gl(order);
  ProductGrid g;
  auto fill_axis = [&](double lo, double hi, std::vector<double>& xs,
                       std::vector<double>& ws) {
    const double w = (hi - lo) / panels;
    for (int p = 0; p < panels; ++p) {
      const double c = lo + (p + 0.5) * w;
      const double h = 0.5 * w;
      for (int i = 0; i < gl.size(); ++i) {
        xs.push_back(c + h * gl.nodes()[i]);
        ws.push_back(h * gl.weights()[i]);
      }
    }
  };
  fill_axis(ax, bx, g.x, g.wx);
  fill_axis(ay, by, g.y, g.wy);
  return g;
}

}  // namespace vbsrm::math
