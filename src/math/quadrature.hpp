// Gauss-Legendre quadrature: n-point rules and the composite 2-D product
// grid of the NINT posterior baseline.  Callers integrate by applying a
// rule's nodes and weights themselves, so many functionals can share one
// set of integrand evaluations.
#pragma once

#include <vector>

namespace vbsrm::math {

/// A Gauss-Legendre rule on [-1, 1] with n points.  Nodes/weights are
/// computed on construction (Newton iteration, ~1e-15 accurate) and the
/// rule can be mapped to any finite [a, b].
class GaussLegendre {
 public:
  explicit GaussLegendre(int n);

  int size() const { return static_cast<int>(nodes_.size()); }
  const std::vector<double>& nodes() const { return nodes_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> nodes_;
  std::vector<double> weights_;
};

/// Nodes/weights of a tensor-product 2-D grid on [ax,bx] x [ay,by].
/// Used by the NINT estimator, which needs the raw grid to evaluate many
/// functionals (moments, quantiles, reliability) against one set of
/// posterior evaluations.
struct ProductGrid {
  std::vector<double> x, wx;  // abscissae and weights along x
  std::vector<double> y, wy;  // abscissae and weights along y
};

/// Build a composite Gauss-Legendre product grid: `panels` panels of an
/// `order`-point rule along each axis (so panels*order points per axis).
ProductGrid make_product_grid(double ax, double bx, double ay, double by,
                              int panels, int order);

}  // namespace vbsrm::math
