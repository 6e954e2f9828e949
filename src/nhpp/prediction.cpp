#include "nhpp/prediction.hpp"

#include <limits>
#include <stdexcept>

#include "math/roots.hpp"

namespace vbsrm::nhpp {

double test_time_for_reliability(const GammaTypeModel& model, double t,
                                 double mission, double target,
                                 double max_wait) {
  if (!(target > 0.0) || !(target < 1.0)) {
    throw std::invalid_argument("test_time_for_reliability: target in (0,1)");
  }
  auto rel_after = [&](double w) {
    return model.reliability(t + w, mission);
  };
  if (rel_after(0.0) >= target) return 0.0;
  if (rel_after(max_wait) < target) {
    return std::numeric_limits<double>::infinity();
  }
  auto f = [&](double w) { return rel_after(w) - target; };
  const auto r = math::brent(f, 0.0, max_wait, 1e-10, 300);
  return r.x;
}

}  // namespace vbsrm::nhpp
