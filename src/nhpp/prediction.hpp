// Prediction on a fitted gamma-type NHPP: the additional test time needed
// to reach a reliability objective.
#pragma once

#include "nhpp/model.hpp"

namespace vbsrm::nhpp {

/// Smallest u such that R(t+u | t) is still >= target when the mission
/// starts after waiting w more test time: finds the additional test time
/// w >= 0 with R(t+w+u | t+w) >= target (infinite if unreachable).
double test_time_for_reliability(const GammaTypeModel& model, double t,
                                 double mission, double target,
                                 double max_wait);

}  // namespace vbsrm::nhpp
