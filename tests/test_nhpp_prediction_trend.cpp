// Prediction utilities and trend / goodness-of-fit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/datasets.hpp"
#include "nhpp/fit.hpp"
#include "nhpp/prediction.hpp"
#include "nhpp/trend.hpp"

namespace n = vbsrm::nhpp;
namespace d = vbsrm::data;

namespace {

TEST(Prediction, TestTimeForReliabilityMonotone) {
  const auto go = n::goel_okumoto(44.0, 1.26e-5);
  const double t = 160000.0, mission = 10000.0;
  const double r_now = go.reliability(t, mission);
  // A target below current reliability needs no extra testing.
  EXPECT_DOUBLE_EQ(
      n::test_time_for_reliability(go, t, mission, 0.9 * r_now, 1e7), 0.0);
  // A strictly higher target needs positive wait, and R holds there.
  const double target = std::min(0.999, r_now + 0.5 * (1.0 - r_now));
  const double w = n::test_time_for_reliability(go, t, mission, target, 1e9);
  ASSERT_TRUE(std::isfinite(w));
  EXPECT_GT(w, 0.0);
  EXPECT_NEAR(go.reliability(t + w, mission), target, 1e-6);
}

TEST(Prediction, TestTimeForReliabilityUnreachable) {
  const auto go = n::goel_okumoto(44.0, 1.26e-5);
  // Residual faults never fully vanish within the max wait.
  EXPECT_TRUE(std::isinf(
      n::test_time_for_reliability(go, 1000.0, 1e6, 0.999999999, 2000.0)));
  EXPECT_THROW(n::test_time_for_reliability(go, 0.0, 1.0, 1.5, 10.0),
               std::invalid_argument);
}

TEST(LaplaceTrend, DetectsReliabilityGrowth) {
  // System 17 stand-in exhibits reliability growth: factor well below 0.
  const auto dt = d::datasets::system17_failure_times();
  EXPECT_LT(n::laplace_trend(dt), -2.0);
}

TEST(LaplaceTrend, NearZeroForHomogeneousProcess) {
  // Evenly spread failures: no trend.
  std::vector<double> times;
  for (int i = 1; i <= 40; ++i) times.push_back(25.0 * i - 12.5);
  d::FailureTimeData ft(std::move(times), 1000.0);
  EXPECT_NEAR(n::laplace_trend(ft), 0.0, 0.5);
}

TEST(LaplaceTrend, GroupedAgreesWithTimeVersionOnFineBins) {
  const auto dt = d::datasets::system17_failure_times();
  std::vector<double> bounds;
  for (int i = 1; i <= 640; ++i) bounds.push_back(250.0 * i);
  const auto dg = dt.to_grouped(bounds);
  EXPECT_NEAR(n::laplace_trend(dg), n::laplace_trend(dt), 0.05);
}

TEST(LaplaceTrend, RequiresEnoughFailures) {
  d::FailureTimeData one({5.0}, 10.0);
  EXPECT_THROW(n::laplace_trend(one), std::invalid_argument);
}

TEST(KsFit, AcceptsWellFittingModel) {
  const auto dt = d::datasets::system17_failure_times();
  const auto fit = n::fit_em(1.0, dt);
  const auto ks = n::ks_fit_test(fit.model(1.0), dt);
  EXPECT_GT(ks.p_value, 0.05);  // D_T is designed to fit GO well
}

TEST(KsFit, RejectsBadlyMisspecifiedModel) {
  const auto dt = d::datasets::system17_failure_times();
  // A GO model with beta 20x too large concentrates all mass early.
  const auto bad = n::goel_okumoto(44.0, 2.5e-4);
  const auto ks = n::ks_fit_test(bad, dt);
  EXPECT_LT(ks.p_value, 1e-4);
}

TEST(ChiSquareFit, GroupedDataFitsGoOnlyModerately) {
  const auto dg = d::datasets::system17_grouped();
  const auto fit = n::fit_em(1.0, dg);
  const auto go = n::chi_square_fit_test(fit.model(1.0), dg);
  const auto fit2 = n::fit_em(2.0, dg);
  const auto dss = n::chi_square_fit_test(fit2.model(2.0), dg);
  // The stand-in D_G is generated from a DSS shape: the DSS fit
  // statistic (per dof) must beat GO's.
  EXPECT_LT(dss.statistic / dss.dof, go.statistic / go.dof);
}

}  // namespace
