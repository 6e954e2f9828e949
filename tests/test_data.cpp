// Failure-data containers, CSV round trips, simulation, and the bundled
// datasets.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "data/datasets.hpp"
#include "data/failure_data.hpp"
#include "data/simulate.hpp"
#include "random/rng.hpp"
#include "stats/descriptive.hpp"

namespace d = vbsrm::data;
namespace r = vbsrm::random;

namespace {

TEST(FailureTimeData, SortsAndValidates) {
  d::FailureTimeData ft({3.0, 1.0, 2.0}, 10.0);
  EXPECT_EQ(ft.count(), 3u);
  EXPECT_DOUBLE_EQ(ft.times()[0], 1.0);
  EXPECT_DOUBLE_EQ(ft.times()[2], 3.0);
  EXPECT_DOUBLE_EQ(ft.total_time(), 6.0);
  EXPECT_NEAR(ft.total_log_time(), std::log(6.0), 1e-12);  // ln1+ln2+ln3
}

TEST(FailureTimeData, RejectsBadInputs) {
  EXPECT_THROW(d::FailureTimeData({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(d::FailureTimeData({-1.0}, 10.0), std::invalid_argument);
  EXPECT_THROW(d::FailureTimeData({0.0}, 10.0), std::invalid_argument);
  EXPECT_THROW(d::FailureTimeData({11.0}, 10.0), std::invalid_argument);
}

TEST(FailureTimeData, EmptyIsAllowed) {
  d::FailureTimeData ft({}, 5.0);
  EXPECT_EQ(ft.count(), 0u);
  EXPECT_DOUBLE_EQ(ft.total_time(), 0.0);
}

TEST(FailureTimeData, CsvRoundTrip) {
  d::FailureTimeData ft({1.5, 2.5, 9.0}, 10.0);
  std::istringstream in(ft.to_csv());
  const auto back = d::FailureTimeData::from_csv(in, 10.0);
  EXPECT_EQ(back.times(), ft.times());
}

TEST(FailureTimeData, CsvSkipsCommentsAndBlanks) {
  std::istringstream in("# header\n1.0\n\n2.0 # trailing comment\n");
  const auto ft = d::FailureTimeData::from_csv(in, 10.0);
  EXPECT_EQ(ft.count(), 2u);
}

TEST(FailureTimeData, ToGroupedCountsCorrectly) {
  d::FailureTimeData ft({0.5, 1.0, 1.5, 2.5, 3.0}, 3.0);
  const auto g = ft.to_grouped({1.0, 2.0, 3.0});
  ASSERT_EQ(g.intervals(), 3u);
  EXPECT_EQ(g.counts()[0], 2u);  // (0,1]: 0.5, 1.0
  EXPECT_EQ(g.counts()[1], 1u);  // (1,2]: 1.5
  EXPECT_EQ(g.counts()[2], 2u);  // (2,3]: 2.5, 3.0
  EXPECT_EQ(g.total_failures(), 5u);
}

TEST(GroupedData, ValidatesBoundaries) {
  EXPECT_THROW(d::GroupedData({2.0, 1.0}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(d::GroupedData({1.0, 1.0}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(d::GroupedData({}, {}), std::invalid_argument);
  EXPECT_THROW(d::GroupedData({1.0}, {1, 2}), std::invalid_argument);
}

TEST(GroupedData, EdgesAndCumulative) {
  d::GroupedData g({1.0, 2.5, 4.0}, {3, 0, 2});
  EXPECT_DOUBLE_EQ(g.left_edge(0), 0.0);
  EXPECT_DOUBLE_EQ(g.right_edge(0), 1.0);
  EXPECT_DOUBLE_EQ(g.left_edge(2), 2.5);
  EXPECT_DOUBLE_EQ(g.observation_end(), 4.0);
  const auto cum = g.cumulative();
  EXPECT_EQ(cum.back(), 5u);
  EXPECT_EQ(cum[1], 3u);
}

TEST(GroupedData, CsvRoundTrip) {
  d::GroupedData g({1.0, 2.0, 3.0}, {4, 0, 7});
  std::istringstream in(g.to_csv());
  const auto back = d::GroupedData::from_csv(in);
  EXPECT_EQ(back.counts(), g.counts());
  EXPECT_EQ(back.boundaries(), g.boundaries());
}

TEST(Simulate, GammaNhppRespectsHorizonAndScale) {
  r::Rng rng(5);
  const auto ft = d::simulate_gamma_nhpp(rng, 100.0, 1.0, 1e-3, 5000.0);
  for (double t : ft.times()) {
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, 5000.0);
  }
  // Expected failures: 100 * (1 - e^{-5}) ~ 99.3; allow wide band.
  EXPECT_GT(ft.count(), 60u);
  EXPECT_LT(ft.count(), 140u);
}

TEST(Simulate, CountsArePoissonAcrossReplications) {
  // Mean and variance of M(te) should both be ~ Lambda(te).
  std::vector<double> counts;
  const double omega = 50.0, beta = 1e-3, te = 2000.0;
  const double lambda = omega * (1.0 - std::exp(-beta * te));
  for (std::uint64_t s = 0; s < 400; ++s) {
    r::Rng rng(1000 + s);
    counts.push_back(static_cast<double>(
        d::simulate_gamma_nhpp(rng, omega, 1.0, beta, te).count()));
  }
  EXPECT_NEAR(vbsrm::stats::mean(counts), lambda, 0.15 * lambda);
  EXPECT_NEAR(vbsrm::stats::variance(counts), lambda, 0.35 * lambda);
}

TEST(Simulate, GroupedSumsMatchFullSimulation) {
  r::Rng rng(6);
  const auto g = d::simulate_gamma_nhpp_grouped(rng, 80.0, 2.0, 2e-3, 4000.0,
                                                16);
  EXPECT_EQ(g.intervals(), 16u);
  EXPECT_DOUBLE_EQ(g.observation_end(), 4000.0);
}

TEST(Simulate, ExpectedOrderStatisticsHitTargets) {
  auto mv = [](double t) { return 10.0 * (1.0 - std::exp(-0.01 * t)); };
  const auto times = d::expected_order_statistics(mv, 1000.0, 9);
  ASSERT_EQ(times.size(), 9u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(mv(times[i]), static_cast<double>(i) + 0.5, 1e-9);
  }
}

TEST(Simulate, ExpectedOrderStatisticsRejectsOverdraw) {
  auto mv = [](double t) { return 0.001 * t; };  // Lambda(te)=1 at te=1000
  EXPECT_THROW(d::expected_order_statistics(mv, 1000.0, 5),
               std::invalid_argument);
}

TEST(Datasets, System17FailureTimesShape) {
  const auto dt = d::datasets::system17_failure_times();
  EXPECT_EQ(dt.count(), 38u);
  EXPECT_DOUBLE_EQ(dt.observation_end(), 160000.0);
  // Strictly increasing.
  for (std::size_t i = 1; i < dt.count(); ++i) {
    EXPECT_LT(dt.times()[i - 1], dt.times()[i]);
  }
  // Deterministic across calls.
  const auto again = d::datasets::system17_failure_times();
  EXPECT_EQ(dt.times(), again.times());
}

TEST(Datasets, System17GroupedShape) {
  const auto dg = d::datasets::system17_grouped();
  EXPECT_EQ(dg.intervals(), 64u);
  EXPECT_EQ(dg.total_failures(), 38u);
  EXPECT_DOUBLE_EQ(dg.observation_end(), 64.0);
  // Hump-shaped (delayed S generator): the first day sees fewer failures
  // than the peak region.
  std::size_t peak = 0;
  for (auto c : dg.counts()) peak = std::max(peak, c);
  EXPECT_GE(peak, 1u);
  EXPECT_LE(dg.counts()[0], peak);
}

TEST(Datasets, NtdsMatchesPublishedTotals) {
  const auto ntds = d::datasets::ntds_failure_times();
  EXPECT_EQ(ntds.count(), 26u);
  EXPECT_DOUBLE_EQ(ntds.times().back(), 250.0);  // published total: day 250
  EXPECT_DOUBLE_EQ(ntds.times().front(), 9.0);
}

}  // namespace
