#include "data/datasets.hpp"

#include <cmath>
#include <numeric>
#include <vector>

#include "data/simulate.hpp"
#include "random/rng.hpp"

namespace vbsrm::data::datasets {

namespace {

constexpr double kS17Omega = 44.0;
constexpr double kS17Beta = 1.26e-5;   // per second
constexpr double kS17Te = 160000.0;    // seconds
constexpr std::size_t kS17Failures = 38;

constexpr double kS17DssOmega = 42.0;   // grouped-data generator (DSS shape)
constexpr double kS17DssBeta = 0.075;   // per day
constexpr std::size_t kS17Days = 64;

}  // namespace

FailureTimeData system17_failure_times() {
  auto mean_value = [](double t) {
    return kS17Omega * (1.0 - std::exp(-kS17Beta * t));
  };
  auto times = expected_order_statistics(mean_value, kS17Te, kS17Failures);
  // Small seeded jitter (up to ~15% of the local gap) so the set is not
  // unnaturally regular; the jitter preserves ordering by construction.
  random::Rng rng(0x517D47ull);
  std::vector<double> jittered(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double lo = i == 0 ? 0.0 : times[i - 1];
    const double hi = i + 1 < times.size() ? times[i + 1] : kS17Te;
    const double amp = 0.15 * 0.5 * (hi - lo);
    jittered[i] = times[i] + amp * (2.0 * rng.next_double() - 1.0);
  }
  return FailureTimeData(std::move(jittered), kS17Te);
}

GroupedData system17_grouped() {
  // 38 failure times placed at the expected order statistics of a
  // delayed S-shaped process, then jittered (seeded, up to ~0.9 days)
  // and binned per working day.  The jitter produces the clumping real
  // failure logs show (multi-failure days next to quiet days) while
  // the underlying DSS shape makes the Goel-Okumoto fit mediocre —
  // the paper's characterization of the grouped System 17 data.
  auto dss = [](double t) {
    return kS17DssOmega *
           (1.0 - (1.0 + kS17DssBeta * t) * std::exp(-kS17DssBeta * t));
  };
  auto times = expected_order_statistics(dss, static_cast<double>(kS17Days),
                                         38);
  random::Rng rng(0x517D6ull);
  std::vector<double> bounds(kS17Days);
  for (std::size_t i = 0; i < kS17Days; ++i) {
    bounds[i] = static_cast<double>(i + 1);
  }
  std::vector<std::size_t> counts(kS17Days, 0);
  for (double t : times) {
    double tj = t + 0.9 * (2.0 * rng.next_double() - 1.0);
    tj = std::min(std::max(tj, 1e-6), static_cast<double>(kS17Days) - 1e-6);
    counts[static_cast<std::size_t>(tj)] += 1;
  }
  return GroupedData(std::move(bounds), std::move(counts));
}

FailureTimeData ntds_failure_times() {
  // Inter-failure times in days for the first 26 NTDS production errors
  // (Jelinski & Moranda 1972, Table 1; also Goel & Okumoto 1979).
  static constexpr double gaps[26] = {9,  12, 11, 4, 7,  2, 5, 8, 5,  7,
                                      1,  6,  1,  9, 4,  1, 3, 3, 6,  1,
                                      11, 33, 7,  91, 2, 1};
  std::vector<double> times;
  times.reserve(26);
  double t = 0.0;
  for (double g : gaps) {
    t += g;
    times.push_back(t);
  }
  return FailureTimeData(std::move(times), 250.0);
}

}  // namespace vbsrm::data::datasets
