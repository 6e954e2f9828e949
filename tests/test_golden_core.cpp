// Frozen-output contract for the VB2 fit and the gamma-mixture
// functionals.  tests/golden/core_outputs.txt records, as hex floats
// (%a), what the production paths return on a fixed grid of datasets,
// priors, alpha0 values and truncation regimes: fit diagnostics, a hash
// of every component's bit patterns, the summary moments, credible
// intervals, and (for informative priors) reliability windows.
//
// Every value is asserted bitwise.  A change that is meant to move the
// numbers replaces this exact comparison with a stated relative
// tolerance against the fixture; NINT (tests/test_cross_method.cpp)
// stays the accuracy yardstick.  On a mismatch the test prints the
// line the current code produces.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/vb2.hpp"
#include "data/datasets.hpp"
#include "data/simulate.hpp"
#include "random/rng.hpp"

namespace c = vbsrm::core;
namespace b = vbsrm::bayes;
namespace d = vbsrm::data;

namespace {

b::PriorPair info_priors_dt() {
  return {b::GammaPrior::from_mean_sd(50.0, 15.8),
          b::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
}

b::PriorPair info_priors_dg() {
  return {b::GammaPrior::from_mean_sd(50.0, 15.8),
          b::GammaPrior::from_mean_sd(3.3e-2, 1.1e-2)};
}

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// 64-bit FNV-1a over the little-endian bytes of each word.
void fnv1a(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

/// The fixture lines the current code produces for one case.
std::vector<std::string> golden_lines(const std::string& name,
                                      const c::Vb2Estimator& vb,
                                      bool with_reliability) {
  std::vector<std::string> out;
  auto add = [&](const std::string& key, const std::string& values) {
    out.push_back(name + ' ' + key + ' ' + values);
  };
  const auto& dg = vb.diagnostics();
  add("n_max_used", std::to_string(dg.n_max_used));
  add("doublings", std::to_string(dg.n_max_doublings));
  add("fixed_point_iterations",
      std::to_string(dg.total_fixed_point_iterations));
  add("log_evidence_bound", hex(dg.log_evidence_bound));

  const auto& post = vb.posterior();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& comp : post.components()) {
    fnv1a(h, comp.n);
    fnv1a(h, bits(comp.weight));
    fnv1a(h, bits(comp.omega.shape));
    fnv1a(h, bits(comp.omega.rate));
    fnv1a(h, bits(comp.beta.shape));
    fnv1a(h, bits(comp.beta.rate));
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(h));
  add("components", std::to_string(post.components().size()) + ' ' + hash);

  const auto s = post.summary();
  add("summary", hex(s.mean_omega) + ' ' + hex(s.mean_beta) + ' ' +
                     hex(s.var_omega) + ' ' + hex(s.var_beta) + ' ' +
                     hex(s.cov));
  for (const double level : {0.9, 0.95, 0.99}) {
    const auto io = post.interval_omega(level);
    const auto ib = post.interval_beta(level);
    add("interval_omega " + hex(level), hex(io.lower) + ' ' + hex(io.upper));
    add("interval_beta " + hex(level), hex(ib.lower) + ' ' + hex(ib.upper));
  }
  if (with_reliability) {
    for (const double frac : {0.01, 0.1, 0.5}) {
      const double u = frac * post.horizon();
      const auto r = post.reliability(u, 0.9);
      add("reliability " + hex(u), hex(r.point) + ' ' + hex(r.lower) + ' ' +
                                       hex(r.upper));
    }
  }
  return out;
}

/// Fixture lines whose first field is `name`, in file order.
std::vector<std::string> fixture_lines(const std::string& name) {
  std::ifstream in(VBSRM_GOLDEN_DIR "/core_outputs.txt");
  EXPECT_TRUE(in.good()) << "cannot open the golden fixture";
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + ' ') == 0) {
      out.push_back(line);
    }
  }
  return out;
}

void expect_golden(const std::string& name, const c::Vb2Estimator& vb,
                   bool with_reliability) {
  const auto actual = golden_lines(name, vb, with_reliability);
  const auto expected = fixture_lines(name);
  EXPECT_EQ(actual.size(), expected.size()) << "line count for " << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (i >= expected.size() || actual[i] != expected[i]) {
      ADD_FAILURE() << "expected: "
                    << (i < expected.size() ? expected[i] : "<missing>")
                    << "\n  actual: " << actual[i];
    }
  }
}

}  // namespace

TEST(GoldenCore, FailureTimeInfoAlpha1) {
  const auto dt = d::datasets::system17_failure_times();
  expect_golden("dt_info_a1", c::Vb2Estimator(1.0, dt, info_priors_dt()),
                true);
}

TEST(GoldenCore, FailureTimeInfoAlpha2) {
  const auto dt = d::datasets::system17_failure_times();
  expect_golden("dt_info_a2", c::Vb2Estimator(2.0, dt, info_priors_dt()),
                true);
}

TEST(GoldenCore, GroupedInfoAlpha1) {
  const auto dg = d::datasets::system17_grouped();
  expect_golden("dg_info_a1", c::Vb2Estimator(1.0, dg, info_priors_dg()),
                true);
}

TEST(GoldenCore, GroupedInfoAlpha2) {
  const auto dg = d::datasets::system17_grouped();
  expect_golden("dg_info_a2", c::Vb2Estimator(2.0, dg, info_priors_dg()),
                true);
}

// alpha0 = 2.7: neither the Erlang mass table nor the integral lgamma
// ladder applies.
TEST(GoldenCore, GroupedInfoNonIntegralAlpha) {
  const auto dg = d::datasets::system17_grouped();
  expect_golden("dg_info_a2.7", c::Vb2Estimator(2.7, dg, info_priors_dg()),
                true);
}

// n_max = 40 against n_min = 38 forces the adaptive loop to double.
TEST(GoldenCore, GroupedInfoForcedDoubling) {
  const auto dg = d::datasets::system17_grouped();
  c::Vb2Options opt;
  opt.n_max = 40;
  const c::Vb2Estimator vb(1.0, dg, info_priors_dg(), opt);
  EXPECT_GT(vb.diagnostics().n_max_doublings, 0u);
  expect_golden("dg_info_a1_nmax40", vb, true);
}

// Flat priors leave omega unidentified: the adaptation stops at
// n_max_limit.  Fit and intervals only.
TEST(GoldenCore, GroupedNoInfoAtNmaxLimit) {
  const auto dg = d::datasets::system17_grouped();
  const c::Vb2Estimator vb(1.0, dg, b::PriorPair::flat());
  EXPECT_EQ(vb.diagnostics().n_max_used, c::Vb2Options{}.n_max_limit);
  expect_golden("dg_noinfo_a1", vb, false);
}

TEST(GoldenCore, SimulatedFlatAlpha2) {
  vbsrm::random::Rng rng(19);
  const auto ft = d::simulate_gamma_nhpp(rng, 120.0, 2.0, 2.5e-3, 2000.0);
  expect_golden("sim_flat_a2", c::Vb2Estimator(2.0, ft, b::PriorPair::flat()),
                false);
}
