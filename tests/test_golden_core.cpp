// Frozen-output contract for the VB2 fit and the gamma-mixture
// functionals.  tests/golden/core_outputs.txt records, as hex floats
// (%a), what the production paths return on a fixed grid of datasets,
// priors, alpha0 values and truncation regimes: fit diagnostics, a hash
// of every component's bit patterns, the summary moments, credible
// intervals, and (for informative priors) reliability windows.
// tests/golden/engine_outputs.txt does the same for all five methods as
// engine::make returns them: diagnostics, summary, 0.99 intervals and
// one reliability window on D_T-Info and D_G-Info.
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
#include "engine/registry.hpp"
#include "data/simulate.hpp"
#include "random/rng.hpp"

namespace c = vbsrm::core;
namespace b = vbsrm::bayes;
namespace d = vbsrm::data;
namespace e = vbsrm::engine;

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

/// Lines of fixture `file` whose first field is `name`, in file order.
std::vector<std::string> fixture_lines(const std::string& file,
                                       const std::string& name) {
  std::ifstream in(std::string(VBSRM_GOLDEN_DIR "/") + file);
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

void expect_lines(const std::string& file, const std::string& name,
                  const std::vector<std::string>& actual) {
  const auto expected = fixture_lines(file, name);
  EXPECT_EQ(actual.size(), expected.size()) << "line count for " << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (i >= expected.size() || actual[i] != expected[i]) {
      ADD_FAILURE() << "expected: "
                    << (i < expected.size() ? expected[i] : "<missing>")
                    << "\n  actual: " << actual[i];
    }
  }
}

void expect_golden(const std::string& name, const c::Vb2Estimator& vb,
                   bool with_reliability) {
  expect_lines("core_outputs.txt", name,
               golden_lines(name, vb, with_reliability));
}

/// The fixture lines one engine estimator produces: every deterministic
/// diagnostic, the summary, the 0.99 intervals and the 0.99 reliability
/// over a window of a tenth of the horizon.
std::vector<std::string> engine_lines(const std::string& name,
                                      const std::string& method,
                                      const e::EstimatorRequest& req) {
  const auto est = e::make(method, req);
  std::vector<std::string> out;
  auto add = [&](const std::string& key, const std::string& values) {
    out.push_back(name + ' ' + key + ' ' + values);
  };
  const e::Diagnostics& dg = est->diagnostics();
  add("diagnostics",
      std::to_string(dg.iterations) + ' ' + std::to_string(dg.converged) +
          ' ' + std::to_string(dg.n_max_used) + ' ' +
          hex(dg.tail_mass_at_n_max) + ' ' +
          std::to_string(dg.grid_points_per_axis) + ' ' +
          std::to_string(dg.chain_samples) + ' ' +
          std::to_string(dg.variates) + ' ' + std::to_string(dg.chains) +
          ' ' + std::to_string(est->mixture() != nullptr));
  const auto s = est->summarize();
  add("summary", hex(s.mean_omega) + ' ' + hex(s.mean_beta) + ' ' +
                     hex(s.var_omega) + ' ' + hex(s.var_beta) + ' ' +
                     hex(s.cov));
  const auto io = est->interval_omega(0.99);
  const auto ib = est->interval_beta(0.99);
  add("interval_omega", hex(io.lower) + ' ' + hex(io.upper));
  add("interval_beta", hex(ib.lower) + ' ' + hex(ib.upper));
  const double u = 0.1 * req.horizon();
  const auto r = est->reliability(u, 0.99);
  add("reliability " + hex(u),
      hex(r.point) + ' ' + hex(r.lower) + ' ' + hex(r.upper));
  return out;
}

/// System 17 with informative priors and MCMC cut to seconds: the
/// numbers are frozen here, not judged.
e::EstimatorRequest engine_request(bool grouped, int chains) {
  e::EstimatorRequest req =
      grouped ? e::EstimatorRequest(1.0, d::datasets::system17_grouped(),
                                    info_priors_dg())
              : e::EstimatorRequest(1.0, d::datasets::system17_failure_times(),
                                    info_priors_dt());
  req.mcmc.base.burn_in = 500;
  req.mcmc.base.thin = 2;
  req.mcmc.base.samples = 1000;
  req.mcmc.base.seed = 20070625;
  req.mcmc.chains = chains;
  return req;
}

void expect_engine_golden(const std::string& prefix, bool grouped) {
  for (const char* method : {"vb2", "vb1", "nint", "laplace", "mcmc"}) {
    const std::string name = prefix + '_' + method;
    expect_lines("engine_outputs.txt", name,
                 engine_lines(name, method, engine_request(grouped, 1)));
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

TEST(GoldenEngine, FailureTimeInfoAllMethods) {
  expect_engine_golden("dt_info", false);
}

TEST(GoldenEngine, GroupedInfoAllMethods) {
  expect_engine_golden("dg_info", true);
}

// Three pooled chains: the multi-chain path and its R-hat verdict.
TEST(GoldenEngine, McmcThreeChains) {
  for (const bool grouped : {false, true}) {
    const std::string name = grouped ? "dg_info_mcmc3" : "dt_info_mcmc3";
    expect_lines("engine_outputs.txt", name,
                 engine_lines(name, "mcmc", engine_request(grouped, 3)));
  }
}
