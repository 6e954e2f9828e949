// Engine layer: registry round-trips, adapter fidelity (engine results
// must bit-match the direct estimator calls they wrap), and BatchRunner
// determinism (parallel == serial, MCMC included, fixed seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bayes/gibbs.hpp"
#include "bayes/laplace.hpp"
#include "bayes/nint.hpp"
#include "core/vb2.hpp"
#include "data/datasets.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"

namespace {

using namespace vbsrm;

bayes::PriorPair info_priors_dt() {
  return {bayes::GammaPrior::from_mean_sd(50.0, 15.8),
          bayes::GammaPrior::from_mean_sd(1.0e-5, 3.2e-6)};
}

bayes::PriorPair info_priors_dg() {
  return {bayes::GammaPrior::from_mean_sd(50.0, 15.8),
          bayes::GammaPrior::from_mean_sd(3.3e-2, 1.1e-2)};
}

engine::EstimatorRequest system17_request() {
  return engine::EstimatorRequest(
      1.0, data::datasets::system17_failure_times(), info_priors_dt());
}

// --- registry -------------------------------------------------------------

TEST(EngineRegistry, RoundTripsAllFivePaperMethods) {
  const auto req = system17_request();
  for (const char* name : {"vb2", "vb1", "nint", "laplace", "mcmc"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(engine::is_registered(name));
    const auto est = engine::make(name, req);
    ASSERT_NE(est, nullptr);
    EXPECT_EQ(est->method(), name);
    // Every method must answer the paper's three questions.
    const auto s = est->summarize();
    EXPECT_GT(s.mean_omega, 0.0);
    const auto ci = est->interval_omega(0.99);
    EXPECT_LT(ci.lower, ci.upper);
    EXPECT_GE(est->diagnostics().wall_time_ms, 0.0);
  }
}

TEST(EngineRegistry, LookupIsCaseInsensitive) {
  EXPECT_TRUE(engine::is_registered("VB2"));
  EXPECT_TRUE(engine::is_registered("Laplace"));
  const auto est = engine::make("MCMC", [] {
    auto r = system17_request();
    r.mcmc.base.samples = 50;
    r.mcmc.base.burn_in = 50;
    r.mcmc.base.thin = 1;
    return r;
  }());
  EXPECT_EQ(est->method(), "mcmc");
}

TEST(EngineRegistry, UnknownNameThrowsListingKnownMethods) {
  const auto req = system17_request();
  try {
    engine::make("no-such-method", req);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-method"), std::string::npos);
    EXPECT_NE(msg.find("vb2"), std::string::npos);
  }
}

TEST(EngineRegistry, MethodNamesContainTheFiveBuiltins) {
  const auto names = engine::registered_methods();
  for (const char* name : {"laplace", "mcmc", "nint", "vb1", "vb2"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(EngineRegistry, CustomRegistrationIsOneCallAway) {
  EXPECT_FALSE(engine::register_method("vb2", engine::EstimatorFactory{}));
  const bool fresh = engine::register_method(
      "test-alias-vb2", [](const engine::EstimatorRequest& r) {
        return engine::make("vb2", r);
      });
  EXPECT_TRUE(fresh);
  EXPECT_FALSE(engine::register_method("test-alias-vb2",
                                       [](const engine::EstimatorRequest& r) {
                                         return engine::make("vb1", r);
                                       }));
  const auto est = engine::make("test-alias-vb2", system17_request());
  EXPECT_EQ(est->method(), "vb2");
}

// --- adapter fidelity: engine == direct calls, bitwise -------------------

TEST(EngineAdapters, Vb2BitMatchesDirectEstimatorOnSystem17) {
  const auto req = system17_request();
  const auto est = engine::make("vb2", req);

  const core::Vb2Estimator direct(
      1.0, data::datasets::system17_failure_times(), info_priors_dt());
  const auto want = direct.posterior().summary();
  const auto got = est->summarize();
  EXPECT_EQ(got.mean_omega, want.mean_omega);
  EXPECT_EQ(got.mean_beta, want.mean_beta);
  EXPECT_EQ(got.var_omega, want.var_omega);
  EXPECT_EQ(got.var_beta, want.var_beta);
  EXPECT_EQ(got.cov, want.cov);

  const auto want_io = direct.posterior().interval_omega(0.99);
  const auto got_io = est->interval_omega(0.99);
  EXPECT_EQ(got_io.lower, want_io.lower);
  EXPECT_EQ(got_io.upper, want_io.upper);

  const auto want_r = direct.posterior().reliability(1000.0, 0.99);
  const auto got_r = est->reliability(1000.0, 0.99);
  EXPECT_EQ(got_r.point, want_r.point);
  EXPECT_EQ(got_r.lower, want_r.lower);
  EXPECT_EQ(got_r.upper, want_r.upper);

  EXPECT_EQ(est->diagnostics().n_max_used, direct.diagnostics().n_max_used);
  ASSERT_NE(est->mixture(), nullptr);
}

TEST(EngineAdapters, LaplaceBitMatchesDirectEstimatorOnSystem17) {
  const auto req = system17_request();
  const auto est = engine::make("laplace", req);

  const bayes::LogPosterior post(1.0, data::datasets::system17_failure_times(),
                                 info_priors_dt());
  const bayes::LaplaceEstimator direct(post);
  const auto want = direct.summary();
  const auto got = est->summarize();
  EXPECT_EQ(got.mean_omega, want.mean_omega);
  EXPECT_EQ(got.mean_beta, want.mean_beta);
  EXPECT_EQ(got.var_omega, want.var_omega);
  EXPECT_EQ(got.var_beta, want.var_beta);
  EXPECT_EQ(got.cov, want.cov);

  const auto want_ib = direct.interval_beta(0.99);
  const auto got_ib = est->interval_beta(0.99);
  EXPECT_EQ(got_ib.lower, want_ib.lower);
  EXPECT_EQ(got_ib.upper, want_ib.upper);
  EXPECT_EQ(est->mixture(), nullptr);
}

TEST(EngineAdapters, NintBoxSeedingMatchesManualVb2Pipeline) {
  const auto req = system17_request();
  const auto est = engine::make("nint", req);

  // The hand-wired pipeline every call site used to repeat.
  const core::Vb2Estimator vb2(1.0, data::datasets::system17_failure_times(),
                               info_priors_dt());
  const bayes::LogPosterior post(1.0, data::datasets::system17_failure_times(),
                                 info_priors_dt());
  const auto box = bayes::Box::from_quantiles(
      vb2.posterior().quantile_omega(0.005),
      vb2.posterior().quantile_omega(0.995),
      vb2.posterior().quantile_beta(0.005),
      vb2.posterior().quantile_beta(0.995));
  const bayes::NintEstimator direct(post, box);

  EXPECT_EQ(est->summarize().mean_omega, direct.summary().mean_omega);
  EXPECT_EQ(est->summarize().cov, direct.summary().cov);
  const auto want_io = direct.interval_omega(0.99);
  const auto got_io = est->interval_omega(0.99);
  EXPECT_EQ(got_io.lower, want_io.lower);
  EXPECT_EQ(got_io.upper, want_io.upper);
}

TEST(EngineAdapters, McmcRespectsRequestSeedAndReportsVariates) {
  auto req = system17_request();
  req.mcmc.base.seed = 4242;
  req.mcmc.base.burn_in = 500;
  req.mcmc.base.thin = 2;
  req.mcmc.base.samples = 1000;
  const auto est = engine::make("mcmc", req);

  const auto direct = bayes::gibbs_failure_times(
      1.0, data::datasets::system17_failure_times(), info_priors_dt(),
      req.mcmc.base);
  EXPECT_EQ(est->summarize().mean_omega, direct.summary().mean_omega);
  EXPECT_EQ(est->summarize().var_beta, direct.summary().var_beta);
  EXPECT_EQ(est->diagnostics().chain_samples, direct.size());
  EXPECT_EQ(est->diagnostics().variates, direct.variates_generated());
}

// --- reliability windows past the search floor ----------------------------

// With flat priors on D_T and u = 3 t_e the 0.5% reliability quantile
// lies far below the 1e-14 / 1e-12 floor of the x-space search; it must
// still come back as a quantile, not as the floor or the 0.5 midpoint.
TEST(EngineWindows, FlatPriorLongWindowKeepsEndpointsAroundThePoint) {
  const engine::EstimatorRequest req(
      1.0, data::datasets::system17_failure_times(),
      bayes::PriorPair::flat());
  const double u = 3.0 * req.horizon();
  for (const char* method : {"vb2", "nint"}) {
    SCOPED_TRACE(method);
    const auto est = engine::make(method, req);
    const auto r = est->reliability(u, 0.99);
    EXPECT_GE(r.lower, 0.0);
    EXPECT_LE(r.lower, r.point);
    EXPECT_LE(r.point, r.upper);
    EXPECT_LT(r.lower, 1e-14);
  }
}

// --- batch runner ---------------------------------------------------------

engine::BatchSpec small_grid_spec() {
  engine::BatchSpec spec;
  spec.methods = {"vb2", "vb1", "nint", "laplace", "mcmc"};

  auto dt = engine::EstimatorRequest(
      1.0, data::datasets::system17_failure_times(), info_priors_dt());
  auto dg = engine::EstimatorRequest(1.0, data::datasets::system17_grouped(),
                                     info_priors_dg());
  for (auto* r : {&dt, &dg}) {
    r->mcmc.base.burn_in = 500;
    r->mcmc.base.thin = 2;
    r->mcmc.base.samples = 1000;
  }
  spec.requests = {dt, dg};
  spec.levels = {0.9, 0.99};
  spec.reliability_windows = {1000.0};
  spec.mcmc_seed_base = 20070707;
  return spec;
}

void expect_reports_identical(const std::vector<engine::EstimationReport>& a,
                              const std::vector<engine::EstimationReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].method, b[i].method);
    EXPECT_EQ(a[i].request_index, b[i].request_index);
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].error, b[i].error);
    EXPECT_EQ(a[i].summary.mean_omega, b[i].summary.mean_omega);
    EXPECT_EQ(a[i].summary.mean_beta, b[i].summary.mean_beta);
    EXPECT_EQ(a[i].summary.var_omega, b[i].summary.var_omega);
    EXPECT_EQ(a[i].summary.var_beta, b[i].summary.var_beta);
    EXPECT_EQ(a[i].summary.cov, b[i].summary.cov);
    EXPECT_EQ(a[i].omega_interval.lower, b[i].omega_interval.lower);
    EXPECT_EQ(a[i].omega_interval.upper, b[i].omega_interval.upper);
    EXPECT_EQ(a[i].beta_interval.lower, b[i].beta_interval.lower);
    EXPECT_EQ(a[i].beta_interval.upper, b[i].beta_interval.upper);
    ASSERT_EQ(a[i].reliability.size(), b[i].reliability.size());
    for (std::size_t k = 0; k < a[i].reliability.size(); ++k) {
      EXPECT_EQ(a[i].reliability[k].point, b[i].reliability[k].point);
      EXPECT_EQ(a[i].reliability[k].lower, b[i].reliability[k].lower);
      EXPECT_EQ(a[i].reliability[k].upper, b[i].reliability[k].upper);
    }
    // Diagnostics match too, wall time excluded (it is the one
    // legitimately nondeterministic field).
    EXPECT_EQ(a[i].diagnostics.iterations, b[i].diagnostics.iterations);
    EXPECT_EQ(a[i].diagnostics.n_max_used, b[i].diagnostics.n_max_used);
    EXPECT_EQ(a[i].diagnostics.chain_samples, b[i].diagnostics.chain_samples);
    EXPECT_EQ(a[i].diagnostics.variates, b[i].diagnostics.variates);
  }
}

TEST(BatchRunner, ParallelRunIsIdenticalToSerialRunMcmcIncluded) {
  const auto spec = small_grid_spec();
  const auto serial = engine::BatchRunner(1).run(spec);
  const auto parallel = engine::BatchRunner(4).run(spec);

  // 5 methods x 2 requests x 2 levels.
  ASSERT_EQ(serial.size(), 20u);
  for (const auto& r : serial) EXPECT_TRUE(r.ok) << r.method << ": " << r.error;
  expect_reports_identical(serial, parallel);
}

TEST(BatchRunner, TwoConsecutiveParallelRunsAreIdentical) {
  const auto spec = small_grid_spec();
  const engine::BatchRunner runner(4);
  expect_reports_identical(runner.run(spec), runner.run(spec));
}

TEST(BatchRunner, ReportsComeBackInGridOrder) {
  const auto spec = small_grid_spec();
  const auto reports = engine::BatchRunner(4).run(spec);
  std::size_t i = 0;
  for (const auto& method : spec.methods) {
    for (std::size_t ri = 0; ri < spec.requests.size(); ++ri) {
      for (const double level : spec.levels) {
        ASSERT_LT(i, reports.size());
        EXPECT_EQ(reports[i].method, method);
        EXPECT_EQ(reports[i].request_index, ri);
        EXPECT_EQ(reports[i].level, level);
        ++i;
      }
    }
  }
}

TEST(BatchRunner, PerCellSeedsAreDistinctAndDeterministic) {
  EXPECT_EQ(engine::derive_cell_seed(1, 0), engine::derive_cell_seed(1, 0));
  EXPECT_NE(engine::derive_cell_seed(1, 0), engine::derive_cell_seed(1, 1));
  EXPECT_NE(engine::derive_cell_seed(1, 0), engine::derive_cell_seed(2, 0));
}

TEST(BatchRunner, FailedCellsReportTheErrorInsteadOfThrowing) {
  engine::BatchSpec spec;
  spec.methods = {"no-such-method", "vb2"};
  spec.requests = {system17_request()};
  spec.levels = {0.99};
  const auto reports = engine::BatchRunner(2).run(spec);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_NE(reports[0].error.find("no-such-method"), std::string::npos);
  EXPECT_TRUE(reports[1].ok);
}

}  // namespace
