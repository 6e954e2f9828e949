// Gamma-type NHPP models: closed-form cross-checks for the two named
// members (Goel-Okumoto, delayed S-shaped) and the generic law.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/datasets.hpp"
#include "data/simulate.hpp"
#include "nhpp/fit.hpp"
#include "nhpp/likelihood.hpp"
#include "nhpp/model.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "stats/gof.hpp"

namespace n = vbsrm::nhpp;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GoelOkumoto, MeanValueClosedForm) {
  const auto go = n::goel_okumoto(50.0, 2e-3);
  for (double t : {0.0, 100.0, 500.0, 5000.0}) {
    EXPECT_NEAR(go.mean_value(t), 50.0 * (1.0 - std::exp(-2e-3 * t)), 1e-10)
        << "t=" << t;
  }
  EXPECT_NEAR(go.intensity(100.0), 50.0 * 2e-3 * std::exp(-0.2), 1e-10);
}

TEST(DelayedSShaped, MeanValueClosedForm) {
  const auto dss = n::delayed_s_shaped(30.0, 1e-2);
  for (double t : {0.0, 50.0, 200.0, 1000.0}) {
    const double bt = 1e-2 * t;
    EXPECT_NEAR(dss.mean_value(t), 30.0 * (1.0 - (1.0 + bt) * std::exp(-bt)),
                1e-9)
        << "t=" << t;
  }
}

TEST(DelayedSShaped, IntensityIsHumpShaped) {
  const auto dss = n::delayed_s_shaped(30.0, 1e-2);
  // lambda(t) = omega b^2 t e^{-bt}: peaks at t = 1/b = 100.
  EXPECT_LT(dss.intensity(10.0), dss.intensity(100.0));
  EXPECT_GT(dss.intensity(100.0), dss.intensity(400.0));
}

TEST(GammaTypeModel, RejectsBadParameters) {
  EXPECT_THROW(n::GammaTypeModel(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(n::GammaTypeModel(1.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(n::GammaTypeModel(1.0, 1.0, 0.0), std::invalid_argument);
}

TEST(Reliability, MatchesEquationThree) {
  const auto go = n::goel_okumoto(44.0, 1.26e-5);
  const double te = 160000.0, u = 1000.0;
  const double expected = std::exp(-(go.mean_value(te + u) -
                                     go.mean_value(te)));
  EXPECT_NEAR(go.reliability(te, u), expected, 1e-12);
  EXPECT_DOUBLE_EQ(go.reliability(te, 0.0), 1.0);
  EXPECT_THROW(go.reliability(te, -1.0), std::invalid_argument);
}

TEST(Reliability, DecreasingInHorizonWidth) {
  const auto go = n::goel_okumoto(44.0, 1.26e-5);
  double prev = 1.0;
  for (double u : {100.0, 1000.0, 10000.0, 100000.0}) {
    const double r = go.reliability(160000.0, u);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(GammaFailureLaw, CdfPdfConsistency) {
  const n::GammaFailureLaw law{2.0};
  const double beta = 0.5;
  // Numeric derivative of the CDF equals the pdf.
  for (double t : {0.5, 2.0, 6.0}) {
    const double h = 1e-6;
    const double num = (law.cdf(t + h, beta) - law.cdf(t - h, beta)) / (2 * h);
    EXPECT_NEAR(num, law.pdf(t, beta), 1e-6) << "t=" << t;
  }
}

TEST(GammaFailureLaw, SurvivalComplementsAndLogForm) {
  const n::GammaFailureLaw law{1.0};
  EXPECT_NEAR(law.cdf(3.0, 1.0) + law.survival(3.0, 1.0), 1.0, 1e-14);
  EXPECT_NEAR(law.log_survival(3.0, 1.0), -3.0, 1e-12);  // exponential
  EXPECT_DOUBLE_EQ(law.survival(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(law.cdf(-1.0, 1.0), 0.0);
}

TEST(GammaFailureLaw, IntervalMassPartitions) {
  const n::GammaFailureLaw law{3.0};
  const double beta = 0.8;
  const double total = law.interval_mass(0.0, 2.0, beta) +
                       law.interval_mass(2.0, 7.0, beta) +
                       law.interval_mass(7.0, kInf, beta);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_THROW(law.interval_mass(3.0, 3.0, beta), std::invalid_argument);
  EXPECT_THROW(law.interval_mass(-1.0, 3.0, beta), std::invalid_argument);
}

TEST(GammaFailureLaw, LogIntervalMassDeepTail) {
  // Interval far in the exponential tail: direct mass underflows but the
  // log form must survive.  For shape 1: log(e^{-a} - e^{-b}).
  const n::GammaFailureLaw law{1.0};
  const double lm = law.log_interval_mass(800.0, 810.0, 1.0);
  const double expect = -800.0 + std::log1p(-std::exp(-10.0));
  EXPECT_NEAR(lm, expect, 1e-9);
}

TEST(GammaFailureLaw, TruncatedMeanExponentialMemoryless) {
  const n::GammaFailureLaw law{1.0};
  // E[T | T > a] = a + 1/beta for the exponential.
  EXPECT_NEAR(law.truncated_mean(5.0, kInf, 2.0), 5.0 + 0.5, 1e-10);
  EXPECT_NEAR(law.truncated_mean(0.0, kInf, 2.0), 0.5, 1e-12);
}

TEST(GammaFailureLaw, TruncatedMeanInsideInterval) {
  const n::GammaFailureLaw law{2.0};
  const double m = law.truncated_mean(1.0, 3.0, 1.0);
  EXPECT_GT(m, 1.0);
  EXPECT_LT(m, 3.0);
}

TEST(GammaFailureLaw, TruncatedMeanDeepTailStable) {
  // Conditioning region with ~e^{-200} mass: conditional mean must stay
  // finite and just beyond the cut (hazard ~ beta for the exponential).
  const n::GammaFailureLaw law{1.0};
  const double m = law.truncated_mean(200.0, kInf, 1.0);
  EXPECT_NEAR(m, 201.0, 1e-6);
}

TEST(Vb2PerfEquivalence, GroupedMassTableMatchesFailureLaw) {
  // The per-beta boundary table (Erlang closed form for integral
  // alpha0, pair kernel otherwise) against the log-space reference law.
  const auto dg = vbsrm::data::datasets::system17_grouped();
  for (const double alpha0 : {1.0, 2.0, 2.7}) {
    const n::GammaFailureLaw law{alpha0};
    n::GroupedMassTable table(alpha0, dg.boundaries());
    for (const double beta : {1e-4, 3.3e-2, 0.5, 5.0}) {
      table.evaluate(beta);
      double prev = 0.0;
      for (std::size_t i = 0; i < table.bins(); ++i) {
        const double s = dg.boundaries()[i];
        const double ref = law.interval_mass(prev, s, beta);
        EXPECT_NEAR(table.interval_mass(i), ref, 1e-12 * ref + 1e-280)
            << "alpha0=" << alpha0 << " beta=" << beta << " bin=" << i;
        if (ref > 1e-280) {
          EXPECT_NEAR(table.truncated_mean(i),
                      law.truncated_mean(prev, s, beta),
                      1e-10 * law.truncated_mean(prev, s, beta));
          EXPECT_NEAR(table.log_interval_mass(i),
                      law.log_interval_mass(prev, s, beta), 1e-10);
        }
        prev = s;
      }
      const double tail_ref = law.survival(prev, beta);
      EXPECT_NEAR(table.tail_survival(), tail_ref,
                  1e-12 * tail_ref + 1e-280);
      if (tail_ref > 1e-280) {
        EXPECT_NEAR(table.tail_truncated_mean(),
                    law.truncated_mean(prev, kInf, beta),
                    1e-10 * law.truncated_mean(prev, kInf, beta));
      }
    }
  }
}

TEST(ModelName, DescriptiveStrings) {
  EXPECT_NE(n::goel_okumoto(1.0, 1.0).name().find("Goel-Okumoto"),
            std::string::npos);
  EXPECT_NE(n::delayed_s_shaped(1.0, 1.0).name().find("S-shaped"),
            std::string::npos);
  EXPECT_NE(n::GammaTypeModel(3.5, 1.0, 1.0).name().find("alpha0=3.5"),
            std::string::npos);
}

// Property: for every alpha0, the truncated mean over a partition
// reassembles the unconditional mean alpha0/beta.
class TruncatedMeanSweep : public ::testing::TestWithParam<double> {};

TEST_P(TruncatedMeanSweep, PartitionReassemblesMean) {
  const double alpha0 = GetParam();
  const n::GammaFailureLaw law{alpha0};
  const double beta = 0.7;
  const double cuts[] = {0.0, 1.0, 3.0, 8.0, kInf};
  double mean = 0.0;
  for (int i = 0; i + 1 < 5; ++i) {
    const double mass = law.interval_mass(cuts[i], cuts[i + 1], beta);
    mean += mass * law.truncated_mean(cuts[i], cuts[i + 1], beta);
  }
  EXPECT_NEAR(mean, alpha0 / beta, 1e-9) << "alpha0=" << alpha0;
}

INSTANTIATE_TEST_SUITE_P(Alphas, TruncatedMeanSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 3.7, 10.0));

// Members of the gamma-type family, each at a rate whose scale suits
// t in (0, ~10): Goel-Okumoto, delayed S-shaped, and fixed shapes
// below, between and above them.
struct FamilyCase {
  double alpha0;
  double beta;
};

constexpr FamilyCase kFamilyCases[] = {
    {1.0, 0.5}, {2.0, 1.0}, {0.5, 0.3}, {1.5, 0.8},
    {2.7, 1.2}, {3.0, 2.0}, {4.0, 1.5},
};

class FamilySweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  FamilyCase c_ = kFamilyCases[GetParam()];
  n::GammaFailureLaw law_{c_.alpha0};
};

TEST_P(FamilySweep, CdfIsValidDistribution) {
  EXPECT_NEAR(law_.cdf(0.0, c_.beta), 0.0, 1e-12);
  EXPECT_NEAR(law_.cdf(-1.0, c_.beta), 0.0, 1e-12);
  double prev = 0.0;
  for (double t = 0.05; t < 60.0; t *= 1.3) {
    const double p = law_.cdf(t, c_.beta);
    EXPECT_GE(p, prev - 1e-13) << "alpha0=" << c_.alpha0 << " t=" << t;
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_GT(law_.cdf(1e5, c_.beta), 0.99) << "alpha0=" << c_.alpha0;
}

TEST_P(FamilySweep, PdfIsDerivativeOfCdf) {
  for (double t : {0.3, 1.0, 2.5, 6.0}) {
    const double h = 1e-6 * t;
    const double numeric =
        (law_.cdf(t + h, c_.beta) - law_.cdf(t - h, c_.beta)) / (2 * h);
    EXPECT_NEAR(law_.pdf(t, c_.beta), numeric, 1e-5 * std::max(1.0, numeric))
        << "alpha0=" << c_.alpha0 << " t=" << t;
  }
}

TEST_P(FamilySweep, SampleMatchesCdfByKs) {
  vbsrm::random::Rng rng(1000 + GetParam());
  const auto x =
      vbsrm::random::sample_gamma_many(rng, 2000, c_.alpha0, c_.beta);
  const auto ks = vbsrm::stats::ks_test(
      x, [&](double t) { return law_.cdf(t, c_.beta); });
  EXPECT_GT(ks.p_value, 1e-3) << "alpha0=" << c_.alpha0;
}

TEST_P(FamilySweep, IntervalMassPartitions) {
  const double total = law_.interval_mass(0.0, 1.0, c_.beta) +
                       law_.interval_mass(1.0, 4.0, c_.beta) +
                       law_.interval_mass(4.0, kInf, c_.beta);
  EXPECT_NEAR(total, 1.0, 1e-10) << "alpha0=" << c_.alpha0;
}

TEST_P(FamilySweep, MleRecoversSimulationTruth) {
  vbsrm::random::Rng rng(2000 + GetParam());
  const double omega = 400.0;
  // Horizon at the 95% quantile of the law so most faults are seen.
  double te = 1.0;
  while (law_.cdf(te, c_.beta) < 0.95) te *= 1.4;
  const auto sim =
      vbsrm::data::simulate_gamma_nhpp(rng, omega, c_.alpha0, c_.beta, te);
  ASSERT_GT(sim.count(), 200u);
  const auto fit = n::fit_em(c_.alpha0, sim);
  EXPECT_TRUE(fit.converged) << "alpha0=" << c_.alpha0;
  EXPECT_NEAR(fit.omega, omega, 0.15 * omega) << "alpha0=" << c_.alpha0;
  // The reported log-likelihood is the fit's, and it must beat the
  // truth's (it is the MLE).
  EXPECT_NEAR(fit.log_likelihood,
              n::log_likelihood_at(c_.alpha0, fit.omega, fit.beta, sim), 1e-8)
      << "alpha0=" << c_.alpha0;
  EXPECT_GE(fit.log_likelihood + 1e-6,
            n::log_likelihood_at(c_.alpha0, omega, c_.beta, sim))
      << "alpha0=" << c_.alpha0;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilySweep,
                         ::testing::Range<std::size_t>(0, 7));

}  // namespace
