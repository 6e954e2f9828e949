// Figure 1 reproduction: contour plots of the approximate joint
// posterior densities for D_G with Info priors — NINT, LAPL, VB1, VB2 —
// plus the 10000-sample MCMC scatter (rendered as a 2-D histogram).
//
// Outputs:
//   * ASCII contours on stdout for quick inspection (the paper's
//     qualitative signatures: NINT/MCMC/VB2 tilted and right-skewed,
//     LAPL a symmetric ellipse, VB1 axis-aligned);
//   * CSV grids under figure1_out/ for external plotting.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "bayes/gibbs.hpp"
#include "bayes/laplace.hpp"
#include "bayes/nint.hpp"
#include "bench_common.hpp"
#include "core/vb1.hpp"
#include "core/vb2.hpp"
#include "engine/estimator.hpp"
#include "stats/histogram.hpp"

using namespace vbsrm;
using namespace vbsrm::bench;

namespace {

constexpr int kGrid = 60;

struct Window {
  double wlo, whi, blo, bhi;
};

std::vector<std::vector<double>> densify(
    const Window& win, const std::function<double(double, double)>& f) {
  std::vector<std::vector<double>> grid(kGrid, std::vector<double>(kGrid));
  for (int i = 0; i < kGrid; ++i) {      // rows: beta (y axis)
    for (int j = 0; j < kGrid; ++j) {    // cols: omega (x axis)
      const double omega = win.wlo + (win.whi - win.wlo) * (j + 0.5) / kGrid;
      const double beta = win.blo + (win.bhi - win.blo) * (i + 0.5) / kGrid;
      grid[i][j] = f(omega, beta);
    }
  }
  return grid;
}

void emit(const std::string& name, const Window& win,
          const std::vector<std::vector<double>>& grid) {
  std::printf("\n--- %s (omega in [%.1f, %.1f] left-to-right, beta in "
              "[%.3g, %.3g] bottom-to-top) ---\n",
              name.c_str(), win.wlo, win.whi, win.blo, win.bhi);
  std::fputs(stats::ascii_contour(grid).c_str(), stdout);

  std::filesystem::create_directories("figure1_out");
  std::ofstream csv("figure1_out/" + name + ".csv");
  csv << "omega,beta,density\n";
  for (int i = 0; i < kGrid; ++i) {
    for (int j = 0; j < kGrid; ++j) {
      const double omega = win.wlo + (win.whi - win.wlo) * (j + 0.5) / kGrid;
      const double beta = win.blo + (win.bhi - win.blo) * (i + 0.5) / kGrid;
      csv << omega << ',' << beta << ',' << grid[i][j] << '\n';
    }
  }
}

}  // namespace

int main() {
  std::printf("Reproduction of Figure 1 (Okamura et al., DSN 2007): joint\n"
              "posterior contours, D_G and Info.  Expected shapes: NINT/\n"
              "MCMC/VB2 right-skewed with negative tilt; LAPL symmetric\n"
              "ellipse; VB1 axis-aligned (no correlation).\n");

  const auto dg = data::datasets::system17_grouped();
  const auto priors = info_priors_dg();

  const core::Vb2Estimator vb2(1.0, dg, priors);
  const bayes::LogPosterior post(1.0, dg, priors);
  const bayes::NintEstimator nint(post,
                                  engine::nint_box_from(vb2.posterior()));
  const bayes::LaplaceEstimator lap(post);
  const core::Vb1Estimator vb1(1.0, dg, priors);

  // Common window like the paper's axes (30..70 x 0.013..0.047 scaled to
  // our stand-in): use NINT's 0.1%..99.9% quantiles.
  const Window win{nint.quantile_omega(0.002), nint.quantile_omega(0.998),
                   nint.quantile_beta(0.002), nint.quantile_beta(0.998)};

  emit("NINT", win,
       densify(win, [&](double o, double b) { return nint.joint_density(o, b); }));
  emit("LAPL", win,
       densify(win, [&](double o, double b) { return lap.joint_density(o, b); }));

  // MCMC scatter: 10000 samples into a 2-D histogram, as in the paper.
  bayes::McmcOptions mc;
  mc.seed = 20070701;
  mc.samples = 10000;
  const auto chain = bayes::gibbs_grouped(1.0, dg, priors, mc);
  stats::Histogram2D hist(win.wlo, win.whi, kGrid, win.blo, win.bhi, kGrid);
  hist.add_all(chain.omega(), chain.beta());
  std::vector<std::vector<double>> mgrid(kGrid, std::vector<double>(kGrid));
  for (int i = 0; i < kGrid; ++i) {
    for (int j = 0; j < kGrid; ++j) mgrid[i][j] = hist.density(j, i);
  }
  emit("MCMC", win, mgrid);

  emit("VB1", win, densify(win, [&](double o, double b) {
         return vb1.posterior().joint_density(o, b);
       }));
  emit("VB2", win, densify(win, [&](double o, double b) {
         return vb2.posterior().joint_density(o, b);
       }));

  // Quantitative shape fingerprints: correlation and skew per method.
  print_header("Figure 1 shape fingerprints");
  auto corr = [](const bayes::PosteriorSummary& s) {
    return s.cov / std::sqrt(s.var_omega * s.var_beta);
  };
  std::printf("corr(NINT)=%.3f corr(LAPL)=%.3f corr(VB1)=%.3f "
              "corr(VB2)=%.3f corr(MCMC)=%.3f\n",
              corr(nint.summary()), corr(lap.summary()),
              corr(vb1.posterior().summary()), corr(vb2.posterior().summary()),
              corr(chain.summary()));
  std::printf("CSV grids written to figure1_out/*.csv\n");
  return 0;
}
