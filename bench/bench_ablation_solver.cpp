// Ablation A3: the per-component fixed-point solver.
//
// The paper uses successive substitution on Eqs. (24)-(27) and
// conjectures (Sec. 6) that a Newton-type solver would make the total
// cost proportional to n_max.  This bench compares the three
// core::FixedPointSolver arms on the grouped data (where no closed form
// exists):
//   * successive substitution (paper's choice),
//   * Steffensen (Aitken-accelerated substitution, the library default),
//   * Newton on the residual g(xi) - xi,
// plus the failure-time GO closed form as a sanity anchor.
#include <cstdio>

#include "bench_common.hpp"

using namespace vbsrm;
using namespace vbsrm::bench;

namespace {

void run(const char* label, bool grouped, core::FixedPointSolver solver,
         std::uint64_t n_max) {
  core::Vb2Options opt;
  opt.n_max = n_max;
  opt.adapt_n_max = false;
  opt.solver = solver;
  double mean = 0.0;
  std::uint64_t iters = 0;
  double sec = 0.0;
  if (grouped) {
    const auto dg = data::datasets::system17_grouped();
    sec = time_seconds([&] {
      const core::Vb2Estimator vb(1.0, dg, info_priors_dg(), opt);
      mean = vb.posterior().summary().mean_omega;
      iters = vb.diagnostics().total_fixed_point_iterations;
    });
  } else {
    const auto dt = data::datasets::system17_failure_times();
    sec = time_seconds([&] {
      const core::Vb2Estimator vb(1.0, dt, info_priors_dt(), opt);
      mean = vb.posterior().summary().mean_omega;
      iters = vb.diagnostics().total_fixed_point_iterations;
    });
  }
  std::printf("%-34s %8llu %12llu %12.3f %10.4f\n", label,
              static_cast<unsigned long long>(n_max),
              static_cast<unsigned long long>(iters), 1e3 * sec, mean);
}

}  // namespace

int main() {
  std::printf("Ablation A3: fixed-point solver for (zeta, xi)\n");
  std::printf("%-34s %8s %12s %12s %10s\n", "solver", "n_max", "iterations",
              "time (ms)", "E[w]");
  print_rule();

  using S = core::FixedPointSolver;
  for (std::uint64_t n_max : {100u, 200u, 500u, 1000u}) {
    run("DG successive substitution", true, S::substitution, n_max);
    run("DG Steffensen", true, S::steffensen, n_max);
    run("DG Newton", true, S::newton, n_max);
  }
  print_rule();
  for (std::uint64_t n_max : {200u, 1000u}) {
    run("DT closed form (GO)", false, S::steffensen, n_max);
  }

  std::printf(
      "\nReading: all three solvers land on the same posterior.  Plain\n"
      "successive substitution needs more iterations per component as N\n"
      "grows (the fixed-point map's contraction weakens), so its total\n"
      "cost grows super-linearly in n_max: the 'disproportionate' growth\n"
      "the paper reports in Table 7.  Steffensen and Newton keep the\n"
      "per-component iteration count nearly flat and the total cost\n"
      "near-linear, confirming the paper's Sec. 6 conjecture.  Newton's\n"
      "iteration column counts steps of about three zeta evaluations\n"
      "each (residual plus a central-difference slope); Steffensen's\n"
      "counts single evaluations, which is why it is the faster default.\n");
  return 0;
}
