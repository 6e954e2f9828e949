// Parallel batch evaluation of a (method x request x level) grid — the
// paper's entire evaluation protocol as one call:
//
//   BatchSpec spec;
//   spec.methods  = engine::registered_methods();
//   spec.requests = {dt_info, dt_noinfo, dg_info, dg_noinfo};
//   spec.levels   = {0.99};
//   auto reports  = BatchRunner(4).run(spec);
//
// Each (method, request) pair is fitted exactly once by a worker-pool
// thread, then queried at every level; reports come back in the fixed
// order methods-major, requests-middle, levels-minor regardless of
// scheduling.  MCMC seeds are derived per cell from `mcmc_seed_base`
// (splitmix64 of the cell index), so a parallel run is bit-identical to
// a serial run and to any other thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/estimator.hpp"

namespace vbsrm::engine {

struct BatchSpec {
  std::vector<std::string> methods;
  std::vector<EstimatorRequest> requests;
  std::vector<double> levels{0.99};
  /// Reliability windows u; one ReliabilityEstimate per window in each
  /// report (empty = skip reliability).
  std::vector<double> reliability_windows;
  /// Base for per-cell MCMC seed derivation; 0 keeps each request's own
  /// `mcmc.base.seed` unchanged.
  std::uint64_t mcmc_seed_base = 0;
};

/// One grid cell's results.  `ok == false` means the estimator threw;
/// `error` carries the message and the numeric fields stay zeroed.
struct EstimationReport {
  std::string method;
  std::size_t request_index = 0;
  double level = 0.0;
  bool ok = false;
  std::string error;

  bayes::PosteriorSummary summary;
  bayes::CredibleInterval omega_interval;
  bayes::CredibleInterval beta_interval;
  std::vector<bayes::ReliabilityEstimate> reliability;  // per window
  Diagnostics diagnostics;
};

/// Query a fitted estimator for one report: summary, both intervals at
/// `level`, reliability per window and diagnostics, with `ok` set.  The
/// one report builder behind BatchRunner cells and the serving layer's
/// estimate responses; `method` and `request_index` are the caller's.
EstimationReport build_report(const Estimator& est, double level,
                              const std::vector<double>& windows);

/// Deterministic MCMC seed for a (method, request) cell: splitmix64 of
/// the base and the cell's position in the grid.
std::uint64_t derive_cell_seed(std::uint64_t base, std::uint64_t cell);

class BatchRunner {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency().
  explicit BatchRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Evaluate the grid; report order is deterministic (methods-major,
  /// then requests, then levels) and independent of the thread count.
  std::vector<EstimationReport> run(const BatchSpec& spec) const;

  /// Cancellable variant for callers with deadlines (the serving
  /// layer): cells that have not started when `*cancel` becomes true
  /// are skipped and reported as `ok == false, error == "canceled"`;
  /// cells already fitting run to completion.  `cancel == nullptr`
  /// behaves exactly like run(spec).
  std::vector<EstimationReport> run(const BatchSpec& spec,
                                    const std::atomic<bool>* cancel) const;

 private:
  unsigned threads_;
};

}  // namespace vbsrm::engine
