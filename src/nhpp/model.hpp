// Gamma-type NHPP software reliability models (the paper's Section 2).
//
// The finite-failures NHPP is characterized by
//   Lambda(t) = omega * G(t; theta),
// where G is the common failure-time distribution of the individual
// faults.  The gamma-type family takes G = Gamma(shape alpha0, rate
// beta) with alpha0 *fixed* per model:
//   alpha0 = 1  ->  Goel-Okumoto (exponential),
//   alpha0 = 2  ->  delayed S-shaped (2-stage Erlang).
// The free parameters estimated from data are (omega, beta).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vbsrm::nhpp {

/// The gamma failure-time distribution of one fault: CDF, density,
/// survival, and interval mass — all parameterized by (alpha0, beta=rate).
struct GammaFailureLaw {
  double alpha0 = 1.0;

  double cdf(double t, double beta) const;
  double pdf(double t, double beta) const;
  double log_pdf(double t, double beta) const;
  double survival(double t, double beta) const;
  double log_survival(double t, double beta) const;
  /// G(b) - G(a) for 0 <= a < b, computed to preserve relative accuracy.
  double interval_mass(double a, double b, double beta) const;
  double log_interval_mass(double a, double b, double beta) const;
  /// E[T | a < T <= b] for T ~ Gamma(alpha0, beta); b may be +inf.
  double truncated_mean(double a, double b, double beta) const;
};

/// Per-rate table of incomplete-gamma values over a fixed, shared grid
/// of bin boundaries 0 < s_1 < ... < s_k.
///
/// Grouped-data hot paths (the VB2 fixed point above all) need, at one
/// rate beta, the interval masses G(s_i) - G(s_{i-1}) and truncated
/// means of every bin under both Gamma(alpha0, beta) and
/// Gamma(alpha0+1, beta).  Going through GammaFailureLaw evaluates each
/// interior boundary twice per law (once as the right edge of bin i,
/// once as the left edge of bin i+1) and pays a log/exp round trip plus
/// a fresh log-gamma normalizer inside every incomplete-gamma call.
/// This table evaluates each boundary exactly once per law with the
/// math::gamma_pq pair kernel (amortized log-gamma and log-boundary
/// values), then assembles bin masses with the same tail-aware
/// differencing branch as GammaFailureLaw::interval_mass.  Quantities
/// that underflow linear arithmetic (masses below ~1e-290) fall back to
/// the exact log-space GammaFailureLaw path, so results agree with the
/// naive evaluation to a few ulps everywhere.
class GroupedMassTable {
 public:
  /// `with_up_law = false` skips the Gamma(alpha0+1) table (only needed
  /// for truncated means), halving the pair-kernel work for callers
  /// that just difference masses.
  GroupedMassTable(double alpha0, std::vector<double> boundaries,
                   bool with_up_law = true);

  /// Recompute the per-boundary P/Q pairs at rate beta: one pair-kernel
  /// evaluation per boundary per law — or, for integral alpha0 <= 32
  /// (every named model in the paper), one Erlang survival sum costing
  /// a single exp for BOTH laws, since Q_{k+1}(x) = Q_k(x) + e^-x x^k/k!.
  void evaluate(double beta);

  double alpha0() const { return law_.alpha0; }
  double beta() const { return beta_; }
  std::size_t bins() const { return bounds_.size(); }

  /// Mass of bin i, (s_{i-1}, s_i], under Gamma(alpha0, beta).
  double interval_mass(std::size_t i) const;
  /// Same bin under Gamma(alpha0 + 1, beta).
  double interval_mass_up(std::size_t i) const;
  /// Survival Q(., beta * s_k) beyond the last boundary.
  double tail_survival() const { return q_.back(); }

  /// E[T | s_{i-1} < T <= s_i] for T ~ Gamma(alpha0, beta).
  double truncated_mean(std::size_t i) const;
  /// E[T | T > s_k].
  double tail_truncated_mean() const;

  /// log interval_mass(i), with the deep-tail fallback of
  /// GammaFailureLaw::log_interval_mass when the mass underflows.
  double log_interval_mass(std::size_t i) const;
  /// log Q(alpha0, beta * s_k), deep-tail safe.
  double log_tail_survival() const;

 private:
  double left_edge(std::size_t i) const { return i == 0 ? 0.0 : bounds_[i - 1]; }

  GammaFailureLaw law_;
  std::vector<double> bounds_;      // s_1 .. s_k
  std::vector<double> log_bounds_;  // log s_j, fixed per table
  double lgamma_a_ = 0.0;           // log Gamma(alpha0)
  double lgamma_up_ = 0.0;          // log Gamma(alpha0 + 1)
  double beta_ = 0.0;
  bool with_up_ = true;             // alpha0+1 law tabulated too
  int erlang_k_ = 0;                // alpha0 when integral <= 32, else 0
  // Per-boundary regularized incomplete gamma pairs at rate beta_.
  std::vector<double> p_, q_;        // law alpha0
  std::vector<double> p_up_, q_up_;  // law alpha0 + 1
};

/// A fully specified gamma-type NHPP model (parameter point).
class GammaTypeModel {
 public:
  GammaTypeModel(double alpha0, double omega, double beta);

  double alpha0() const { return law_.alpha0; }
  double omega() const { return omega_; }
  double beta() const { return beta_; }
  const GammaFailureLaw& law() const { return law_; }

  /// Mean value function Lambda(t) = omega * G(t).
  double mean_value(double t) const;
  /// Intensity lambda(t) = omega * g(t).
  double intensity(double t) const;
  /// Software reliability R(t+u | t) = exp(-(Lambda(t+u) - Lambda(t))),
  /// Eq. (3) of the paper.
  double reliability(double t, double u) const;

  std::string name() const;

 private:
  GammaFailureLaw law_;
  double omega_;
  double beta_;
};

/// Factories for the two named members of the family.
GammaTypeModel goel_okumoto(double omega, double beta);
GammaTypeModel delayed_s_shaped(double omega, double beta);

}  // namespace vbsrm::nhpp
