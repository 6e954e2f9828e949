// Statistics helpers, seeded traffic generators and configuration.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/gamma_mixture.hpp"
#include "data/simulate.hpp"

namespace perfbench {

using vbsrm::random::Rng;

// --- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps q = k/n from rounding up to rank k + 1.
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double tail_quantile(std::size_t n) {
  if (n == 0) return 0.5;
  const double q = (static_cast<double>(n) - 10.0) / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.99);
}

Timing summarize(const std::vector<double>& v) {
  Timing t;
  t.n = v.size();
  t.tail_q = tail_quantile(v.size());
  t.p50 = percentile(v, 0.5);
  t.tail = percentile(v, t.tail_q);
  return t;
}

double generator_lateness(double due_s, double picked_s, double start_s) {
  return std::max(0.0, start_s - std::max(due_s, picked_s));
}

std::size_t backlog_at(const std::vector<double>& due_s,
                       const std::vector<double>& start_s, double t_s) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    if (due_s[i] <= t_s && (i >= start_s.size() || start_s[i] > t_s)) ++n;
  }
  return n;
}

std::vector<double> poisson_arrivals(Rng& rng, double rate, std::size_t count) {
  std::vector<double> out;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(rng.next_open()) / rate;
    out.push_back(t);
  }
  return out;
}

std::size_t whole_blocks(double requests) {
  const double blocks = std::round(requests / static_cast<double>(kDesignBlock));
  return static_cast<std::size_t>(std::max(1.0, blocks)) * kDesignBlock;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::rank_at(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(cdf_.size() - 1,
                  static_cast<std::size_t>(it - cdf_.begin()));
}

std::vector<std::size_t> Zipf::stratified(Rng& rng, std::size_t count) const {
  std::vector<std::size_t> out;
  const double offset = rng.next_double();
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(rank_at((static_cast<double>(k) + offset) / static_cast<double>(count)));
  }
  for (std::size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.next_below(i)]);
  return out;
}

// --- configuration ------------------------------------------------------------

namespace {

double num(const json::Value& o, const char* key) {
  const json::Value* v = o.find(key);
  if (v == nullptr || !v->is_number()) {
    throw std::runtime_error(std::string("config: missing number \"") + key + '"');
  }
  return v->as_number();
}

double num_or(const json::Value& o, const char* key, double dflt) {
  const json::Value* v = o.find(key);
  return v != nullptr ? v->as_number() : dflt;
}

std::vector<double> nums(const json::Value& o, const char* key) {
  std::vector<double> out;
  if (const json::Value* v = o.find(key)) {
    for (const json::Value& x : v->items()) out.push_back(x.as_number());
  }
  return out;
}

}  // namespace

Config load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());

  Config c;
  const json::Value& d = *doc.find("daemon");
  c.daemon.workers = static_cast<unsigned>(num(d, "workers"));
  c.daemon.queue = static_cast<std::size_t>(num(d, "queue"));
  c.daemon.cache = static_cast<std::size_t>(num(d, "cache"));
  c.daemon.batch_threads = static_cast<unsigned>(num(d, "batch_threads"));
  c.daemon.deadline_ms = num(d, "deadline_ms");
  c.run_seconds = num(doc, "run_seconds");

  for (const json::Member& m : doc.find("workloads")->members()) {
    const json::Value& o = m.second;
    WorkloadConfig w;
    w.name = m.first;
    w.loop = o.find("loop")->as_string();
    w.rate_rps = num_or(o, "rate_rps", 0.0);
    w.ladder_rps = nums(o, "ladder_rps");
    w.latency_limit_ms = num(o, "latency_limit_ms");
    w.connections = static_cast<unsigned>(num(o, "connections"));
    w.fresh_connection_share = num_or(o, "fresh_connection_share", 0.0);
    w.min_failures = static_cast<std::size_t>(num(o, "min_failures"));
    w.max_failures = static_cast<std::size_t>(num(o, "max_failures"));
    for (const double n : nums(o, "window_counts")) {
      w.window_counts.push_back(static_cast<unsigned>(n));
    }
    w.working_set = static_cast<std::size_t>(num_or(o, "working_set", 0));
    w.warm_repeats = static_cast<std::size_t>(num_or(o, "warm_repeats", 0));
    if (const json::Value* f = o.find("failure_times_only")) w.failure_times_only = f->as_bool();
    w.zipf_s = num_or(o, "zipf_s", 0.0);
    w.fixed_requests = static_cast<std::size_t>(num_or(o, "fixed_requests", 0));
    w.rounds = static_cast<std::size_t>(num_or(o, "rounds", 1));
    w.saturation_requests = static_cast<std::size_t>(num_or(o, "saturation_requests", 0));
    w.pairs = static_cast<std::size_t>(num_or(o, "pairs", 0));
    w.trace_requests = static_cast<std::size_t>(num(o, "trace_requests"));
    if (const json::Value* mix = o.find("method_mix")) {
      for (const json::Member& mm : mix->members()) {
        w.method_mix[mm.first] = mm.second.as_number();
      }
    }
    if (const json::Value* bm = o.find("batch_methods")) {
      for (const json::Value& x : bm->items()) w.batch_methods.push_back(x.as_string());
    }
    w.batch_levels = nums(o, "batch_levels");
    w.mcmc_samples = static_cast<std::uint64_t>(num_or(o, "mcmc_samples", 0));
    w.mcmc_burn_in = static_cast<std::uint64_t>(num_or(o, "mcmc_burn_in", 0));
    w.mcmc_thin = static_cast<std::uint64_t>(num_or(o, "mcmc_thin", 1));
    c.workloads[w.name] = std::move(w);
  }
  return c;
}

// --- request documents ------------------------------------------------------

std::size_t Call::cells() const {
  return batch() ? batch_methods.size() * batch_levels.size() : 1;
}

namespace {

namespace vd = vbsrm::data;
using vbsrm::bayes::GammaPrior;
using vbsrm::bayes::PriorPair;
using vbsrm::engine::EstimatorRequest;

double uniform(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.next_double();
}

json::Value array_of(const std::vector<double>& xs) {
  json::Value a = json::Value::array();
  for (const double x : xs) a.push_back(x);
  return a;
}

json::Value prior_json(const GammaPrior& p) {
  json::Value v = json::Value::object();
  v["shape"] = p.shape;
  v["rate"] = p.rate;
  return v;
}

/// Informative gamma prior centred near `truth` with coefficient of
/// variation `cv` (the paper's Info scenario: a good guess, not the truth).
GammaPrior informative(Rng& rng, double truth, double cv) {
  const double mean = truth * uniform(rng, 0.9, 1.1);
  const double sd = cv * mean;
  return GammaPrior{(mean / sd) * (mean / sd), mean / (sd * sd)};
}

/// One gamma-type NHPP dataset with failures in [lo, hi], about `size_u`
/// of the way through that range; writes the
/// "alpha0"/"data"/"priors" members into `doc` and returns the request the
/// daemon must decode from them.
std::shared_ptr<EstimatorRequest> dataset(Rng& rng, std::size_t lo,
                                          std::size_t hi, double size_u,
                                          bool grouped, double alpha0, bool info,
                                          json::Value& doc, double& te_out) {
  const double n_target =
      static_cast<double>(lo) + size_u * static_cast<double>(hi - lo);
  for (;;) {
    const double beta = 1e-3 * std::exp(uniform(rng, -0.35, 0.35));
    const double p = uniform(rng, 0.75, 0.9);
    const double te = vbsrm::core::GammaParams{alpha0, beta}.quantile(p);
    const double omega = n_target / p;

    // Data first, priors after: the same generator state yields the same
    // dataset under Info and NoInfo priors.
    std::optional<vd::GroupedData> g;
    std::optional<vd::FailureTimeData> f;
    std::size_t failures = 0;
    if (grouped) {
      const std::size_t k = 10 + rng.next_below(21);
      g = vd::simulate_gamma_nhpp_grouped(rng, omega, alpha0, beta, te, k);
      failures = g->total_failures();
    } else {
      f = vd::simulate_gamma_nhpp(rng, omega, alpha0, beta, te);
      failures = f->count();
    }
    if (failures < lo || failures > hi) continue;

    PriorPair priors = PriorPair::flat();
    if (info) {
      priors.omega = informative(rng, omega, 0.25);
      priors.beta = informative(rng, beta, 0.5);
    }
    json::Value data = json::Value::object();
    std::shared_ptr<EstimatorRequest> req;
    if (g) {
      data["type"] = "grouped";
      data["boundaries"] = array_of(g->boundaries());
      json::Value counts = json::Value::array();
      for (const std::size_t c : g->counts()) counts.push_back(c);
      data["counts"] = std::move(counts);
      req = std::make_shared<EstimatorRequest>(alpha0, std::move(*g), priors);
    } else {
      data["type"] = "failure_times";
      data["times"] = array_of(f->times());
      data["observation_end"] = f->observation_end();
      req = std::make_shared<EstimatorRequest>(alpha0, std::move(*f), priors);
    }
    doc["alpha0"] = alpha0;
    doc["data"] = std::move(data);
    if (info) {
      json::Value pj = json::Value::object();
      pj["omega"] = prior_json(priors.omega);
      pj["beta"] = prior_json(priors.beta);
      doc["priors"] = std::move(pj);
    }
    te_out = te;
    return req;
  }
}

const double kLevels[] = {0.9, 0.95, 0.99};

/// A fixed design of request properties, replayed in blocks.  Every block
/// of kBlock requests holds each (method slot x data type x alpha0)
/// combination once, with the dataset size strata spread across them by a
/// fixed stride; only the order within a block, the position inside each
/// size stratum and the simulated data are drawn from the seed.  Seeds
/// thus change which datasets are sent, not how much work a run holds.
class Strata {
 public:
  static constexpr std::size_t kSlots = 10;  // method deck size
  static constexpr std::size_t kBlock = kDesignBlock;
  static_assert(kBlock == kSlots * 4);

  explicit Strata(const WorkloadConfig& w) : w_(w) {
    // Method deck: largest-remainder apportionment of the mix weights.
    double total = 0.0;
    for (const auto& [m, weight] : w_.method_mix) total += weight;
    std::vector<std::pair<double, std::string>> rest;
    for (const auto& [m, weight] : w_.method_mix) {
      const double share = weight / total * kSlots;
      deck_.insert(deck_.end(), static_cast<std::size_t>(share), m);
      rest.emplace_back(share - std::floor(share), m);
    }
    std::sort(rest.begin(), rest.end(), std::greater<>());
    for (std::size_t i = 0; deck_.size() < kSlots; ++i) deck_.push_back(rest[i].second);
  }

  struct Draw {
    std::string method;
    double level = 0.99;
    bool grouped = false;
    double alpha0 = 1.0;
    double size_u = 0.5;
    unsigned windows = 0;
  };

  Draw next(Rng& rng) {
    if (pos_ == 0) {
      order_.resize(kBlock);
      for (std::size_t k = 0; k < kBlock; ++k) order_[k] = k;
      for (std::size_t i = kBlock; i > 1; --i) std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
    const std::size_t k = order_[pos_];
    pos_ = (pos_ + 1) % kBlock;
    Draw d;
    d.method = deck_[k % kSlots];
    d.grouped = !w_.failure_times_only && (k / kSlots) % 2 == 1;
    d.alpha0 = (k / (2 * kSlots)) % 2 == 0 ? 1.0 : 2.0;
    d.level = kLevels[k % 3];
    const std::size_t stratum = (k * 17) % kBlock;  // 17 is coprime to 40
    d.size_u = (static_cast<double>(stratum) + rng.next_double()) / kBlock;
    if (!w_.window_counts.empty()) {
      d.windows = w_.window_counts[(k + k / kSlots) % w_.window_counts.size()];
    }
    return d;
  }

 private:
  const WorkloadConfig& w_;
  std::vector<std::string> deck_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

Call estimate_call(const WorkloadConfig& w, Strata& strata, Rng& rng) {
  const Strata::Draw d = strata.next(rng);
  Call c;
  c.target = "/v1/estimate";
  c.method = d.method;
  c.level = d.level;
  json::Value doc = json::Value::object();
  doc["method"] = c.method;
  doc["level"] = c.level;
  double te = 0.0;
  c.request = dataset(rng, w.min_failures, w.max_failures, d.size_u, d.grouped,
                      d.alpha0, /*info=*/true, doc, te);
  for (unsigned i = 0; i < d.windows; ++i) c.windows.push_back(te * uniform(rng, 0.1, 0.4));
  if (!c.windows.empty()) doc["reliability_windows"] = array_of(c.windows);
  c.body = json::write(doc);
  return c;
}

}  // namespace

Generator::Generator(const WorkloadConfig& w, std::uint64_t seed)
    : w_(w), root_(seed) {}

void Generator::add_schedule(Traffic& t, Rng& rng, double rate,
                             std::size_t count) const {
  t.due_s = poisson_arrivals(rng, rate, count);
  for (std::size_t i = 0; i < t.due_s.size(); ++i) {
    t.fresh.push_back(rng.next_double() < w_.fresh_connection_share);
  }
}

Traffic Generator::distinct(std::uint64_t stream, double rate, std::size_t count) {
  Rng rng = root_.split(stream);
  Traffic t;
  if (rate > 0.0) add_schedule(t, rng, rate, count);
  Strata strata(w_);
  for (std::size_t i = 0; i < count; ++i) {
    t.calls.push_back(estimate_call(w_, strata, rng));
    t.sequence.push_back(i);
  }
  return t;
}

Traffic Generator::working_set() {
  Rng rng = root_.split(0xD45B);
  Traffic t;
  Strata strata(w_);
  for (std::size_t i = 0; i < w_.working_set; ++i) {
    t.calls.push_back(estimate_call(w_, strata, rng));
    t.sequence.push_back(i);
  }
  return t;
}

Traffic Generator::repeats(const Traffic& set, std::uint64_t stream,
                           double rate, std::size_t count) {
  Rng rng = root_.split(stream);
  Traffic t;
  t.calls = set.calls;
  if (rate > 0.0) add_schedule(t, rng, rate, count);
  // Popularity rank r is document r.  The working set is built in design
  // blocks in a seeded order, so every run of 40 ranks holds each design
  // combination once: the hot documents differ by seed, but the mix of
  // methods and sizes among the hot and the cold ones does not.
  t.sequence = Zipf(set.calls.size(), w_.zipf_s).stratified(rng, count);
  return t;
}

Traffic Generator::resend(const Traffic& pool, std::uint64_t stream, double rate,
                          std::size_t first, std::size_t count) {
  if (first + count > pool.calls.size()) {
    throw std::invalid_argument("config: the ladder needs more documents than the "
                                "fixed-rate and saturation phases hold");
  }
  Rng rng = root_.split(stream);
  Traffic t;
  t.calls = pool.calls;
  add_schedule(t, rng, rate, count);
  for (std::size_t i = 0; i < count; ++i) t.sequence.push_back(first + i);
  return t;
}

Traffic Generator::grid(std::uint64_t stream, std::size_t pairs) {
  Rng rng = root_.split(stream);
  Traffic t;
  // Dataset sizes are stratified over the pairs, in a seeded order.
  std::vector<std::size_t> stratum(pairs);
  for (std::size_t p = 0; p < pairs; ++p) stratum[p] = p;
  for (std::size_t p = pairs; p > 1; --p) std::swap(stratum[p - 1], stratum[rng.next_below(p)]);
  for (std::size_t p = 0; p < pairs; ++p) {
    const bool grouped = p % 2 == 1;
    const double alpha0 = (p / 2) % 2 == 0 ? 1.0 : 2.0;
    const double size_u = (static_cast<double>(stratum[p]) + rng.next_double()) /
                          static_cast<double>(pairs);
    const Rng data_rng = rng.split(p);
    for (const bool info : {true, false}) {
      // Same dataset under both priors: the paper's Info/NoInfo protocol.
      Rng r = data_rng;
      Call c;
      c.target = "/v1/batch";
      c.method = "batch";
      c.batch_methods = w_.batch_methods;
      c.batch_levels = w_.batch_levels;
      c.mcmc_seed_base = 1 + rng.next_below(std::uint64_t{1} << 40);
      json::Value doc = json::Value::object();
      json::Value methods = json::Value::array();
      for (const std::string& m : c.batch_methods) methods.push_back(m);
      doc["methods"] = std::move(methods);
      doc["levels"] = array_of(c.batch_levels);
      double te = 0.0;
      std::shared_ptr<EstimatorRequest> req =
          dataset(r, w_.min_failures, w_.max_failures, size_u, grouped, alpha0, info, doc, te);
      json::Value mcmc = json::Value::object();
      mcmc["burn_in"] = w_.mcmc_burn_in;
      mcmc["thin"] = w_.mcmc_thin;
      mcmc["samples"] = w_.mcmc_samples;
      req->mcmc.base.burn_in = static_cast<std::size_t>(w_.mcmc_burn_in);
      req->mcmc.base.thin = static_cast<std::size_t>(w_.mcmc_thin);
      req->mcmc.base.samples = static_cast<std::size_t>(w_.mcmc_samples);
      doc["mcmc"] = std::move(mcmc);
      doc["mcmc_seed_base"] = c.mcmc_seed_base;
      c.request = std::move(req);
      c.body = json::write(doc);
      t.sequence.push_back(t.calls.size());
      t.calls.push_back(std::move(c));
    }
  }
  return t;
}

}  // namespace perfbench
