// Traced in-process replay.  Spans are recorded by the benchmark around
// calls into each layer's public functions; nothing inside the program is
// instrumented.  Fits and posterior functionals that run on other threads
// (BatchRunner cells, Service workers) are reached through traced method
// names registered with engine::register_method, whose factories time
// engine::make and wrap the estimator in a timing decorator.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "bench.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

namespace engine = vbsrm::engine;
namespace serve = vbsrm::serve;

constexpr const char* kTracedPrefix = "traced_";

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder's origin
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;  // position in the replayed stream
  std::int64_t call = -1;     // distinct document
  std::int64_t job = -1;      // one estimator: its fit and its functionals
  // Fit spans only: the estimator's own counts.
  double size = 0.0;          // VB2 n_max, NINT grid points or MCMC variates
  double iterations = 0.0;
  double components = 0.0;    // posterior mixture components (VB1/VB2)
};

/// Process-wide span sink.  The ordered replay publishes the request it is
/// on and the span that encloses work handed to other threads.
struct Recorder {
  std::atomic<bool> on{false};
  Clock::time_point t0 = Clock::now();
  std::atomic<std::int64_t> next_id{0};
  std::atomic<std::int64_t> next_job{0};
  std::atomic<std::int64_t> request{-1};
  std::atomic<std::int64_t> parent{-1};
  std::map<std::string, std::int64_t> calls;  // fingerprint -> call; read-only while replaying
  std::mutex mu;
  std::vector<Span> spans;

  double now() const { return seconds_between(t0, Clock::now()); }
};

Recorder& rec() {
  static Recorder r;
  return r;
}

thread_local std::vector<std::int64_t> t_stack;

/// One span, closed when the scope ends; a no-op with tracing off.
class Scope {
 public:
  Scope(std::string name, std::int64_t call, std::int64_t job = -1) {
    Recorder& r = rec();
    if (!r.on.load()) return;
    span_.name = std::move(name);
    span_.call = call;
    span_.job = job;
    span_.id = r.next_id.fetch_add(1);
    span_.parent = t_stack.empty() ? r.parent.load() : t_stack.back();
    span_.request = r.request.load();
    t_stack.push_back(span_.id);
    active_ = true;
    span_.start = r.now();
  }
  ~Scope() {
    if (!active_) return;
    Recorder& r = rec();
    span_.end = r.now();
    t_stack.pop_back();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.spans.push_back(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Span& span() { return span_; }
  std::int64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
};

std::string fingerprint(const engine::EstimatorRequest& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%d|%a|%zu|%a|%a|%a|%a|%a", r.grouped() ? 1 : 0,
                r.alpha0, r.failures(), r.horizon(), r.priors.omega.shape,
                r.priors.omega.rate, r.priors.beta.shape, r.priors.beta.rate);
  return buf;
}

std::int64_t call_of(const engine::EstimatorRequest& req) {
  const auto& calls = rec().calls;
  const auto it = calls.find(fingerprint(req));
  return it == calls.end() ? -1 : it->second;
}

/// Forwards every query to the fitted estimator inside a span named after
/// the layer that answers it: the gamma mixture for VB1/VB2, the method's
/// own posterior otherwise.  Its spans carry the job id of its fit, so the
/// Service::handle replay can tell apart two estimators of one document.
class TimedEstimator final : public engine::Estimator {
 public:
  TimedEstimator(std::unique_ptr<engine::Estimator> inner, std::int64_t call,
                 std::int64_t job)
      : inner_(std::move(inner)), call_(call), job_(job) {
    diag_ = inner_->diagnostics();
    prefix_ = inner_->mixture() != nullptr ? "mixture."
                                           : std::string(inner_->method()) + '.';
  }
  std::string_view method() const override { return inner_->method(); }
  vbsrm::bayes::PosteriorSummary summarize() const override {
    const Scope s(prefix_ + "summary", call_, job_);
    return inner_->summarize();
  }
  vbsrm::bayes::CredibleInterval interval_omega(double level) const override {
    const Scope s(prefix_ + "interval", call_, job_);
    return inner_->interval_omega(level);
  }
  vbsrm::bayes::CredibleInterval interval_beta(double level) const override {
    const Scope s(prefix_ + "interval", call_, job_);
    return inner_->interval_beta(level);
  }
  vbsrm::bayes::ReliabilityEstimate reliability(double u,
                                                double level) const override {
    const Scope s(prefix_ + "reliability", call_, job_);
    return inner_->reliability(u, level);
  }
  const vbsrm::core::GammaMixturePosterior* mixture() const override {
    return inner_->mixture();
  }

 private:
  std::unique_ptr<engine::Estimator> inner_;
  std::int64_t call_;
  std::int64_t job_;
  std::string prefix_;
};

void register_traced_methods() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const std::string& m : engine::registered_methods()) {
      engine::register_method(kTracedPrefix + m, [m](const engine::EstimatorRequest& req)
                                                     -> std::unique_ptr<engine::Estimator> {
        const std::int64_t call = call_of(req);
        const std::int64_t job = rec().next_job.fetch_add(1);
        std::unique_ptr<engine::Estimator> inner;
        {
          Scope s("engine.fit." + m, call, job);
          inner = engine::make(m, req);
          const engine::Diagnostics& d = inner->diagnostics();
          Span& span = s.span();
          if (m == "vb2") span.size = static_cast<double>(d.n_max_used);
          if (m == "nint") {
            span.size = static_cast<double>(d.grid_points_per_axis * d.grid_points_per_axis);
          }
          if (m == "mcmc") span.size = static_cast<double>(d.variates);
          span.iterations = static_cast<double>(d.iterations);
          if (inner->mixture() != nullptr) {
            span.components = static_cast<double>(inner->mixture()->components().size());
          }
        }
        return std::make_unique<TimedEstimator>(std::move(inner), call, job);
      });
    }
  });
}

/// `body` with its method name(s) swapped for the traced registrations.
std::string traced_body(const Call& c) {
  json::Value doc = json::parse(c.body);
  json::Value out = json::Value::object();
  for (const json::Member& m : doc.members()) {
    if (m.first == "method") {
      out["method"] = kTracedPrefix + m.second.as_string();
    } else if (m.first == "methods") {
      json::Value arr = json::Value::array();
      for (const json::Value& x : m.second.items()) arr.push_back(kTracedPrefix + x.as_string());
      out["methods"] = std::move(arr);
    } else {
      out[m.first] = m.second;
    }
  }
  return json::write(out);
}

struct Counts {
  std::size_t hits = 0, misses = 0, evictions = 0, body_bytes = 0;
};

/// One request in daemon order: wire parse, JSON parse, cache key, cache
/// lookup, fit + functionals + response document, cache insert, wire
/// serialization.  `traced` selects the traced method names (and so the
/// fit/functional spans); the serving-layer spans follow the recorder.
/// Returns whether the cache answered.
bool replay_one(const Call& c, const std::string& wire, serve::Service& keyer,
                serve::ResultCache& cache, unsigned batch_threads, bool traced,
                std::int64_t call, Counts& n) {
  const std::string prefix = traced ? kTracedPrefix : "";
  bool hit = false;
  serve::HttpRequest hreq;
  {
    const Scope s("http.parse", call);
    std::size_t consumed = 0;
    std::string err;
    if (serve::parse_http_request(wire, hreq, consumed, err) != serve::ParseStatus::Ok) {
      throw std::runtime_error("replay: unparsable request: " + err);
    }
  }
  {
    const Scope s("json.parse", call);
    (void)json::parse(hreq.body);
  }
  n.body_bytes += hreq.body.size();
  serve::Response resp;
  if (c.batch()) {
    engine::BatchSpec spec;
    for (const std::string& m : c.batch_methods) spec.methods.push_back(prefix + m);
    spec.requests.push_back(*c.request);
    spec.levels = c.batch_levels;
    spec.mcmc_seed_base = c.mcmc_seed_base;
    std::vector<engine::EstimationReport> reports;
    {
      Scope s("engine.batch", call);
      rec().parent.store(s.id());
      reports = engine::BatchRunner(batch_threads).run(spec);
      rec().parent.store(-1);
    }
    const Scope s("json.write", call);
    resp.body = batch_body(c, reports);
  } else {
    std::string key;
    {
      const Scope s("service.key", call);
      key = keyer.canonical_estimate_key(hreq.body);
    }
    std::optional<std::string> cached;
    {
      const Scope s("cache.get", call);
      cached = cache.get(key);
    }
    hit = cached.has_value();
    if (hit) {
      ++n.hits;
      resp.body = std::move(*cached);
      resp.headers.emplace_back("X-Cache", "hit");
    } else {
      ++n.misses;
      std::unique_ptr<engine::Estimator> est = engine::make(prefix + c.method, *c.request);
      {
        const Scope s("json.write", call);
        const serve::EstimateQuery q{c.method, c.level, c.windows};
        resp.body = json::write(serve::estimate_response(*est, q)) + '\n';
      }
      const std::size_t before = cache.size();
      {
        const Scope s("cache.put", call);
        cache.put(key, resp.body);
      }
      if (cache.size() == before) ++n.evictions;
      resp.headers.emplace_back("X-Cache", "miss");
    }
  }
  n.body_bytes += resp.body.size();
  const Scope s("http.serialize", call);
  (void)serve::serialize_response(resp, true);
  return hit;
}

/// Seconds of [start, end] covered by the union of `kids`.
double covered(std::vector<std::pair<double, double>> kids) {
  std::sort(kids.begin(), kids.end());
  double total = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : kids) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

std::string layer_of(const std::string& span) {
  if (span.rfind("http.", 0) == 0) return "serve/http";
  if (span.rfind("json.", 0) == 0) return "serve/json";
  if (span.rfind("service.", 0) == 0) return "serve/service";
  if (span.rfind("cache.", 0) == 0) return "serve/cache";
  if (span.rfind("mixture.", 0) == 0) return "core/gamma_mixture";
  if (span == "engine.fit.vb2") return "core/vb2";
  if (span == "engine.fit.vb1") return "core/vb1";
  if (span == "engine.batch") return "engine";
  if (span == "request") return "(no layer)";  // time between the layer spans
  return "bayes";  // NINT, Laplace, MCMC fits and functionals
}

void put_timing(TraceOutput& out, const std::string& name, const std::string& unit,
                const std::vector<double>& v) {
  const Timing t = summarize(v);
  out.metrics[name + ".p50"] = t.p50;
  out.units[name + ".p50"] = unit;
  out.metrics[name + ".p99"] = t.tail;
  out.units[name + ".p99"] = unit;
  out.metrics[name + ".count"] = static_cast<double>(t.n);
  out.units[name + ".count"] = "count";
}

void put_count(TraceOutput& out, const std::string& name, double v,
               const std::string& unit = "count") {
  out.metrics[name] = v;
  out.units[name] = unit;
}

}  // namespace

TraceOutput traced_replay(const Traffic& t, const DaemonFlags& flags,
                          unsigned client_threads, const std::string& trace_path) {
  register_traced_methods();
  Recorder& r = rec();
  r.calls.clear();
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    r.calls.emplace(fingerprint(*t.calls[i].request), static_cast<std::int64_t>(i));
  }
  std::vector<std::string> wires;
  for (const std::size_t ci : t.sequence) {
    wires.push_back(http_request("POST", t.calls[ci].target, t.calls[ci].body, true));
  }

  serve::ServiceOptions keyer_opt;
  keyer_opt.workers = 1;
  serve::Service keyer(keyer_opt);

  // cached_dashboard's stream repeats documents: warm both caches with the
  // documents it repeats, as the end-to-end run's warm-up does.
  const bool repeats = t.sequence.size() > t.calls.size() ||
                       std::set<std::size_t>(t.sequence.begin(), t.sequence.end()).size() <
                           t.sequence.size();
  std::vector<std::string> warm;
  if (repeats) {
    warm = expected_bodies(t.calls, std::vector<bool>(t.calls.size(), true),
                           flags.batch_threads, client_threads);
  }
  auto warm_cache = [&](serve::ResultCache& cache) {
    for (std::size_t i = 0; i < warm.size(); ++i) {
      cache.put(keyer.canonical_estimate_key(t.calls[i].body), warm[i]);
    }
  };

  // 1. Daemon-order replay, each request once untraced (plain method
  // names, no spans) and once traced, on caches of their own.  Timing the
  // two back to back, in alternating order, gives the tracing overhead per
  // request with the machine's drift mostly cancelled.
  Counts n, n_untraced;
  std::vector<bool> ordered_hit(t.sequence.size(), false);
  std::vector<double> extra_s;  // traced minus untraced, per request
  double untraced_s = 0.0, traced_s = 0.0;
  {
    serve::ResultCache plain_cache(flags.cache), traced_cache(flags.cache);
    warm_cache(plain_cache);
    warm_cache(traced_cache);
    r.spans.clear();
    for (std::size_t i = 0; i < t.sequence.size(); ++i) {
      const Call& c = t.calls[t.sequence[i]];
      const std::int64_t call = static_cast<std::int64_t>(t.sequence[i]);
      auto untraced = [&] {
        const Clock::time_point a = Clock::now();
        replay_one(c, wires[i], keyer, plain_cache, flags.batch_threads, false, -1,
                   n_untraced);
        return seconds_between(a, Clock::now());
      };
      auto traced = [&] {
        r.request.store(static_cast<std::int64_t>(i));
        r.on.store(true);
        const Clock::time_point a = Clock::now();
        {
          const Scope root("request", call);
          ordered_hit[i] = replay_one(c, wires[i], keyer, traced_cache, flags.batch_threads,
                                      true, call, n);
        }
        const double d = seconds_between(a, Clock::now());
        r.on.store(false);
        r.request.store(-1);
        return d;
      };
      double u = 0.0, tr = 0.0;
      if (i % 2 == 0) {
        u = untraced();
        tr = traced();
      } else {
        tr = traced();
        u = untraced();
      }
      untraced_s += u;
      traced_s += tr;
      extra_s.push_back(tr - u);
    }
  }
  std::vector<Span> ordered = std::move(r.spans);
  r.spans.clear();

  // 3. Concurrent replay through Service::handle with the daemon's flags.
  serve::ServiceOptions sopt;
  sopt.workers = flags.workers;
  sopt.queue_capacity = flags.queue;
  sopt.cache_capacity = flags.cache;
  sopt.batch_threads = flags.batch_threads;
  sopt.default_deadline_ms = flags.deadline_ms;
  serve::Service svc(sopt);
  std::vector<std::string> bodies;
  for (const Call& c : t.calls) bodies.push_back(traced_body(c));
  if (repeats) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned k = 0; k < client_threads; ++k) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < t.calls.size();) {
          (void)svc.handle(serve::Request{"POST", t.calls[i].target, bodies[i], 0.0});
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  std::vector<double> handle_start(t.sequence.size()), handle_end(t.sequence.size());
  std::vector<int> status(t.sequence.size());
  std::vector<bool> hit(t.sequence.size(), false);
  std::atomic<bool> done{false};
  std::size_t depth_max = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      depth_max = std::max(depth_max, svc.queue_depth());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  r.on.store(true);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned k = 0; k < client_threads; ++k) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < t.sequence.size();) {
          const std::size_t ci = t.sequence[i];
          handle_start[i] = r.now();
          const serve::Response resp =
              svc.handle(serve::Request{"POST", t.calls[ci].target, bodies[ci], 0.0});
          handle_end[i] = r.now();
          status[i] = resp.status;
          for (const auto& [k, v] : resp.headers) {
            if (k == "X-Cache" && v == "hit") hit[i] = true;
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  r.on.store(false);
  done.store(true);
  sampler.join();
  std::vector<Span> concurrent = std::move(r.spans);
  r.spans.clear();

  // --- per-layer metrics from the ordered replay ---------------------------
  TraceOutput out;
  std::map<std::int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : ordered) kids[s.parent].emplace_back(s.start, s.end);
  auto self_of = [&](const Span& s) {
    const auto it = kids.find(s.id);
    return (s.end - s.start) - (it == kids.end() ? 0.0 : covered(it->second));
  };
  std::map<std::string, std::vector<double>> by_name;  // span name -> ms
  std::map<std::string, double> layer_self;           // layer -> self seconds
  double root_total = 0.0, root_self = 0.0;
  double vb2_nmax = 0.0, vb2_iterations = 0.0, components = 0.0, grid_points = 0.0,
         variates = 0.0;
  for (const Span& s : ordered) {
    const double self = self_of(s);
    const double dur = s.end - s.start;
    layer_self[layer_of(s.name)] += self;
    if (s.name == "request") {
      root_total += dur;
      root_self += self;
      continue;
    }
    // json.write's children are the functionals it queries.
    by_name[s.name].push_back(1e3 * (s.name == "json.write" ? self : dur));
    if (s.name == "engine.fit.vb2") {
      vb2_nmax += s.size;
      vb2_iterations += s.iterations;
    }
    if (s.name == "engine.fit.nint") grid_points += s.size;
    if (s.name == "engine.fit.mcmc") variates += s.size;
    components += s.components;
  }
  // Serving work a request does inside Service::handle besides its fits
  // and functionals, from the ordered replay: the cache key (which parses
  // the body), the lookup and, on a miss, the response document and the
  // insert; a batch parses, runs BatchRunner and writes instead.  The wire
  // spans and an estimate's separate json.parse are not Service work.
  std::vector<double> serve_work(t.sequence.size(), 0.0);
  for (const Span& s : ordered) {
    if (s.request < 0) continue;
    const auto i = static_cast<std::size_t>(s.request);
    const bool batch = t.calls[t.sequence[i]].batch();
    if (s.name == "service.key" || s.name == "cache.get" || s.name == "cache.put" ||
        (batch && s.name == "json.parse")) {
      serve_work[i] += s.end - s.start;
    } else if (s.name == "json.write" || s.name == "engine.batch") {
      serve_work[i] += self_of(s);
    }
  }
  // Priced by document and cache outcome, since the Service's own cache
  // may hit where the ordered replay missed, and the other way round.
  std::map<std::pair<std::size_t, bool>, double> work_of;
  std::vector<double> hit_work, miss_work;
  for (std::size_t i = 0; i < t.sequence.size(); ++i) {
    work_of.emplace(std::make_pair(t.sequence[i], bool(ordered_hit[i])), serve_work[i]);
    (ordered_hit[i] ? hit_work : miss_work).push_back(serve_work[i]);
  }

  auto ms = [&](const std::string& span) { return by_name[span]; };
  auto us = [&](const std::string& span) {
    std::vector<double> v = by_name[span];
    for (double& x : v) x *= 1e3;
    return v;
  };
  put_timing(out, "http.parse_us", "us", us("http.parse"));
  put_timing(out, "http.serialize_us", "us", us("http.serialize"));
  put_timing(out, "json.parse_us", "us", us("json.parse"));
  put_timing(out, "json.write_us", "us", us("json.write"));
  put_timing(out, "service.key_us", "us", us("service.key"));
  put_timing(out, "cache.get_us", "us", us("cache.get"));
  put_timing(out, "cache.put_us", "us", us("cache.put"));
  for (const char* m : {"vb2", "vb1", "laplace", "nint", "mcmc"}) {
    put_timing(out, std::string("engine.fit_ms.") + m, "ms", ms(std::string("engine.fit.") + m));
  }
  put_timing(out, "engine.batch_ms", "ms", ms("engine.batch"));
  put_timing(out, "mixture.interval_ms", "ms", ms("mixture.interval"));
  put_timing(out, "mixture.reliability_ms", "ms", ms("mixture.reliability"));
  put_count(out, "json.body_bytes", static_cast<double>(n.body_bytes), "bytes");
  put_count(out, "vb2.n_max_used", vb2_nmax);
  put_count(out, "vb2.iterations", vb2_iterations);
  put_count(out, "mixture.components", components);
  put_count(out, "nint.grid_points", grid_points);
  put_count(out, "mcmc.variates", variates);
  put_count(out, "cache.hits", static_cast<double>(n.hits));
  put_count(out, "cache.lookups", static_cast<double>(n.hits + n.misses));
  put_count(out, "cache.hit_ratio",
            n.hits + n.misses == 0 ? 0.0
                                   : static_cast<double>(n.hits) / static_cast<double>(n.hits + n.misses),
            "ratio");
  put_count(out, "cache.evictions", static_cast<double>(n.evictions));

  // --- Service::handle replay: queue wait = handle minus its work ---------
  // The spans of one estimator share a job id.  A request owns the jobs of
  // its document that ran inside its handle() call: an estimate the
  // earliest unowned one (the queue is FIFO), a batch all of its cells.
  struct Job {
    std::int64_t call = -1;
    double start = 0.0, end = 0.0;
    std::vector<std::pair<double, double>> spans;
    bool owned = false;
  };
  std::map<std::int64_t, Job> jobs;
  for (const Span& s : concurrent) {
    if (s.job < 0) continue;
    Job& j = jobs[s.job];
    j.start = j.spans.empty() ? s.start : std::min(j.start, s.start);
    j.end = j.spans.empty() ? s.end : std::max(j.end, s.end);
    j.call = s.call;
    j.spans.emplace_back(s.start, s.end);
  }
  std::map<std::int64_t, std::vector<Job*>> jobs_of_call;
  for (auto& [id, j] : jobs) jobs_of_call[j.call].push_back(&j);
  for (auto& [c, v] : jobs_of_call) {
    std::sort(v.begin(), v.end(), [](const Job* a, const Job* b) { return a->start < b->start; });
  }
  std::vector<std::size_t> by_start(t.sequence.size());
  for (std::size_t i = 0; i < by_start.size(); ++i) by_start[i] = i;
  std::sort(by_start.begin(), by_start.end(),
            [&](std::size_t a, std::size_t b) { return handle_start[a] < handle_start[b]; });

  const double hit_median = percentile(hit_work, 0.5);
  const double miss_median = percentile(miss_work, 0.5);
  std::vector<double> handle_ms, wait_ms;
  std::size_t rejected = 0, deadline = 0, hits = 0, priced_by_median = 0, jobless = 0;
  double handle_total = 0.0, fit_total = 0.0, serving_total = 0.0;
  for (const std::size_t i : by_start) {
    const std::size_t ci = t.sequence[i];
    const bool batch = t.calls[ci].batch();
    std::vector<std::pair<double, double>> inside;
    for (Job* j : jobs_of_call[static_cast<std::int64_t>(ci)]) {
      if (j->owned || j->start < handle_start[i] || j->end > handle_end[i]) continue;
      j->owned = true;
      inside.insert(inside.end(), j->spans.begin(), j->spans.end());
      if (!batch) break;
    }
    if (!hit[i] && inside.empty()) ++jobless;
    const auto w = work_of.find({ci, bool(hit[i])});
    if (w == work_of.end()) ++priced_by_median;
    const double serving = w != work_of.end() ? w->second : hit[i] ? hit_median : miss_median;
    const double h = handle_end[i] - handle_start[i];
    const double fit = covered(inside);
    handle_total += h;
    fit_total += fit;
    serving_total += serving;
    handle_ms.push_back(1e3 * h);
    wait_ms.push_back(1e3 * (h - fit - serving));  // signed: never clamped
    hits += hit[i] ? 1 : 0;
    if (status[i] == 503) ++rejected;
    if (status[i] == 504) ++deadline;
  }
  std::size_t orphans = 0;
  for (const auto& [id, j] : jobs) orphans += j.owned ? 0 : 1;
  put_timing(out, "service.handle_ms", "ms", handle_ms);
  put_timing(out, "service.queue_wait_ms", "ms", wait_ms);
  put_count(out, "service.queue_depth_max", static_cast<double>(depth_max));
  put_count(out, "service.rejected_503", static_cast<double>(rejected));
  put_count(out, "service.deadline_504", static_cast<double>(deadline));

  // Tracing overhead with its noise: three standard errors of the sum of
  // the per-request differences.
  double mean_extra = 0.0, var_extra = 0.0;
  for (const double d : extra_s) mean_extra += d / static_cast<double>(extra_s.size());
  for (const double d : extra_s) var_extra += (d - mean_extra) * (d - mean_extra);
  if (extra_s.size() > 1) var_extra /= static_cast<double>(extra_s.size() - 1);
  const double overhead_s = traced_s - untraced_s;
  const double noise_s = 3.0 * std::sqrt(var_extra * static_cast<double>(extra_s.size()));
  const double overhead = untraced_s > 0.0 ? overhead_s / untraced_s : 0.0;
  const double unattributed = root_total > 0.0 ? root_self / root_total : 0.0;
  const double residual_total = handle_total - fit_total - serving_total;
  put_count(out, "trace.overhead_pct", 100.0 * overhead, "%");
  put_count(out, "trace.unattributed_pct", 100.0 * unattributed, "%");
  put_count(out, "trace.residual_pct",
            handle_total > 0.0 ? 100.0 * residual_total / handle_total : 0.0, "%");

  // --- summary lines and the span file -------------------------------------
  double layer_total = 0.0;
  for (const auto& [layer, s] : layer_self) layer_total += s;
  char line[512];
  for (const auto& [layer, s] : layer_self) {
    std::snprintf(line, sizeof(line), "self time %-20s %10.3f ms  %5.1f%%", layer.c_str(),
                  1e3 * s, layer_total > 0 ? 100.0 * s / layer_total : 0.0);
    out.summary_lines.push_back(line);
  }
  std::snprintf(line, sizeof(line),
                "ordered replay: untraced %.3f s, traced %.3f s: tracing overhead %+.3f ms "
                "(%+.2f%%, noise +-%.3f ms); request time outside every layer span %.3f ms",
                untraced_s, traced_s, 1e3 * overhead_s, 100.0 * overhead, 1e3 * noise_s,
                1e3 * root_self);
  out.summary_lines.push_back(line);
  std::snprintf(line, sizeof(line),
                "Service::handle replay: %zu requests (%zu cache hits), handle %.3f ms = "
                "fits and functionals %.3f ms + serving work %.3f ms + residual %+.3f ms "
                "(queue wait and dispatch: service.queue_wait_ms)",
                handle_ms.size(), hits, 1e3 * handle_total, 1e3 * fit_total,
                1e3 * serving_total, 1e3 * residual_total);
  out.summary_lines.push_back(line);
  std::snprintf(line, sizeof(line),
                "  attribution: %zu misses with no fit inside their handle, %zu fits owned "
                "by no request, %zu requests priced by the median of their cache outcome",
                jobless, orphans, priced_by_median);
  out.summary_lines.push_back(line);
  out.residual_ms = 1e3 * residual_total;
  out.unattributed_ms = 1e3 * root_self;
  out.overhead_ms = 1e3 * overhead_s;
  out.overhead_noise_ms = 1e3 * noise_s;
  out.attributed = jobless == 0 && orphans == 0;

  std::ofstream f(trace_path);
  auto dump = [&](const std::vector<Span>& spans, const char* phase) {
    for (const Span& s : spans) {
      json::Value v = json::Value::object();
      v["phase"] = phase;
      v["name"] = s.name;
      v["start_s"] = s.start;
      v["end_s"] = s.end;
      v["id"] = s.id;
      v["parent"] = s.parent;
      v["request"] = s.request;
      v["call"] = s.call;
      v["job"] = s.job;
      f << json::write(v) << '\n';
    }
  };
  dump(ordered, "ordered");
  dump(concurrent, "concurrent");
  for (std::size_t i = 0; i < handle_ms.size(); ++i) {
    json::Value v = json::Value::object();
    v["phase"] = "concurrent";
    v["name"] = "service.handle";
    v["start_s"] = handle_start[i];
    v["end_s"] = handle_end[i];
    v["request"] = i;
    v["call"] = t.sequence[i];
    f << json::write(v) << '\n';
  }
  return out;
}

}  // namespace perfbench
