// Serving benchmark for vbsrm_serve: shared declarations.
//
// The driver (main.cpp) spawns the daemon, replays seeded open- and
// closed-loop traffic over real sockets, checks every answer against an
// in-process recomputation, and prints the metrics as one JSON line.  A
// traced run (--trace 1) replays the same request stream in-process
// through the serving layers' public functions and reports per-layer
// timings and counts instead.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/batch.hpp"
#include "engine/estimator.hpp"
#include "random/rng.hpp"
#include "serve/json.hpp"

namespace perfbench {

namespace json = vbsrm::serve::json;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics (stats in gen.cpp) ------------------------------------------

/// Nearest-rank percentile of `v` (copied and sorted); 0 when empty.
double percentile(std::vector<double> v, double q);

/// The reported tail percentile for `n` samples: 0.99 when at least ten
/// samples lie beyond it, else the highest percentile that still has ten
/// samples beyond it, never below the median.
double tail_quantile(std::size_t n);

/// Summary of one timing sample set: p50, the tail (p99 or the rule's
/// fallback, with the percentile actually used) and the base count.
struct Timing {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  std::size_t n = 0;
};
Timing summarize(const std::vector<double>& v);

/// How late the generator itself ran for one open-loop request: the send
/// time minus the later of the due time and the moment the sending thread
/// was free to take it.  A busy connection is the server's delay (it is
/// in the request's latency), not the generator's.
double generator_lateness(double due_s, double picked_s, double start_s);

/// Requests due by `t_s` that had not been sent by then.
std::size_t backlog_at(const std::vector<double>& due_s,
                       const std::vector<double>& start_s, double t_s);

// --- seeded generators ----------------------------------------------------

/// The first `count` arrival offsets (seconds) of a Poisson process at
/// `rate`: a fixed sample count, so the reported percentiles are fixed too.
std::vector<double> poisson_arrivals(vbsrm::random::Rng& rng, double rate,
                                     std::size_t count);

/// Requests per design block: every block holds each combination of
/// method slot, data type and alpha0 once (see Strata in gen.cpp).
constexpr std::size_t kDesignBlock = 40;

/// `requests` rounded to whole design blocks, at least one.
std::size_t whole_blocks(double requests);

/// Zipf(s) ranks over {0, .., n-1}, rank 0 most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// `count` ranks, each appearing its expected number of times give or
  /// take one (systematic sampling of the CDF from one seeded offset), in
  /// a seeded order.  A phase thus holds the same amount of cold-document
  /// traffic whatever the seed.
  std::vector<std::size_t> stratified(vbsrm::random::Rng& rng, std::size_t count) const;

 private:
  std::size_t rank_at(double u) const;
  std::vector<double> cdf_;
};

// --- configuration (perfbench/config.json) ---------------------------------

struct DaemonFlags {
  unsigned workers = 4;
  std::size_t queue = 64;
  std::size_t cache = 256;
  unsigned batch_threads = 4;
  double deadline_ms = 30000.0;
};

struct WorkloadConfig {
  std::string name;
  std::string loop;  // "open" (Poisson arrivals) or "closed" (paper_grid)
  double rate_rps = 0.0;                 // fixed offered rate (open)
  std::vector<double> ladder_rps;        // rate_at_slo ladder (open)
  double latency_limit_ms = 0.0;         // tail limit at every rate
  unsigned connections = 4;              // sending connections, every phase
  double fresh_connection_share = 0.0;   // requests on a new connection
  std::size_t min_failures = 20;
  std::size_t max_failures = 400;
  // Reliability windows per request, dealt evenly over each design block.
  // Request cost grows in steps with the count, so the deck keeps a step
  // away from the median and the reported tail.
  std::vector<unsigned> window_counts;
  std::size_t working_set = 0;           // cached_dashboard: distinct bodies
  std::size_t warm_repeats = 0;          // cached_dashboard: Zipf warm-up requests
  bool failure_times_only = false;       // no grouped datasets (large bodies)
  double zipf_s = 0.0;
  std::size_t fixed_requests = 0;        // fixed-rate phase length (open)
  std::size_t rounds = 1;                // fixed-rate rounds it is cut into
  std::size_t saturation_requests = 0;   // closed-loop phase length (open)
  std::size_t pairs = 0;                 // paper_grid: Info+NoInfo pairs sent
  std::size_t trace_requests = 0;        // traced replay length cap
  std::map<std::string, double> method_mix;  // estimate method -> weight
  std::vector<std::string> batch_methods;    // paper_grid
  std::vector<double> batch_levels;
  std::uint64_t mcmc_samples = 0, mcmc_burn_in = 0, mcmc_thin = 1;
};

struct Config {
  DaemonFlags daemon;
  double run_seconds = 0.0;              // the one run length measured
  std::map<std::string, WorkloadConfig> workloads;
};

Config load_config(const std::string& path);

// --- request documents ------------------------------------------------------

/// One distinct request document plus what the oracle and the traced run
/// need to recompute it without going through the daemon's decoder.
struct Call {
  std::string target;  // "/v1/estimate" or "/v1/batch"
  std::string body;
  std::string method;  // estimate method, or "batch"
  double level = 0.99;
  std::vector<double> windows;
  std::vector<std::string> batch_methods;
  std::vector<double> batch_levels;
  std::uint64_t mcmc_seed_base = 0;
  std::shared_ptr<const vbsrm::engine::EstimatorRequest> request;

  bool batch() const { return target == "/v1/batch"; }
  /// (method x level) cells this call completes.
  std::size_t cells() const;
};

/// A request stream: distinct documents and the order they are sent in.
struct Traffic {
  std::vector<Call> calls;
  std::vector<std::size_t> sequence;  // index into calls, per request
  std::vector<double> due_s;          // open loop: send offsets
  std::vector<bool> fresh;            // open loop: new connection per request
};

/// Deterministic generator of every request stream of one run.  Streams
/// are split by purpose, so adding a phase never perturbs another.
class Generator {
 public:
  Generator(const WorkloadConfig& w, std::uint64_t seed);

  /// `count` distinct datasets (every request its own document) with
  /// Poisson arrivals at `rate`; `rate == 0` leaves them unscheduled
  /// (closed loop).
  Traffic distinct(std::uint64_t stream, double rate, std::size_t count);
  /// The cached_dashboard working set (every document once).
  Traffic working_set();
  /// `count` Zipf-skewed repeats over `set`'s documents with Poisson
  /// arrivals at `rate`; `rate == 0` leaves them unscheduled.
  Traffic repeats(const Traffic& set, std::uint64_t stream, double rate,
                  std::size_t count);
  /// Documents [first, first + count) of `pool`, each sent once, with
  /// Poisson arrivals at `rate`.
  Traffic resend(const Traffic& pool, std::uint64_t stream, double rate,
                 std::size_t first, std::size_t count);
  /// paper_grid: `pairs` datasets, each as an Info then a NoInfo batch.
  Traffic grid(std::uint64_t stream, std::size_t pairs);

 private:
  void add_schedule(Traffic& t, vbsrm::random::Rng& rng, double rate,
                    std::size_t count) const;

  const WorkloadConfig& w_;
  vbsrm::random::Rng root_;
};

// --- HTTP client and daemon control (net.cpp) -------------------------------

struct Reply {
  int status = 0;  // 0 = transport error
  std::string body;
  bool closes = false;  // server sent Connection: close
};

/// Wire bytes of one request as the load generator sends it.
std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body, bool keep_alive);

/// A blocking loopback connection; reconnects lazily.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send `wire`, read one response.  Transport errors give status 0 and
  /// close the socket.  `opened` counts new sockets.  For up to `spin`
  /// after sending, the reply is polled for without sleeping, so that a
  /// fast reply is not delayed by this thread's wake-up.
  Reply exchange(const std::string& wire, Clock::duration spin = Clock::duration::zero());
  void close();
  std::size_t opened() const { return opened_; }

 private:
  bool ensure_open();
  int port_;
  int fd_ = -1;
  std::size_t opened_ = 0;
};

/// One request on a fresh connection (used for /healthz and /metrics).
Reply fetch(int port, const std::string& method, const std::string& target);

class Daemon {
 public:
  /// Spawn `exe` with the flags on an ephemeral port and wait for its
  /// first 200 from /healthz; throws on failure.
  Daemon(const std::string& exe, const DaemonFlags& flags);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  double setup_s() const { return setup_s_; }
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mb() const;
  /// SIGTERM, wait, and require a clean exit 0.
  bool stop();

 private:
  int pid_ = -1;
  int port_ = 0;
  double setup_s_ = 0.0;
};

/// Numeric leaves of a /metrics document as "a.b" -> value.
std::map<std::string, double> scrape_metrics(int port);

// --- load phases (load.cpp) -------------------------------------------------

struct Exchange {
  double due_s = 0.0;     // scheduled send (open loop) or send (closed)
  double picked_s = 0.0;  // when a sending thread took the request
  double start_s = 0.0;   // when its first byte was sent
  double done_s = 0.0;    // when its last response byte arrived
  int status = 0;
  std::size_t call = 0;   // index into Traffic::calls
  std::string body;
};

struct PhaseResult {
  std::string name;
  double duration_s = 0.0;
  std::vector<Exchange> ex;
  std::size_t connections = 0;  // sockets opened
};

/// Open loop: every request is sent at its due time (or as soon as one of
/// `connections` sending threads is free), timed from the due time.
PhaseResult run_open_loop(int port, const Traffic& t, unsigned connections,
                          bool keep_bodies);

/// Closed loop: `connections` clients send back to back from a shared
/// cursor until all of `t.sequence` has been answered.
PhaseResult run_closed_loop(int port, const Traffic& t, unsigned connections,
                            bool keep_bodies);

// --- correctness (oracle.cpp) -----------------------------------------------

/// The exact bytes the daemon must answer for `c`, recomputed in-process.
std::string expected_body(const Call& c, unsigned batch_threads);

/// Expected bodies for calls[i] where needed[i], on `threads` threads.
std::vector<std::string> expected_bodies(const std::vector<Call>& calls,
                                         const std::vector<bool>& needed,
                                         unsigned batch_threads,
                                         unsigned threads);

/// The /v1/batch response document for BatchRunner reports.
std::string batch_body(const Call& c,
                       const std::vector<vbsrm::engine::EstimationReport>& r);

// --- traced in-process replay (trace.cpp) ----------------------------------

struct TraceOutput {
  std::map<std::string, double> metrics;  // per-layer metric -> value
  std::map<std::string, std::string> units;
  std::vector<std::string> summary_lines;  // self times, overhead, accounting
  double unattributed_ms = 0.0;  // ordered replay: request time in no layer span
  double residual_ms = 0.0;      // Service::handle time no layer span accounts for
  double overhead_ms = 0.0;      // traced minus untraced ordered replay
  double overhead_noise_ms = 0.0;  // three standard errors of overhead_ms
  bool attributed = true;        // every fit matched exactly one request
};

/// Replay `t` in daemon order through the public layer functions, then
/// concurrently through Service::handle, writing spans to `trace_path`.
TraceOutput traced_replay(const Traffic& t, const DaemonFlags& flags,
                          unsigned client_threads,
                          const std::string& trace_path);

}  // namespace perfbench
