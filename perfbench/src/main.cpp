// perfbench_driver — one benchmark run against vbsrm_serve.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --config perfbench/config.json --daemon PATH
//                    --trace-dir DIR
//
// Human-readable accounting goes to stdout first; the last line is the
// result object {"correct", "attempted", "failed", "metrics"}.  Exit codes:
// 0 result printed, 2 usage, 3 invalid run (generator fell behind, daemon
// failed to drain, traced spans not attributable), 1 anything else.
//
// --seconds must equal the config's run_seconds.  Every phase holds a
// fixed number of requests from the config, sized to about that long, so
// the sample counts, and with them the reported tail percentiles, are
// constants of the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"

namespace {

using namespace perfbench;

// Fixed shape of a run; perfbench/README.md records them.
constexpr unsigned kSetupSpawns = 21;  // setup_s is the median spawn
constexpr double kRungSeconds = 2.0;   // each ladder rung above the fixed rate
// Generator lateness (tail, ms) beyond which a run is invalid.
constexpr double kGeneratorLateLimitMs = 20.0;

struct Args {
  std::string workload, config, daemon, trace_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--config") a.config = v;
    else if (k == "--daemon") a.daemon = v;
    else if (k == "--trace-dir") a.trace_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.config.empty() || a.daemon.empty() || !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 "
        "--config FILE --daemon PATH --trace-dir DIR");
  }
  return a;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Per-phase accounting; a failure is a 4xx, 503, 504, transport error,
/// or (after the gate) a body that differs from the recomputation.
struct Tally {
  std::size_t attempted = 0, ok = 0, c4xx = 0, c503 = 0, c504 = 0, transport = 0,
              other = 0, mismatched = 0;
  std::size_t failed() const { return c4xx + c503 + c504 + transport + other + mismatched; }
  void add(const Tally& t) {
    attempted += t.attempted;
    ok += t.ok;
    c4xx += t.c4xx;
    c503 += t.c503;
    c504 += t.c504;
    transport += t.transport;
    other += t.other;
    mismatched += t.mismatched;
  }
};

Tally tally(const PhaseResult& p) {
  Tally t;
  for (const Exchange& e : p.ex) {
    ++t.attempted;
    if (e.status >= 200 && e.status < 300) ++t.ok;
    else if (e.status == 503) ++t.c503;
    else if (e.status == 504) ++t.c504;
    else if (e.status >= 400 && e.status < 500) ++t.c4xx;
    else if (e.status == 0) ++t.transport;
    else ++t.other;
  }
  return t;
}

bool failed(const Exchange& e) { return e.status < 200 || e.status >= 300; }

/// Latencies (ms) from due time to last byte; failures miss the limit.
std::vector<double> latencies_ms(const PhaseResult& p, double limit_ms) {
  std::vector<double> v;
  for (const Exchange& e : p.ex) {
    const double ms = 1e3 * (e.done_s - e.due_s);
    v.push_back(failed(e) ? std::max(ms, limit_ms + 1.0) : ms);
  }
  return v;
}

std::vector<double> lateness_ms(const PhaseResult& p) {
  std::vector<double> v;
  for (const Exchange& e : p.ex) {
    v.push_back(1e3 * generator_lateness(e.due_s, e.picked_s, e.start_s));
  }
  return v;
}

struct Phase {
  PhaseResult result;
  const Traffic* traffic = nullptr;
  std::map<std::string, double> before, after;
};

void print_phase(const Phase& ph, const Tally& t) {
  std::printf("phase %-14s %6.2f s  attempted=%zu 2xx=%zu 4xx=%zu 503=%zu 504=%zu "
              "transport=%zu other=%zu mismatched=%zu connections=%zu\n",
              ph.result.name.c_str(), ph.result.duration_s, t.attempted, t.ok, t.c4xx,
              t.c503, t.c504, t.transport, t.other, t.mismatched, ph.result.connections);
  std::string deltas;
  for (const auto& [k, v] : ph.after) {
    if (k.rfind("latency_ms", 0) == 0 || k.rfind("queue.", 0) == 0 ||
        k == "cache.hit_ratio" || k == "cache.capacity" || k == "cache.entries") {
      continue;
    }
    const auto it = ph.before.find(k);
    const double d = v - (it == ph.before.end() ? 0.0 : it->second);
    if (d != 0.0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %s=%+.0f", k.c_str(), d);
      deltas += buf;
    }
  }
  std::printf("  daemon /metrics delta:%s\n", deltas.c_str());
}

/// Compare every response body with its recomputed bytes; returns the
/// mismatch count and records it per phase.
std::size_t gate(std::vector<Phase>& phases, std::vector<Tally>& tallies,
                 const DaemonFlags& flags) {
  // A document sent in several phases (the cached working set recurs in
  // every one) is recomputed once.
  std::map<std::string, std::size_t> slot;  // request body -> index in `unique`
  std::vector<Call> unique;
  for (const Phase& ph : phases) {
    for (const Exchange& e : ph.result.ex) {
      const Call& c = ph.traffic->calls[e.call];
      if (!failed(e) && slot.emplace(c.body, unique.size()).second) unique.push_back(c);
    }
  }
  const std::vector<std::string> expected = expected_bodies(
      unique, std::vector<bool>(unique.size(), true), flags.batch_threads, 4);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    for (Exchange& e : phases[i].result.ex) {
      if (failed(e)) continue;
      const std::string& exp = expected[slot.at(phases[i].traffic->calls[e.call].body)];
      if (e.body == exp) continue;
      ++tallies[i].mismatched;
      ++mismatches;
      e.status = -1;  // counts as failed from here on
      if (mismatches <= 3) {
        std::printf("MISMATCH %s call %zu:\n  daemon:   %.200s\n  expected: %.200s\n",
                    phases[i].result.name.c_str(), e.call, e.body.c_str(), exp.c_str());
      }
    }
  }
  return mismatches;
}

/// Requests [lo, hi) of `t` as a stream of their own, due times counted
/// from the arrival before the slice.
Traffic slice(const Traffic& t, std::size_t lo, std::size_t hi) {
  Traffic s;
  s.calls = t.calls;
  s.sequence.assign(t.sequence.begin() + lo, t.sequence.begin() + hi);
  if (!t.due_s.empty()) {
    const double origin = lo == 0 ? 0.0 : t.due_s[lo - 1];
    for (std::size_t i = lo; i < hi; ++i) s.due_s.push_back(t.due_s[i] - origin);
    s.fresh.assign(t.fresh.begin() + lo, t.fresh.begin() + hi);
  }
  return s;
}

json::Value metric(double value, const std::string& unit) {
  json::Value m = json::Value::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

[[noreturn]] void invalid(const std::string& why) {
  std::printf("INVALID RUN: %s\n", why.c_str());
  std::fflush(stdout);
  std::exit(3);
}

int run(const Args& a) {
  const Config cfg = load_config(a.config);
  const auto wit = cfg.workloads.find(a.workload);
  if (wit == cfg.workloads.end()) throw std::invalid_argument("unknown workload " + a.workload);
  const WorkloadConfig& w = wit->second;
  if (a.seconds != cfg.run_seconds) {
    throw std::invalid_argument("the run length is fixed: pass --seconds " +
                                std::to_string(static_cast<int>(cfg.run_seconds)));
  }
  Generator gen(w, a.seed);
  const bool grid = w.loop == "closed";
  const double S = a.seconds;

  // --- set-up: spawn several times, keep the last daemon -------------------
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (unsigned k = 0; k < kSetupSpawns; ++k) {
    if (daemon && !daemon->stop()) invalid("daemon did not drain and exit 0");
    daemon = std::make_unique<Daemon>(a.daemon, cfg.daemon);
    setups.push_back(daemon->setup_s());
  }
  int port = daemon->port();
  std::printf("workload %s seed %llu seconds %g trace %d: daemon on port %d, "
              "setup %.4f s (median of %zu spawns)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), S, a.trace, port,
              median(setups), setups.size());

  // --- traffic -------------------------------------------------------------
  // Open-loop phases hold whole design blocks of requests.  The fixed-rate
  // stream is cut into `rounds` consecutive rounds, and the saturation
  // phase into one part fewer; the two alternate, so that both are sampled
  // across the run rather than in one stretch of it.  The warm-up is
  // untimed and checked for 2xx only.
  Traffic working, warm, warm_repeats;
  Traffic fixed, saturation, grid_pairs;
  std::vector<Traffic> steps;
  if (grid) {
    grid_pairs = gen.grid(1, w.pairs);
    warm = gen.grid(3, 1);
  } else if (w.working_set > 0) {
    working = gen.working_set();
    // Every document once, then Zipf repeats: the cache holds the hot
    // documents when timing starts.
    warm = working;
    warm_repeats = gen.repeats(working, 3, 0.0, w.warm_repeats);
    fixed = gen.repeats(working, 1, w.rate_rps, w.fixed_requests);
    saturation = gen.repeats(working, 2, 0.0, w.saturation_requests);
    for (std::size_t k = 0; k < w.ladder_rps.size(); ++k) {
      steps.push_back(gen.repeats(working, 10 + k, w.ladder_rps[k],
                                  whole_blocks(w.ladder_rps[k] * kRungSeconds)));
    }
  } else {
    warm = gen.distinct(3, 0.0, kDesignBlock);
    fixed = gen.distinct(1, w.rate_rps, w.fixed_requests);
    saturation = gen.distinct(2, 0.0, w.saturation_requests);
    // The rungs resend the timed phases' documents, each once, to a fresh
    // daemon (below): its empty cache answers none of them, and the gate
    // has no further document to recompute.
    Traffic pool = fixed;
    pool.calls.insert(pool.calls.end(), saturation.calls.begin(), saturation.calls.end());
    std::size_t first = 0;
    for (std::size_t k = 0; k < w.ladder_rps.size(); ++k) {
      const std::size_t n = whole_blocks(w.ladder_rps[k] * kRungSeconds);
      steps.push_back(gen.resend(pool, 10 + k, w.ladder_rps[k], first, n));
      first += n;
    }
  }
  const std::size_t rounds = grid ? 1 : w.rounds;
  if (!grid && (rounds == 0 || w.fixed_requests % (rounds * kDesignBlock) != 0)) {
    throw std::invalid_argument("config: fixed_requests of " + w.name +
                                " must split into rounds of whole design blocks");
  }
  const std::size_t parts = std::max<std::size_t>(1, rounds - 1);
  std::vector<Traffic> fixed_rounds, saturation_parts;
  for (std::size_t r = 0; r < rounds && !grid; ++r) {
    const std::size_t n = fixed.sequence.size();
    fixed_rounds.push_back(slice(fixed, r * n / rounds, (r + 1) * n / rounds));
  }
  for (std::size_t p = 0; p < parts && !grid; ++p) {
    const std::size_t n = saturation.sequence.size();
    saturation_parts.push_back(slice(saturation, p * n / parts, (p + 1) * n / parts));
  }

  std::vector<Phase> phases;
  auto run_phase = [&](const std::string& name, const Traffic& t, auto&& body) {
    Phase ph;
    ph.traffic = &t;
    ph.before = scrape_metrics(port);
    ph.result = body();
    ph.result.name = name;
    ph.after = scrape_metrics(port);
    phases.push_back(std::move(ph));
    return &phases.back().result;
  };

  for (const Traffic* t : {&warm, &warm_repeats}) {
    if (t->sequence.empty()) continue;
    const PhaseResult r = run_closed_loop(port, *t, w.connections, false);
    const Tally n = tally(r);
    std::printf("warm-up: %zu requests, %zu 2xx, %.2f s\n", n.attempted, n.ok, r.duration_s);
    if (n.ok != n.attempted) invalid("warm-up requests failed");
  }

  // The traced run stops after the fixed-rate rounds: they give the wire
  // counts, the in-process replays give the layers.
  phases.reserve(rounds + parts + steps.size());  // run_phase hands out pointers
  std::vector<const PhaseResult*> timed;   // fixed-rate rounds (paper_grid: its phase)
  std::vector<const PhaseResult*> loaded;  // saturation parts (paper_grid: its phase)
  if (grid) {
    timed.push_back(run_phase("paper_grid", grid_pairs, [&] {
      return run_closed_loop(port, grid_pairs, 1, true);
    }));
    loaded = timed;
  }
  for (std::size_t r = 0; r < fixed_rounds.size(); ++r) {
    timed.push_back(run_phase("fixed_rate_" + std::to_string(r + 1), fixed_rounds[r], [&] {
      return run_open_loop(port, fixed_rounds[r], w.connections, true);
    }));
    if (!a.trace && r < saturation_parts.size()) {
      loaded.push_back(run_phase("saturation_" + std::to_string(r + 1), saturation_parts[r], [&] {
        return run_closed_loop(port, saturation_parts[r], w.connections, true);
      }));
    }
  }
  const double rss_after_fixed = daemon->peak_rss_mb();

  // A rate meets the SLO when the tail of its requests meets the limit,
  // nothing failed, and in each of its phases the backlog of due but
  // unsent requests did not grow from the middle arrival to the last by
  // more than one per connection and the generator kept to its schedule
  // (else the rate proves nothing).
  auto meets_slo = [&](const std::vector<const PhaseResult*>& rs, double rate) {
    std::vector<double> lat;
    std::size_t failures = 0, mid = 0, end = 0;
    bool steady = true;
    Timing late;
    for (const PhaseResult* r : rs) {
      const std::vector<double> l = latencies_ms(*r, w.latency_limit_ms);
      lat.insert(lat.end(), l.begin(), l.end());
      failures += tally(*r).failed();
      const Timing lt = summarize(lateness_ms(*r));
      if (lt.tail >= late.tail) late = lt;
      std::vector<double> due, start;
      for (const Exchange& e : r->ex) {
        due.push_back(e.due_s);
        start.push_back(e.start_s);
      }
      if (due.empty()) continue;
      const std::size_t m = backlog_at(due, start, due[due.size() / 2]);
      const std::size_t e = backlog_at(due, start, due.back());
      steady = steady && e <= m + w.connections;
      if (e >= end) {
        mid = m;
        end = e;
      }
    }
    const Timing t = summarize(lat);
    const bool pass = t.tail <= w.latency_limit_ms && failures == 0 && steady &&
                      late.tail <= kGeneratorLateLimitMs;
    std::printf("ladder %6g rps: n=%zu p%g=%.2f ms (limit %g) backlog %zu -> %zu "
                "generator_late_p%g=%.3f ms -> %s\n",
                rate, t.n, 100 * t.tail_q, t.tail, w.latency_limit_ms, mid, end,
                100 * late.tail_q, late.tail, pass ? "meets SLO" : "misses SLO");
    return pass;
  };

  // The fixed rate is the ladder's first rung.
  double rate_at_slo = 0.0;
  if (!a.trace && !grid && meets_slo(timed, w.rate_rps)) {
    rate_at_slo = w.rate_rps;
    if (w.working_set == 0) {
      if (!daemon->stop()) invalid("daemon did not drain and exit 0");
      daemon = std::make_unique<Daemon>(a.daemon, cfg.daemon);
      port = daemon->port();
    }
    for (std::size_t k = 0; k < steps.size(); ++k) {
      char name[32];
      std::snprintf(name, sizeof(name), "ladder_%g", w.ladder_rps[k]);
      const PhaseResult* r = run_phase(name, steps[k], [&] {
        return run_open_loop(port, steps[k], w.connections, true);
      });
      if (!meets_slo({r}, w.ladder_rps[k])) break;
      rate_at_slo = w.ladder_rps[k];
    }
  }
  const double rss_mb = std::max(rss_after_fixed, daemon->peak_rss_mb());
  std::size_t connections = 0;
  for (const Phase& ph : phases) connections += ph.result.connections;
  if (!daemon->stop()) invalid("daemon did not drain and exit 0");
  daemon.reset();

  // --- correctness gate ----------------------------------------------------
  std::vector<Tally> tallies;
  for (const Phase& ph : phases) tallies.push_back(tally(ph.result));
  const std::size_t mismatches = gate(phases, tallies, cfg.daemon);
  Tally total;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    print_phase(phases[i], tallies[i]);
    total.add(tallies[i]);
  }
  std::printf("correctness gate: %zu mismatching bodies of %zu answered\n", mismatches,
              total.ok);

  // --- generator lateness (validity) --------------------------------------
  if (!grid) {
    std::vector<double> late;
    for (const PhaseResult* r : timed) {
      const std::vector<double> l = lateness_ms(*r);
      late.insert(late.end(), l.begin(), l.end());
    }
    const Timing lt = summarize(late);
    std::printf("generator_late_ms p%g=%.3f (n=%zu, limit %g)\n", 100 * lt.tail_q, lt.tail,
                lt.n, kGeneratorLateLimitMs);
    if (lt.tail > kGeneratorLateLimitMs) invalid("generator fell behind its schedule");
  }

  json::Value metrics = json::Value::object();
  if (a.trace) {
    Traffic replay;
    if (grid) {
      replay = grid_pairs;
    } else {
      replay.calls = fixed.calls;
      replay.sequence = fixed.sequence;
    }
    replay.sequence.resize(std::min(replay.sequence.size(), w.trace_requests));
    const std::string path = a.trace_dir + "/trace-" + w.name + "-" +
                             std::to_string(a.seed) + ".jsonl";
    const TraceOutput tr = traced_replay(replay, cfg.daemon, 4, path);
    for (const std::string& line : tr.summary_lines) std::printf("%s\n", line.c_str());
    // The layer spans must account for the ordered replay's request time
    // to within what tracing itself adds.  In the Service::handle replay
    // the remainder is queue wait and dispatch, reported beside it.
    // Tracing cannot make a request faster: a negative overhead estimate is
    // noise, so the allowance is the estimate's upper bound from zero up.
    const double allowance_ms = std::max(0.0, tr.overhead_ms) + tr.overhead_noise_ms;
    const bool accounted = tr.unattributed_ms <= allowance_ms;
    std::printf("accounting, ordered replay: %.3f ms in no layer span; tracing overhead "
                "%+.3f ms, noise +-%.3f ms -> %s\n",
                tr.unattributed_ms, tr.overhead_ms, tr.overhead_noise_ms,
                accounted ? "within" : "OUTSIDE");
    std::printf("accounting, Service::handle replay: residual %+.3f ms (queue wait and "
                "dispatch) beside tracing overhead %+.3f ms, noise +-%.3f ms -> %s\n",
                tr.residual_ms, tr.overhead_ms, tr.overhead_noise_ms,
                std::abs(tr.residual_ms) <= allowance_ms ? "within" : "beyond");
    std::printf("spans written to %s\n", path.c_str());
    if (!tr.attributed) invalid("traced fits could not be matched to their requests");
    if (!accounted) invalid("layer spans leave request time beyond the tracing overhead");
    for (const auto& [k, v] : tr.metrics) metrics[k] = metric(v, tr.units.at(k));
    metrics["http.connections"] = metric(static_cast<double>(connections), "count");
  } else {
    // Latency per Info+NoInfo pair of batches on paper_grid's single
    // connection (a pair is one dataset under both priors, where single
    // batches split into two modes), else per request at the fixed rate.
    // latency_p50_ms is the median of the rounds' medians, so a stretch of
    // a slow host within the run moves it little; the tail is taken over
    // all the rounds' requests together.
    std::vector<double> lat, round_p50;
    for (const PhaseResult* r : timed) {
      std::vector<double> l;
      if (grid) {
        for (std::size_t i = 0; i + 1 < r->ex.size(); i += 2) {
          const Exchange& x = r->ex[i];
          const Exchange& y = r->ex[i + 1];
          const bool bad = failed(x) || failed(y);
          const double ms = 1e3 * (y.done_s - x.due_s);
          l.push_back(bad ? std::max(ms, w.latency_limit_ms + 1.0) : ms);
        }
      } else {
        l = latencies_ms(*r, w.latency_limit_ms);
      }
      round_p50.push_back(median(l));
      lat.insert(lat.end(), l.begin(), l.end());
    }
    // Throughput counts the fully loaded part of each closed loop: from its
    // start to the moment its last request is sent, after which fewer
    // connections than configured have work left.
    double loaded_s = 0.0, cells = 0.0;
    std::size_t ok = 0, sent = 0;
    for (const PhaseResult* r : loaded) {
      double part_s = 0.0;
      for (const Exchange& e : r->ex) part_s = std::max(part_s, e.start_s);
      for (const Exchange& e : r->ex) {
        if (failed(e) || e.done_s > part_s) continue;
        ++ok;
        cells += static_cast<double>((grid ? grid_pairs : saturation).calls[e.call].cells());
      }
      loaded_s += part_s;
      sent += r->ex.size();
    }
    const double throughput = static_cast<double>(ok) / loaded_s;
    const Timing l = summarize(lat);
    const double error_ratio = static_cast<double>(total.failed()) / total.attempted;
    std::printf("metric setup_s %.6f s (median of %u spawns)\n", median(setups), kSetupSpawns);
    const double p50 = median(round_p50);
    std::string per_round;
    for (const double v : round_p50) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), per_round.empty() ? "%.4f" : " %.4f", v);
      per_round += buf;
    }
    std::printf("metric latency_p50_ms %.4f ms (median of %zu round medians [%s]; n=%zu %s)\n",
                p50, round_p50.size(), per_round.c_str(), l.n,
                grid ? "Info+NoInfo batch pairs" : "requests at the fixed rate");
    std::printf("metric latency_p99_ms %.4f ms (p%.4g of n=%zu)\n", l.tail, 100 * l.tail_q,
                l.n);
    std::printf("metric throughput_rps %.4f 1/s (%zu 2xx in the loaded %.3f s of %zu "
                "closed-loop requests in %zu parts on %u connections)\n",
                throughput, ok, loaded_s, sent, loaded.size(), grid ? 1u : w.connections);
    if (grid) {
      std::printf("metric cells_per_s %.4f 1/s\n", cells / loaded_s);
    } else {
      std::printf("metric rate_at_slo_rps %g 1/s (p-tail limit %g ms)\n", rate_at_slo,
                  w.latency_limit_ms);
    }
    std::printf("metric error_ratio %.6f ratio (%zu of %zu)\n", error_ratio, total.failed(),
                total.attempted);
    std::printf("metric server_rss_mb %.4f MiB\n", rss_mb);
    metrics["setup_s"] = metric(median(setups), "s");
    metrics["latency_p50_ms"] = metric(p50, "ms");
    metrics["latency_p99_ms"] = metric(l.tail, "ms");
    metrics["throughput_rps"] = metric(throughput, "1/s");
    metrics["server_rss_mb"] = metric(rss_mb, "MiB");
  }

  json::Value result = json::Value::object();
  result["correct"] = mismatches == 0 && total.failed() == 0;
  result["attempted"] = total.attempted;
  result["failed"] = total.failed();
  result["metrics"] = std::move(metrics);
  std::cout << json::write(result) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
