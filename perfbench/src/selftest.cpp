// Self-tests for the benchmark's own helpers: the percentile rule,
// open-loop lateness accounting, and the seeded generators.
//
//   perfbench_selftest   (exit 0 when every check passes)
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  check(percentile(ramp(100), 0.5) == 50.0, "nearest-rank median of 1..100 is 50");
  check(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  check(percentile({}, 0.5) == 0.0, "empty sample gives 0");
  check(tail_quantile(1000) == 0.99, "1000 samples: p99 has 10 beyond it");
  check(tail_quantile(5000) == 0.99, "more samples never go past p99");
  check(std::abs(tail_quantile(200) - 0.95) < 1e-12, "200 samples fall back to p95");
  check(tail_quantile(12) == 0.5, "tiny samples fall back to the median");
  for (const std::size_t n : {25u, 200u, 999u, 1000u, 4000u}) {
    const Timing t = summarize(ramp(n));
    std::size_t beyond = 0;
    for (const double x : ramp(n)) beyond += x > t.tail ? 1 : 0;
    check(beyond >= 10, "the reported tail has at least ten samples beyond it");
  }
}

void lateness_accounting() {
  check(generator_lateness(1.0, 0.5, 1.002) == 1.002 - 1.0,
        "an idle sender is late by its wake-up delay");
  check(std::abs(generator_lateness(1.0, 3.0, 3.0005) - 0.0005) < 1e-12,
        "a busy connection's delay is not the generator's");
  check(generator_lateness(1.0, 0.5, 0.999) == 0.0, "an early send is not late");
  const std::vector<double> due = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> start = {0.1, 0.25, 0.45, 0.5};
  check(backlog_at(due, start, 0.35) == 1, "one request due and unsent at 0.35 s");
  check(backlog_at(due, start, 0.42) == 2, "two requests due and unsent at 0.42 s");
  check(backlog_at(due, {0.1}, 0.5) == 3, "never-started requests count as backlog");
}

void generators() {
  vbsrm::random::Rng a(7), b(7), c(8);
  const std::vector<double> pa = poisson_arrivals(a, 100.0, 1000);
  const std::vector<double> pb = poisson_arrivals(b, 100.0, 1000);
  const std::vector<double> pc = poisson_arrivals(c, 100.0, 1000);
  check(pa == pb, "Poisson: same seed gives the same arrivals");
  check(pa != pc, "Poisson: another seed gives other arrivals");
  check(pa.size() == 1000, "Poisson: exactly the requested count");
  check(std::abs(pa.back() - 10.0) < 1.5, "Poisson: count / rate seconds, about");
  bool sorted = true;
  for (std::size_t i = 1; i < pa.size(); ++i) sorted = sorted && pa[i] > pa[i - 1];
  check(sorted && pa.front() > 0.0, "Poisson: positive and increasing");
  check(whole_blocks(0.0) == kDesignBlock && whole_blocks(99.0) == 2 * kDesignBlock &&
            whole_blocks(101.0) == 3 * kDesignBlock,
        "phase lengths round to whole design blocks");

  const Zipf z(100, 1.1);
  vbsrm::random::Rng sa(5), sb(5), sc(6);
  const std::vector<std::size_t> sta = z.stratified(sa, 5000);
  check(sta == z.stratified(sb, 5000), "Zipf: same seed gives the same stream");
  check(sta != z.stratified(sc, 5000), "Zipf: another seed gives another stream");
  std::vector<double> seen(100, 0.0);
  for (const std::size_t r : sta) seen[r] += 1.0;
  check(seen[0] > seen[1] && seen[1] > seen[9] && seen[9] > seen[99],
        "Zipf: popularity falls with rank");
  // Expected counts from the Zipf weights, normalised over the 100 ranks.
  double worst = 0.0, norm = 0.0;
  for (std::size_t r = 0; r < 100; ++r) norm += std::pow(static_cast<double>(r + 1), -1.1);
  for (std::size_t r = 0; r < 100; ++r) {
    const double expected = 5000.0 * std::pow(static_cast<double>(r + 1), -1.1) / norm;
    worst = std::max(worst, std::abs(seen[r] - expected));
  }
  check(sta.size() == 5000 && worst <= 1.0 + 1e-9,
        "Zipf: every rank within one of its expected count");

  WorkloadConfig w;
  w.name = "selftest";
  w.method_mix = {{"vb2", 7.0}, {"vb1", 1.0}};
  w.min_failures = 20;
  w.max_failures = 60;
  w.window_counts = {1, 2};
  w.fresh_connection_share = 0.5;
  Generator g1(w, 11), g2(w, 11), g3(w, 12);
  const Traffic t1 = g1.distinct(1, 50.0, 50);
  const Traffic t2 = g2.distinct(1, 50.0, 50);
  const Traffic t3 = g3.distinct(1, 50.0, 50);
  bool same = t1.due_s == t2.due_s && t1.fresh == t2.fresh && t1.calls.size() == t2.calls.size();
  for (std::size_t i = 0; same && i < t1.calls.size(); ++i) {
    same = t1.calls[i].body == t2.calls[i].body;
  }
  check(same, "request stream: same seed gives the same bodies and schedule");
  check(t1.calls.empty() || t3.calls.empty() || t1.calls[0].body != t3.calls[0].body,
        "request stream: another seed gives other bodies");
  check(g1.distinct(2, 50.0, 50).calls.at(0).body != t1.calls.at(0).body,
        "request stream: phases draw from separate streams");
}

}  // namespace

int main() {
  percentile_rule();
  lateness_accounting();
  generators();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
