// Open- and closed-loop load phases over real loopback connections.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

/// An open-loop sender sleeps until this long before a request is due and
/// spins the rest, so that timer slack and wake-up delay do not land in the
/// request's latency.
constexpr auto kSpinAhead = std::chrono::microseconds(150);

struct Sender {
  Connection conn;
  std::size_t fresh_opened = 0;
  explicit Sender(int port) : conn(port) {}
};

/// Open-loop senders poll for a reply this long before sleeping on it:
/// past the slowest cache hit, well short of a fit.
constexpr auto kSpinReply = std::chrono::milliseconds(2);

/// One exchange on the sender's keep-alive connection, or on a fresh
/// connection closed after the response.
Reply send_one(Sender& s, int port, const Call& c, bool fresh,
               Clock::duration spin = Clock::duration::zero()) {
  if (fresh) {
    Connection once(port);
    Reply r = once.exchange(http_request("POST", c.target, c.body, false), spin);
    s.fresh_opened += once.opened();
    return r;
  }
  return s.conn.exchange(http_request("POST", c.target, c.body, true), spin);
}

}  // namespace

PhaseResult run_open_loop(int port, const Traffic& t, unsigned connections,
                          bool keep_bodies) {
  PhaseResult res;
  res.ex.resize(t.sequence.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::size_t> opened(connections, 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  auto worker = [&](unsigned id) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // 1 ns: wake when asked
    Sender s(port);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= t.sequence.size()) break;
      Exchange& e = res.ex[i];
      e.call = t.sequence[i];
      e.due_s = t.due_s[i];
      e.picked_s = seconds_between(t0, Clock::now());
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(e.due_s));
      std::this_thread::sleep_until(due - kSpinAhead);
      while (Clock::now() < due) {
      }
      e.start_s = seconds_between(t0, Clock::now());
      Reply r = send_one(s, port, t.calls[e.call], t.fresh[i], kSpinReply);
      e.done_s = seconds_between(t0, Clock::now());
      e.status = r.status;
      if (keep_bodies) e.body = std::move(r.body);
    }
    opened[id] = s.conn.opened() + s.fresh_opened;
  };
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < connections; ++k) threads.emplace_back(worker, k);
  for (std::thread& th : threads) th.join();

  for (const std::size_t n : opened) res.connections += n;
  double end = 0.0;
  for (const Exchange& e : res.ex) end = std::max(end, e.done_s);
  res.duration_s = end;
  return res;
}

PhaseResult run_closed_loop(int port, const Traffic& t, unsigned connections,
                            bool keep_bodies) {
  PhaseResult res;
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Exchange>> per(connections);
  std::vector<std::size_t> opened(connections, 0);
  const Clock::time_point t0 = Clock::now();

  auto worker = [&](unsigned id) {
    Sender s(port);
    for (std::size_t i; (i = next.fetch_add(1)) < t.sequence.size();) {
      Exchange e;
      e.call = t.sequence[i];
      e.due_s = e.picked_s = e.start_s = seconds_between(t0, Clock::now());
      Reply r = send_one(s, port, t.calls[e.call], false);
      e.done_s = seconds_between(t0, Clock::now());
      e.status = r.status;
      if (keep_bodies) e.body = std::move(r.body);
      per[id].push_back(std::move(e));
    }
    opened[id] = s.conn.opened();
  };
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < connections; ++k) threads.emplace_back(worker, k);
  for (std::thread& th : threads) th.join();

  // The phase lasts until the last response: throughput is the fixed
  // request count over that span.
  for (unsigned k = 0; k < connections; ++k) {
    res.connections += opened[k];
    for (Exchange& e : per[k]) {
      res.duration_s = std::max(res.duration_s, e.done_s);
      res.ex.push_back(std::move(e));
    }
  }
  return res;
}

}  // namespace perfbench
