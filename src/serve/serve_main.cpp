// vbsrm_serve — the estimation service daemon.
//
//   vbsrm_serve [--host H] [--port P] [--workers N] [--queue N]
//               [--cache N] [--deadline-ms D] [--batch-threads N]
//
// Serves the unified estimation engine over HTTP/1.1 on a POSIX
// socket: POST /v1/estimate, POST /v1/batch, GET /v1/methods,
// GET /healthz, GET /metrics.  --port 0 (the default) binds an
// ephemeral port; the chosen one is announced on stdout as
//
//   vbsrm_serve listening on http://127.0.0.1:PORT
//
// which the smoke client parses.  SIGINT/SIGTERM stop the accept loop,
// finish in-flight requests, drain the estimation queue, and exit 0.
// A flag value that does not parse whole and in range prints the usage
// text and exits 2.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "serve/http.hpp"
#include "serve/service.hpp"

namespace {

vbsrm::serve::HttpServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vbsrm_serve [--host H] [--port P] [--workers N]\n"
               "                   [--queue N] [--cache N] [--deadline-ms D]\n"
               "                   [--batch-threads N]\n"
               "  P in 0..65535 (0 = ephemeral); --workers and\n"
               "  --batch-threads in 0..1024 (0 = hardware); D > 0\n");
  std::exit(2);
}

/// The whole of `text` as a T in [lo, hi]; usage() otherwise.
template <typename T>
T flag_value(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
             T hi = std::numeric_limits<T>::max()) {
  T v{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || !(v >= lo) ||
      !(v <= hi)) {
    usage();
  }
  return v;
}

constexpr unsigned kMaxThreads = 1024;  // 0 = hardware
constexpr double kMinDeadlineMs = std::numeric_limits<double>::denorm_min();

}  // namespace

int main(int argc, char** argv) {
  using namespace vbsrm::serve;

  ServiceOptions sopt;
  HttpServerOptions hopt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--host") hopt.host = next();
    else if (a == "--port") hopt.port = flag_value<std::uint16_t>(next());
    else if (a == "--workers") sopt.workers = flag_value(next(), 0u, kMaxThreads);
    else if (a == "--queue") sopt.queue_capacity = flag_value<std::size_t>(next());
    else if (a == "--cache") sopt.cache_capacity = flag_value<std::size_t>(next());
    else if (a == "--deadline-ms") sopt.default_deadline_ms = flag_value(next(), kMinDeadlineMs);
    else if (a == "--batch-threads") sopt.batch_threads = flag_value(next(), 0u, kMaxThreads);
    else usage();
  }

  // A peer that disappears mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  Service service(sopt);
  try {
    HttpServer server(service, hopt);
    g_server = &server;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    std::printf("vbsrm_serve listening on http://%s:%u\n", hopt.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::printf("workers=%u queue=%zu cache=%zu deadline_ms=%g\n",
                service.options().workers, service.options().queue_capacity,
                service.options().cache_capacity,
                service.options().default_deadline_ms);
    std::fflush(stdout);

    server.run();  // returns after a signal, with connections finished
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbsrm_serve: %s\n", e.what());
    return 1;
  }

  service.shutdown();  // drain queued estimation jobs
  std::printf("vbsrm_serve: drained, exiting\n");
  return 0;
}
