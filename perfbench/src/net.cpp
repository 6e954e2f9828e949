// Loopback HTTP/1.1 client and daemon process control.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body, bool keep_alive) {
  std::string w = method + ' ' + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    w += "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n";
  }
  w += keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
  w += body;
  return w;
}

Connection::~Connection() { close(); }

void Connection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Connection::ensure_open() {
  if (fd_ >= 0) return true;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const timeval tv{120, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  ++opened_;
  return true;
}

Reply Connection::exchange(const std::string& wire, Clock::duration spin) {
  Reply r;
  if (!ensure_open()) return r;
  const Clock::time_point spin_until = Clock::now() + spin;
  for (std::size_t off = 0; off < wire.size();) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      close();
      return r;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string buf;
  char chunk[16 * 1024];
  std::size_t head_end = std::string::npos;
  std::size_t need = 0;
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buf.substr(0, head_end);
        if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) break;
        r.status = std::atoi(head.c_str() + 9);
        std::size_t length = 0;
        std::size_t pos = 0;
        while ((pos = head.find("\r\n", pos)) != std::string::npos) {
          pos += 2;
          const std::size_t colon = head.find(':', pos);
          const std::size_t eol = head.find("\r\n", pos);
          if (colon == std::string::npos || (eol != std::string::npos && colon > eol)) continue;
          std::string name = head.substr(pos, colon - pos);
          for (char& ch : name) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
          std::string value = head.substr(colon + 1, eol == std::string::npos
                                                         ? std::string::npos
                                                         : eol - colon - 1);
          while (!value.empty() && value.front() == ' ') value.erase(0, 1);
          if (name == "content-length") length = std::strtoull(value.c_str(), nullptr, 10);
          if (name == "connection" && value == "close") r.closes = true;
        }
        need = head_end + 4 + length;
      }
    }
    if (head_end != std::string::npos && buf.size() >= need) {
      r.body = buf.substr(head_end + 4, need - head_end - 4);
      if (r.closes) close();
      return r;
    }
    // Poll without blocking while the spin budget lasts, then block.
    const bool polling = spin.count() > 0 && Clock::now() < spin_until;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), polling ? MSG_DONTWAIT : 0);
    if (n < 0 && polling && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  close();
  return Reply{};
}

Reply fetch(int port, const std::string& method, const std::string& target) {
  Connection c(port);
  return c.exchange(http_request(method, target, "", false));
}

// --- daemon -----------------------------------------------------------------

Daemon::Daemon(const std::string& exe, const DaemonFlags& f) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const std::vector<std::string> args = {
      exe, "--port", "0", "--workers", std::to_string(f.workers),
      "--queue", std::to_string(f.queue), "--cache", std::to_string(f.cache),
      "--batch-threads", std::to_string(f.batch_threads),
      "--deadline-ms", std::to_string(f.deadline_ms)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);

  // The banner carries the kernel-assigned port.
  std::string banner;
  char ch = 0;
  pollfd pfd{out[0], POLLIN, 0};
  while (banner.find('\n') == std::string::npos) {
    if (::poll(&pfd, 1, 10000) <= 0 || ::read(out[0], &ch, 1) != 1) break;
    banner.push_back(ch);
  }
  ::close(out[0]);  // later output (a drain line) goes to a closed pipe: ignored
  const std::size_t colon = banner.rfind(':');
  if (colon != std::string::npos) port_ = std::atoi(banner.c_str() + colon + 1);
  if (port_ <= 0) {
    stop();
    throw std::runtime_error("daemon did not announce a port: " + banner);
  }
  for (int tries = 0; tries < 20000; ++tries) {
    if (fetch(port_, "GET", "/healthz").status == 200) {
      setup_s_ = seconds_between(t0, Clock::now());
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop();
  throw std::runtime_error("daemon never answered /healthz");
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool Daemon::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  pid_t r = -1;
  // The daemon drains and exits within its stop-poll interval; escalate
  // only if it hangs.
  for (int i = 0; i < 1000; ++i) {
    r = ::waitpid(pid_, &status, WNOHANG);
    if (r != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (r == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

void flatten(const json::Value& v, const std::string& prefix,
             std::map<std::string, double>& out) {
  if (v.is_number()) {
    out[prefix] = v.as_number();
  } else if (v.is_object()) {
    for (const json::Member& m : v.members()) {
      if (m.first == "buckets") continue;
      flatten(m.second, prefix.empty() ? m.first : prefix + '.' + m.first, out);
    }
  }
}

}  // namespace

std::map<std::string, double> scrape_metrics(int port) {
  std::map<std::string, double> out;
  const Reply r = fetch(port, "GET", "/metrics");
  if (r.status == 200) flatten(json::parse(r.body), "", out);
  return out;
}

}  // namespace perfbench
