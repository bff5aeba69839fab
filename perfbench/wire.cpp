// Wire probe: the line-protocol daemon (examples/sssp_serve.cpp) over
// loopback TCP, against the same requests served in process.
//
// Hygiene: the daemon gets a port the kernel picked as free, every client
// connection is closed before SIGINT (with an idle client connected the
// daemon ignores SIGINT), and a daemon that has not exited after
// kShutdownLimit is killed and counted as a failure instead of hanging
// the run.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <thread>

#include "graph/io.hpp"
#include "run.hpp"
#include "shortcut/serialize.hpp"

namespace pb {

namespace {

constexpr std::size_t kWireRequests = 400;
constexpr int kReplyTimeoutMs = 10000;
constexpr auto kStartLimit = std::chrono::seconds(60);
constexpr auto kShutdownLimit = std::chrono::seconds(10);

/// A loopback port that was free a moment ago (the kernel's pick).
int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One client connection: writes a line, reads the reply line.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// False on I/O error or a reply slower than kReplyTimeoutMs.
  bool round_trip(const std::string& line, std::string& reply) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + sent, line.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// Parses a `q` reply (one distance) or a `topk` reply (vertex:dist
/// pairs) into an Answer for the checker.
bool parse_reply(const std::string& reply, const rs::QueryRequest& req,
                 Answer& a) {
  std::istringstream in(reply);
  std::string tok;
  if (req.kind == rs::RequestKind::kTopK) {
    while (in >> tok) {
      const std::size_t colon = tok.find(':');
      if (colon == std::string::npos) return false;
      a.targets.push_back(
          static_cast<Vertex>(std::stoul(tok.substr(0, colon))));
      a.dists.push_back(std::stoull(tok.substr(colon + 1)));
    }
    return !a.targets.empty();
  }
  if (!(in >> tok)) return false;
  a.targets = req.targets;
  a.dists.push_back(tok == "inf" ? rs::kInfDist : std::stoull(tok));
  return true;
}

std::string request_line(const rs::QueryRequest& req) {
  if (req.kind == rs::RequestKind::kTopK) {
    return "topk " + std::to_string(req.source) + " " +
           std::to_string(req.k) + "\n";
  }
  return "q " + std::to_string(req.source) + " " +
         std::to_string(req.targets[0]) + "\n";
}

/// Waits up to `limit` for `pid` to exit; true when it did.
bool wait_exit(pid_t pid, std::chrono::seconds limit) {
  const Clock::time_point until = Clock::now() + limit;
  while (Clock::now() < until) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

struct Timed {
  std::uint64_t id = 0;
  Clock::time_point start, end;
};

}  // namespace

WireResult wire_probe(const RunContext& ctx, const rs::PreprocessResult& pre,
                      Checker& checker, Tracer& tracer) {
  WireResult out;
  const RequestStream& stream = *ctx.stream;
  // The sub-mix the line protocol speaks: route (distance only) and poi.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = phase_base(kPhaseLight); ids.size() < kWireRequests;
       ++id) {
    const Kind k = stream.kind(id);
    if (k == Kind::kRoute || k == Kind::kPoi) ids.push_back(id);
  }
  const auto request = [&](std::uint64_t id) {
    rs::QueryRequest req = stream.request(id);
    req.want_paths = false;
    return req;
  };
  const int clients = ctx.nproc;
  const long root = tracer.begin("layer.wire");

  // In process: the same requests, same client count, submit -> future.
  std::vector<std::vector<Timed>> inproc(static_cast<std::size_t>(clients));
  {
    auto engine = std::make_shared<const rs::SsspEngine>(ctx.graph, pre);
    rs::serve::SsspServer server(std::move(engine));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < ids.size();
             i += static_cast<std::size_t>(clients)) {
          const Clock::time_point t = Clock::now();
          (void)server.serve_sync(request(ids[i]));
          inproc[static_cast<std::size_t>(c)].push_back(
              {ids[i], t, Clock::now()});
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> inproc_us;
  for (const auto& per : inproc) {
    for (const Timed& t : per) {
      tracer.add("wire.inproc", t.start, t.end, root, t.id);
      inproc_us.push_back(us_between(t.start, t.end));
    }
  }
  out.inproc_p50_us = median(inproc_us);

  if (ctx.daemon.empty() || ::access(ctx.daemon.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "perfbench: no daemon binary at '%s'\n",
                 ctx.daemon.c_str());
    out.failures = 1;
    tracer.end(root);
    return out;
  }
  const std::string stem =
      ctx.out_dir + "/wire-" + ctx.workload->name + "-" +
      std::to_string(ctx.seed);
  rs::io::write_dimacs_file(ctx.graph, stem + ".gr");
  rs::save_preprocessing_file(pre, stem + ".pre");
  const int port = free_port();
  const std::string port_arg = std::to_string(port);
  const std::string log_path = stem + ".log";
  const std::string graph_arg = stem + ".gr";
  const std::string pre_arg = stem + ".pre";

  const pid_t pid = ::fork();
  if (pid == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    const char* argv[] = {ctx.daemon.c_str(), graph_arg.c_str(),
                          pre_arg.c_str(),    "--port",
                          port_arg.c_str(),   nullptr};
    ::execv(ctx.daemon.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  if (pid < 0) {
    out.failures = 1;
    tracer.end(root);
    return out;
  }

  std::vector<std::unique_ptr<Connection>> conns;
  const Clock::time_point start_limit = Clock::now() + kStartLimit;
  while (conns.empty() && Clock::now() < start_limit &&
         ::waitpid(pid, nullptr, WNOHANG) == 0) {
    const int fd = connect_to(port);
    if (fd >= 0) {
      conns.push_back(std::make_unique<Connection>(fd));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  while (!conns.empty() && static_cast<int>(conns.size()) < clients) {
    const int fd = connect_to(port);
    if (fd < 0) break;
    conns.push_back(std::make_unique<Connection>(fd));
  }

  std::vector<std::vector<Timed>> rtts(conns.size());
  std::vector<std::uint64_t> bad(conns.size(), 0);
  if (static_cast<int>(conns.size()) == clients) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        std::string reply;
        for (std::size_t i = c; i < ids.size(); i += conns.size()) {
          const rs::QueryRequest req = request(ids[i]);
          const Clock::time_point t = Clock::now();
          if (!conns[c]->round_trip(request_line(req), reply)) {
            bad[c] += ids.size() / conns.size();  // the rest of this client
            return;
          }
          rtts[c].push_back({ids[i], t, Clock::now()});
          Answer a;
          a.id = ids[i];
          a.kind = req.kind == rs::RequestKind::kTopK ? Kind::kPoi
                                                      : Kind::kMatrix;
          a.source = req.source;
          a.epoch = 1;
          try {
            if (parse_reply(reply, req, a)) {
              checker.add(std::move(a));
              continue;
            }
          } catch (const std::exception&) {
          }
          std::fprintf(stderr, "perfbench: bad wire reply '%s'\n",
                       reply.c_str());
          ++bad[c];
        }
      });
    }
    for (std::thread& t : threads) t.join();
  } else {
    std::fprintf(stderr, "perfbench: daemon did not accept %d clients\n",
                 clients);
    out.failures += 1;
  }
  out.attempted = ids.size();
  for (const std::uint64_t b : bad) out.failures += b;

  // Hygiene: every client closed before SIGINT; kill after a timeout.
  conns.clear();
  ::kill(pid, SIGINT);
  if (!wait_exit(pid, kShutdownLimit)) {
    std::fprintf(stderr,
                 "perfbench: daemon ignored SIGINT for %llds; killed\n",
                 static_cast<long long>(kShutdownLimit.count()));
    ::kill(pid, SIGKILL);
    (void)wait_exit(pid, kShutdownLimit);
    out.failures += 1;
  }

  std::vector<double> rtt_us;
  for (const auto& per : rtts) {
    for (const Timed& t : per) {
      tracer.add("wire.rtt", t.start, t.end, root, t.id);
      rtt_us.push_back(us_between(t.start, t.end));
    }
  }
  out.rtt_p50_us = median(rtt_us);
  tracer.end(root);
  return out;
}

}  // namespace pb
