// sssp_serve — the serving daemon as a binary: wraps SsspServer
// (serve/server.hpp) around a preprocessed graph and answers targeted
// shortest-path requests over stdin or TCP until told to stop.
//
//   sssp_serve                                   # built-in demo (smoke)
//   sssp_serve g.gr g.pre                        # stdin line protocol
//   sssp_serve g.gr g.pre --port 7447            # TCP line protocol
//   sssp_serve g.gr --rho 64 --k 3               # preprocess in-process
//   sssp_serve g.gr --rho 64 --k 3 --dynamic 1   # + live weight updates
//
// Daemon flags: --port P (TCP listener; default stdin), --queue N
// (admission queue depth, default 1024), --max-batch N (most requests one
// serving team takes under one engine pin, default 64), --budget-us N
// (how long a lone request waits for a team-mate, default 200),
// --batchers N (batcher threads, default 1), --engine flat|bst,
// --cache 0|1 (hot-source result cache, default 0), --landmarks N (ALT
// oracle with N landmarks, default 0 = off), --dynamic 0|1 (live weight
// updates; requires in-process preprocessing, default 0),
// --trace-sample N (trace every Nth request, 0 = off; default from the
// RS_TRACE env var), --slow-query-us N (log traced spans of requests
// slower than N us to stderr, 0 = off), --flush-ms N / --flush-dirty F
// (with --dynamic 1: background flush every N ms / once staged updates
// would dirty fraction F of all balls). A numeric flag that does not
// parse whole or falls outside its range (port 1-65535; queue, max-batch,
// batchers, rho and k at least 1; cache and dynamic 0 or 1; flush-dirty
// in [0, 1]) is an error, never a silently wrapped value.
//
// Line protocol v2 (one request per line, stdin and TCP alike) —
// verb-prefixed commands:
//
//   q <source> <t1>[,<t2>,...]     targeted distances, e.g. "q 0 143,77,5"
//   topk <source> <k>              the k nearest vertices, e.g. "topk 0 5"
//   stats                          one-line serving counters snapshot
//   metrics [json]                 full registry export — Prometheus text
//                                  exposition (MULTI-line answer), or
//                                  single-line JSON with the `json` arg
//   epoch                          the engine's current graph epoch
//
// and, with --dynamic 1, the live-update verbs:
//
//   update <u> <v> <w>[;<u> <v> <w>...]   apply + re-preprocess + swap
//   stage <u> <v> <w>[;<u> <v> <w>...]    buffer updates, no swap yet
//   flush                                 re-preprocess staged, swap epoch
//   qc <source> <t1>[,<t2>,...]           query corrected for staged edits
//
// plus the bare legacy form, still accepted verbatim:
//
//   <source> <t1>[,<t2>,...]       == "q <source> <t1>[,...]"
//
// `q`/`qc` lines are answered with the per-target distances in input
// order, space-separated, `inf` for unreachable. `topk` lines are
// answered with k space-separated `vertex:dist` pairs, nearest first.
// `update`/`flush` answer "ok epoch=E updated=A dirty=D/T ms=X"; `stage`
// answers "staged epoch=E updated=A pending=N". Any malformed or
// rejected line gets `error: <reason>` (bad ids and out-of-range vertices
// are rejected by admission control without touching the engine). A line
// longer than 1 MiB gets one `error: line too long`; over TCP the
// connection is then closed. EOF (or
// SIGINT/SIGTERM for TCP) drains in-flight requests and prints the
// serving stats before exiting; on a signal, connected clients that are
// idle are disconnected rather than waited for. An unknown --engine name
// is an error, not a fallback.
//
// With no arguments, runs a self-contained demo: preprocesses a small
// road network, fires concurrent clients through the daemon, verifies
// every answer against direct engine.serve() calls, then churns weights
// through the dynamic service verifying against Dijkstra, and exits
// non-zero on any mismatch — which is exactly what the CTest smoke run
// executes.
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "args.hpp"
#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/update.hpp"
#include "graph/weights.hpp"
#include "obs/trace.hpp"
#include "parallel/primitives.hpp"
#include "serve/dynamic.hpp"
#include "serve/server.hpp"
#include "shortcut/serialize.hpp"

namespace {

using namespace rs;
using namespace rs::serve;
using examples::Args;
using examples::get_checked;

/// Strict vertex-id parse: digits only, fits a Vertex. Negative numbers,
/// garbage, and overflow all throw — admission must never mangle an id.
Vertex parse_vertex(const std::string& item) {
  if (item.empty() || item[0] == '-') {
    throw std::invalid_argument("bad vertex id: '" + item + "'");
  }
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(item, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad vertex id: '" + item + "'");
  }
  if (used != item.size() || v > std::numeric_limits<Vertex>::max()) {
    throw std::invalid_argument("bad vertex id: '" + item + "'");
  }
  return static_cast<Vertex>(v);
}

/// "<source> <t1>[,<t2>,...]" -> request. Throws on any malformed piece.
QueryRequest parse_line(const std::string& line, QueryEngine engine) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) {
    throw std::invalid_argument("expected '<source> <t1>[,<t2>,...]'");
  }
  QueryRequest req;
  req.source = parse_vertex(line.substr(0, space));
  req.engine = engine;
  std::size_t pos = space + 1;
  while (pos <= line.size()) {
    std::size_t comma = line.find(',', pos);
    if (comma == std::string::npos) comma = line.size();
    const std::string item = line.substr(pos, comma - pos);
    if (!item.empty()) req.targets.push_back(parse_vertex(item));
    pos = comma + 1;
  }
  if (req.targets.empty()) {
    throw std::invalid_argument("at least one target required");
  }
  return req;
}

/// "<source> <k>" -> kTopK request. Throws on any malformed piece.
QueryRequest parse_topk(const std::string& rest, QueryEngine engine) {
  const std::size_t space = rest.find(' ');
  if (space == std::string::npos) {
    throw std::invalid_argument("expected 'topk <source> <k>'");
  }
  QueryRequest req;
  req.kind = RequestKind::kTopK;
  req.source = parse_vertex(rest.substr(0, space));
  // parse_vertex's strict digits-and-range contract fits k as well.
  req.k = parse_vertex(rest.substr(space + 1));
  req.engine = engine;
  return req;
}

/// "<u> <v> <w>[;<u> <v> <w>...]" -> weight updates. Throws on any
/// malformed piece; weights share parse_vertex's strict digits contract.
std::vector<WeightUpdate> parse_updates(const std::string& rest) {
  std::vector<WeightUpdate> updates;
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    std::size_t semi = rest.find(';', pos);
    if (semi == std::string::npos) semi = rest.size();
    const std::string item = rest.substr(pos, semi - pos);
    pos = semi + 1;
    if (item.empty()) continue;
    const std::size_t s1 = item.find(' ');
    const std::size_t s2 =
        s1 == std::string::npos ? std::string::npos : item.find(' ', s1 + 1);
    if (s2 == std::string::npos) {
      throw std::invalid_argument("expected '<u> <v> <w>[;...]'");
    }
    WeightUpdate up;
    up.u = parse_vertex(item.substr(0, s1));
    up.v = parse_vertex(item.substr(s1 + 1, s2 - s1 - 1));
    up.w = static_cast<Weight>(parse_vertex(item.substr(s2 + 1)));
    updates.push_back(up);
  }
  if (updates.empty()) {
    throw std::invalid_argument("expected '<u> <v> <w>[;...]'");
  }
  return updates;
}

std::string format_update_report(const rs::serve::UpdateReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ok epoch=%llu updated=%llu dirty=%llu/%llu ms=%.2f",
                static_cast<unsigned long long>(r.epoch),
                static_cast<unsigned long long>(r.updated_arcs),
                static_cast<unsigned long long>(r.dirty_balls),
                static_cast<unsigned long long>(r.total_balls),
                r.incremental_ms);
  return buf;
}

std::string format_targets(const QueryResponse& resp, bool topk) {
  std::string out;
  for (const TargetResult& tr : resp.targets) {
    if (!out.empty()) out += ' ';
    if (topk) {
      out += std::to_string(tr.target);
      out += ':';
    }
    out += tr.dist == kInfDist ? "inf" : std::to_string(tr.dist);
  }
  if (out.empty()) out = topk ? "none" : "";
  return out;
}

/// Serves one protocol line; always returns exactly one response line.
/// Recognizes the v2 verbs (q / topk / stats / epoch, plus the dynamic
/// update / stage / flush / qc when `dyn` is non-null) and falls back to
/// the bare legacy "<source> <targets>" form for anything else.
std::string answer_line(SsspServer& server, rs::serve::DynamicSsspService* dyn,
                        const std::string& line, QueryEngine qe) {
  const std::size_t sp = line.find(' ');
  const std::string verb = line.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

  if (verb == "stats") return format_stats_line(server);
  if (verb == "metrics") {
    std::string out = server.export_metrics(rest == "json"
                                                ? MetricsFormat::kJson
                                                : MetricsFormat::kPrometheus);
    // The front-ends append the terminating newline themselves.
    while (!out.empty() && out.back() == '\n') out.pop_back();
    return out;
  }
  if (verb == "epoch") {
    return std::to_string(server.engine_snapshot()->graph_epoch());
  }
  if (verb == "update" || verb == "stage" || verb == "flush" ||
      verb == "qc") {
    if (dyn == nullptr) {
      return "error: dynamic verbs need --dynamic 1 (in-process "
             "preprocessing)";
    }
    try {
      if (verb == "update") {
        return format_update_report(dyn->apply_updates(parse_updates(rest)));
      }
      if (verb == "stage") {
        const rs::serve::UpdateReport r = dyn->stage(parse_updates(rest));
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "staged epoch=%llu updated=%llu pending=%llu",
                      static_cast<unsigned long long>(r.epoch),
                      static_cast<unsigned long long>(r.updated_arcs),
                      static_cast<unsigned long long>(r.staged));
        return buf;
      }
      if (verb == "flush") return format_update_report(dyn->flush());
      return format_targets(dyn->serve_corrected(parse_line(rest, qe)),
                            /*topk=*/false);
    } catch (const std::exception& e) {
      return std::string("error: ") + e.what();
    }
  }

  QueryRequest req;
  try {
    if (verb == "q") {
      req = parse_line(rest, qe);
    } else if (verb == "topk") {
      req = parse_topk(rest, qe);
    } else {
      req = parse_line(line, qe);  // legacy bare form
    }
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
  const bool topk = req.kind == RequestKind::kTopK;
  std::future<QueryResponse> fut;
  const SubmitStatus status = server.submit(std::move(req), fut);
  if (status != SubmitStatus::kAccepted) {
    return std::string("error: ") + to_string(status);
  }
  return format_targets(fut.get(), topk);
}

/// Longest request line either front-end accepts, in bytes before its
/// newline. It also caps each connection's buffer: a line that outgrows it
/// is answered with kLineTooLong instead of being buffered further.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
const std::string kLineTooLong = "error: line too long";

/// Splits the byte stream of `fd` into protocol lines (stdin and TCP
/// alike). A line longer than kMaxLineBytes is reported once as kTooLong
/// and the rest of it, up to its newline, is skipped; the buffer never
/// holds more than kMaxLineBytes plus one read.
class LineReader {
 public:
  enum class Status { kLine, kTooLong, kEnd };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line without its "\n" or "\r\n"; a final unterminated line is
  /// returned at end of stream.
  Status next(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scanned_);
      if (nl != std::string::npos) {
        const bool skipped = skipping_;
        skipping_ = false;
        if (!skipped) line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        if (skipped) continue;  // the tail of a line already reported
        return finish(line);
      }
      scanned_ = buf_.size();
      if (buf_.size() > kMaxLineBytes) {
        buf_.clear();
        scanned_ = 0;
        if (!skipping_) {
          skipping_ = true;
          return Status::kTooLong;
        }
      }
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        if (buf_.empty() || skipping_) return Status::kEnd;
        line.swap(buf_);
        buf_.clear();
        scanned_ = 0;
        return finish(line);
      }
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  static Status finish(std::string& line) {
    if (line.size() > kMaxLineBytes) return Status::kTooLong;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return Status::kLine;
  }

  int fd_;
  std::string buf_;
  std::size_t scanned_ = 0;  // bytes of buf_ known to hold no newline
  bool skipping_ = false;    // inside a line already reported too long
};

/// Writes all of `data` to socket `fd`, resuming after short writes and
/// EINTR. MSG_NOSIGNAL turns a peer that already closed into an error
/// return instead of a SIGPIPE that would stop the daemon.
bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t put =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    done += static_cast<std::size_t>(put);
  }
  return true;
}

/// Shutdown print: the SAME registry-backed line the `stats` verb answers
/// with, so the two can never drift apart.
void print_stats(const SsspServer& server) {
  std::fprintf(stderr, "sssp_serve: %s\n",
               format_stats_line(server).c_str());
}

volatile std::sig_atomic_t g_stop = 0;
int g_listen_fd = -1;

void on_signal(int) {
  g_stop = 1;
  // Closing the listener unblocks accept() so the main loop can drain.
  if (g_listen_fd >= 0) ::close(g_listen_fd);
}

/// Blocking TCP front-end: line protocol, one thread per connection. All
/// connections feed the same server, so requests from different clients
/// are served by shared teams. Threads of closed connections are joined
/// on the next accept, so they do not pile up over the daemon's
/// lifetime. Once the listener closes, every still-open connection is
/// shut down for reading: a thread blocked in read() sees EOF, and a
/// reply already being answered is still written.
int tcp_serve(SsspServer& server, rs::serve::DynamicSsspService* dyn,
              QueryEngine engine, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("sssp_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    std::perror("sssp_serve: bind/listen");
    ::close(fd);
    return 1;
  }
  g_listen_fd = fd;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::fprintf(stderr, "sssp_serve: listening on port %d\n", port);

  // Open client sockets. A thread removes its fd under the lock before
  // closing it, so the shutdown pass below never touches a reused fd.
  std::mutex clients_mutex;
  std::set<int> clients;
  // Connection threads; each raises its flag as its last act, and the
  // accept loop joins the flagged ones. A list, so a flag never moves.
  struct Conn {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::list<Conn> conns;
  while (g_stop == 0) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) break;  // listener closed by the signal handler
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->finished.load(std::memory_order_acquire)) {
        it->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    {
      const std::lock_guard<std::mutex> lock(clients_mutex);
      clients.insert(client);
    }
    Conn& conn = conns.emplace_back();
    // By reference: everything captured outlives the joined threads.
    conn.thread = std::thread([&, client, finished = &conn.finished] {
      LineReader reader(client);
      std::string line;
      for (;;) {
        const LineReader::Status st = reader.next(line);
        if (st == LineReader::Status::kEnd) break;
        if (st == LineReader::Status::kLine && line.empty()) continue;
        const bool too_long = st == LineReader::Status::kTooLong;
        const std::string reply =
            (too_long ? kLineTooLong : answer_line(server, dyn, line, engine)) +
            "\n";
        // An over-long line closes the connection: its buffer stays capped.
        if (!write_all(client, reply) || too_long) break;
      }
      {
        const std::lock_guard<std::mutex> lock(clients_mutex);
        clients.erase(client);
      }
      ::close(client);
      finished->store(true, std::memory_order_release);
    });
  }
  {
    const std::lock_guard<std::mutex> lock(clients_mutex);
    for (const int client : clients) ::shutdown(client, SHUT_RD);
  }
  for (Conn& conn : conns) conn.thread.join();
  if (g_stop == 0) ::close(fd);
  return 0;
}

/// Stdin front-end: one request line in, one response line out.
int stdio_serve(SsspServer& server, rs::serve::DynamicSsspService* dyn,
                QueryEngine engine) {
  LineReader reader(STDIN_FILENO);
  std::string line;
  for (;;) {
    const LineReader::Status st = reader.next(line);
    if (st == LineReader::Status::kEnd) break;
    if (st == LineReader::Status::kLine && line.empty()) continue;
    const std::string reply = st == LineReader::Status::kTooLong
                                  ? kLineTooLong
                                  : answer_line(server, dyn, line, engine);
    std::printf("%s\n", reply.c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// No-argument mode: a self-verifying concurrent demo of the daemon.
int demo() {
  Graph g = gen::road_network(24, 24, /*seed=*/3);
  g = assign_uniform_weights(g, /*seed=*/10, 1, 1000);
  PreprocessOptions popts;
  popts.rho = 16;
  popts.k = 2;
  const SsspEngine engine(g, popts);

  ServerOptions opts;
  opts.queue_capacity = 256;
  opts.max_batch = 16;
  opts.batch_budget = std::chrono::microseconds(500);
  opts.batchers = 2;
  opts.enable_cache = true;  // demo doubles as a cache-coherence smoke
  SsspServer server(engine, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // Sources cycle through a pool of 8, so the cache both misses
        // (first touch) and hits (revisits) under concurrency; cached
        // answers must still match direct engine serves bit for bit.
        QueryRequest req;
        req.source = static_cast<Vertex>((c * 131 + i * 17) % 8);
        req.targets = {static_cast<Vertex>((c * 7 + i * 53) %
                                           engine.original_graph()
                                               .num_vertices())};
        const QueryResponse got = server.serve_sync(req);
        const QueryResponse want = engine.serve(req);
        if (got.targets[0].dist != want.targets[0].dist) {
          mismatches.fetch_add(1);
        }
        // Every 8th request doubles as a top-k probe.
        if (i % 8 == 0) {
          QueryRequest tk;
          tk.kind = RequestKind::kTopK;
          tk.source = req.source;
          tk.k = 5;
          const QueryResponse got_k = server.serve_sync(tk);
          const QueryResponse want_k = engine.serve(tk);
          if (got_k.targets.size() != want_k.targets.size()) {
            mismatches.fetch_add(1);
          } else {
            for (std::size_t j = 0; j < got_k.targets.size(); ++j) {
              if (got_k.targets[j].target != want_k.targets[j].target ||
                  got_k.targets[j].dist != want_k.targets[j].dist) {
                mismatches.fetch_add(1);
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();
  print_stats(server);
  server.shutdown();

  const ServerStats s = server.stats();
  constexpr int kTotal =
      kClients * kPerClient + kClients * (kPerClient / 8);  // + topk probes
  const bool counters_ok = s.accepted == kTotal && s.in_flight() == 0;
  // 8 hot sources under 72 eligible-or-probe requests: the cache must
  // have produced hits (misses alone would mean the keying is broken).
  const bool cache_ok = s.cache_hits > 0;
  if (mismatches.load() != 0 || !counters_ok || !cache_ok) {
    std::fprintf(stderr,
                 "sssp_serve demo: FAILED (%d mismatches, hits=%llu)\n",
                 mismatches.load(),
                 static_cast<unsigned long long>(s.cache_hits));
    return 1;
  }
  std::printf("sssp_serve demo: %d requests across %d clients, all "
              "verified (%llu cache hits)\n",
              kTotal, kClients,
              static_cast<unsigned long long>(s.cache_hits));

  // Dynamic segment: churn weights through the live-update service. Each
  // round stages a batch (answers corrected against the published epoch
  // must match Dijkstra on the mutated graph), then flushes (the swapped
  // epoch must serve the same row natively).
  rs::serve::DynamicSsspService::Options dopts;
  dopts.preprocess = popts;
  dopts.server = opts;
  rs::serve::DynamicSsspService dyn(g, dopts);
  Graph shadow = g;
  std::mt19937 rng(77);
  std::uniform_int_distribution<Weight> wdist(1, 1000);
  int dyn_mismatches = 0;
  for (int round = 0; round < 3; ++round) {
    std::uniform_int_distribution<EdgeId> adist(0, shadow.num_edges() - 1);
    std::vector<WeightUpdate> batch;
    for (int i = 0; i < 4; ++i) {
      const EdgeId e = adist(rng);
      Vertex u = 0;
      while (shadow.last_arc(u) <= e) ++u;
      batch.push_back(WeightUpdate{u, shadow.arc_target(e), wdist(rng)});
    }
    shadow = apply_weight_updates(shadow, batch).graph;
    dyn.stage(batch);
    const std::vector<Vertex> sources = {0, 99};
    std::vector<QueryRequest> reqs;
    for (const Vertex source : sources) {
      QueryRequest req;
      req.source = source;
      req.targets.push_back(static_cast<Vertex>(round * 37 + 11));
      req.targets.push_back(static_cast<Vertex>(shadow.num_vertices() - 1));
      reqs.push_back(std::move(req));
    }
    // Staged but not flushed: the corrected path must already be exact.
    for (const QueryRequest& req : reqs) {
      const std::vector<Dist> want = dijkstra(shadow, req.source);
      const QueryResponse corrected = dyn.serve_corrected(req);
      for (std::size_t j = 0; j < req.targets.size(); ++j) {
        if (corrected.targets[j].dist != want[req.targets[j]]) {
          ++dyn_mismatches;
        }
      }
    }
    dyn.flush();
    // Swapped epoch: the daemon serves the new weights natively.
    for (const QueryRequest& req : reqs) {
      const std::vector<Dist> want = dijkstra(shadow, req.source);
      const QueryResponse swapped = dyn.server().serve_sync(req);
      for (std::size_t j = 0; j < req.targets.size(); ++j) {
        if (swapped.targets[j].dist != want[req.targets[j]]) {
          ++dyn_mismatches;
        }
      }
    }
  }
  const std::uint64_t final_epoch = dyn.server().stats().epoch;
  if (dyn_mismatches != 0 || final_epoch < 2) {
    std::fprintf(stderr,
                 "sssp_serve demo: dynamic FAILED (%d mismatches, "
                 "epoch=%llu)\n",
                 dyn_mismatches,
                 static_cast<unsigned long long>(final_epoch));
    return 1;
  }
  std::printf("sssp_serve demo: dynamic churn verified across %llu "
              "epoch swaps\n",
              static_cast<unsigned long long>(final_epoch - 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (args.positional().empty()) return demo();

  try {
    const std::string which = args.get("--engine", "flat");
    if (which != "flat" && which != "bst") {
      throw std::invalid_argument("unknown --engine " + which +
                                  " (flat|bst)");
    }
    const QueryEngine qe =
        which == "bst" ? QueryEngine::kBst : QueryEngine::kFlat;

    // Every numeric flag is range-checked before the graph loads: a
    // narrowing cast must never turn a typo into a different setting.
    constexpr long kMaxCount = 1L << 24;  // the queue ring is preallocated
    constexpr long kMaxU32 = std::numeric_limits<std::uint32_t>::max();
    constexpr long kMaxVertex = std::numeric_limits<Vertex>::max();
    const int port =
        static_cast<int>(get_checked(args, "--port", 0, 1, 65535));
    ServerOptions opts;
    opts.queue_capacity = static_cast<std::size_t>(
        get_checked(args, "--queue", 1024, 1, kMaxCount));
    opts.max_batch = static_cast<std::size_t>(
        get_checked(args, "--max-batch", 64, 1, kMaxCount));
    opts.batch_budget = std::chrono::microseconds(
        get_checked(args, "--budget-us", 200, 0, kMaxU32));
    opts.batchers =
        static_cast<int>(get_checked(args, "--batchers", 1, 1, kMaxWorkers));
    opts.enable_cache = get_checked(args, "--cache", 0, 0, 1) != 0;
    opts.trace_sample = static_cast<std::uint32_t>(get_checked(
        args, "--trace-sample",
        static_cast<long>(rs::obs::trace_sample_from_env()), 0, kMaxU32));
    opts.slow_query_us = static_cast<std::uint64_t>(
        get_checked(args, "--slow-query-us", 0, 0, kMaxU32));
    const long landmarks = get_checked(args, "--landmarks", 0, 0, kMaxVertex);
    if (landmarks > 0) {
      opts.enable_landmarks = true;
      opts.landmarks.count = static_cast<std::size_t>(landmarks);
    }

    PreprocessOptions popts;
    popts.rho =
        static_cast<Vertex>(get_checked(args, "--rho", 64, 1, kMaxVertex));
    popts.k = static_cast<Vertex>(get_checked(args, "--k", 3, 1, kMaxVertex));
    const bool dynamic = get_checked(args, "--dynamic", 0, 0, 1) != 0;
    const auto flush_ms = static_cast<std::uint32_t>(
        get_checked(args, "--flush-ms", 0, 0, kMaxU32));
    const double flush_dirty =
        examples::get_checked_real(args, "--flush-dirty", 0.0, 0.0, 1.0);

    const std::string graph_path = args.positional()[0];
    Graph g = graph_path.size() > 3 &&
                      graph_path.substr(graph_path.size() - 3) == ".gr"
                  ? io::read_dimacs_file(graph_path)
                  : io::read_edge_list_file(graph_path);

    // --dynamic needs the preprocessor's warm state, so it is only
    // available on the in-process preprocessing path; a loaded .pre file
    // serves the static flow unchanged.
    std::unique_ptr<rs::serve::DynamicSsspService> dyn;
    std::unique_ptr<SsspServer> static_server;
    if (dynamic) {
      if (args.positional().size() >= 2) {
        throw std::invalid_argument(
            "--dynamic 1 requires in-process preprocessing (omit the "
            ".pre file)");
      }
      rs::serve::DynamicSsspService::Options dopts;
      dopts.preprocess = popts;
      dopts.server = opts;
      dopts.flush_interval_ms = flush_ms;
      dopts.flush_dirty_fraction = flush_dirty;
      dyn = std::make_unique<rs::serve::DynamicSsspService>(std::move(g),
                                                            dopts);
    } else {
      auto engine = args.positional().size() >= 2
                        ? std::make_shared<const SsspEngine>(
                              std::move(g),
                              load_preprocessing_file(args.positional()[1]))
                        : std::make_shared<const SsspEngine>(std::move(g),
                                                             popts);
      static_server =
          std::make_unique<SsspServer>(std::move(engine), opts);
    }
    SsspServer& server = dyn != nullptr ? dyn->server() : *static_server;

    const int rc = port > 0 ? tcp_serve(server, dyn.get(), qe, port)
                            : stdio_serve(server, dyn.get(), qe);
    server.drain();
    print_stats(server);
    server.shutdown();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
