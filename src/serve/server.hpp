/// \file
/// SsspServer: the long-running serving daemon over an SsspEngine.
///
/// \code
///   auto engine = std::make_shared<SsspEngine>(graph, opts);
///   SsspServer server(engine, {.queue_capacity = 1024,
///                              .max_batch = 64,
///                              .batch_budget = microseconds(200)});
///   std::future<QueryResponse> fut;
///   if (server.submit(std::move(req), fut) == SubmitStatus::kAccepted) {
///     QueryResponse resp = fut.get();
///   }
///   server.shutdown();  // stop accepting, drain in-flight, join batchers
/// \endcode
///
/// Architecture (one request's life):
///
/// \verbatim
///   client threads ──submit()──► BoundedQueue ──pop──► batcher thread(s)
///        │ validate + admission      (backpressure)  │    │ first request,
///        │ control at the edge                       │    ▼ + budget wait
///        │                                pop_for()  │  team of workers
///        ▼                                           └──► (each: one
///   SubmitStatus / future ◄──promise◄── its own run ends ◄─ query at a time)
/// \endverbatim
///
/// Work-conserving teams: a batcher blocks for the first request, then
/// waits up to batch_budget for a second. A request still alone when the
/// budget expires runs by itself with intra-query parallelism. Otherwise
/// the batcher opens a team of num_workers() workers under one engine (and
/// oracle) pin, through SsspEngine::serve_stream: each worker serves one
/// request at a time on its own warm sequential context, fulfills that
/// request's promise the moment its run ends, and pulls the next request
/// straight from the queue. No answer waits for a slower team-mate, and a
/// free worker never waits for a batch to form. The team ends when the
/// queue is empty and every worker is idle, once it has served
/// max_batch requests (which bounds how long one snapshot pin is held),
/// when the next request was admitted after a swap (see below), or on
/// pause(); an idle worker waits by blocking on the queue, never by
/// spinning.
/// Under load the budget costs nothing (the second request is already
/// queued); when idle a lone request waits out at most one budget.
///
/// Admission control: requests are validated at submit time (kInvalid) so
/// a bad request is rejected alone before it reaches a team, and the
/// bounded queue sheds load (kQueueFull) instead of queueing without
/// limit. Both rejections are cheap constant-time paths.
///
/// Live graph swaps: the server holds its engine in a SnapshotSwap (the
/// RCU pattern of graph/graph_swap.hpp). Every submit and
/// every team pins the pointer ONCE and serves entirely from that
/// snapshot, so swap_engine() can publish a successor (built with
/// SsspEngine::next_epoch) mid-traffic: in-flight work finishes on the
/// old epoch, new work starts on the new one, and no request ever
/// observes a torn state. A team takes from the queue only requests
/// admitted under its own epoch or an older one: the first request
/// admitted after a swap ends the team and opens the next one under a
/// fresh pin, so no request runs on an epoch older than its admission's.
/// The old engine is destroyed when its last pin drops.
///
/// Lifecycle: counter-based in-flight tracking (accepted vs completed)
/// drives drain() — block until everything admitted so far has completed
/// — and shutdown() = stop admitting, close the queue (buffered requests
/// still drain), join the batchers. A request's promise is always
/// completed: with a response, or with the exception its own run raised —
/// a failing request never fails its team-mates.
///
/// Every completion records end-to-end latency (submit to promise
/// fulfillment, queueing and coalescing included — the number a client
/// actually experiences) into an allocation-free obs::Histogram.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "graph/graph_swap.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/landmark_oracle.hpp"
#include "serve/request_queue.hpp"
#include "serve/result_cache.hpp"

namespace rs::serve {

/// Outcome of SsspServer::submit. Only kAccepted produces a future.
enum class SubmitStatus : std::uint8_t {
  kAccepted,      ///< Admitted; the future will be fulfilled.
  kQueueFull,     ///< Backpressure: queue at capacity, try again later.
  kShuttingDown,  ///< Server no longer admits requests.
  kInvalid,       ///< Request failed SsspEngine::validate (bad source,
                  ///< target, or engine choice).
};

/// Stable lowercase token for a SubmitStatus ("accepted", "queue_full",
/// "shutting_down", "invalid") — the wire/protocol spelling.
const char* to_string(SubmitStatus status);

/// Construction-time configuration of an SsspServer.
struct ServerOptions {
  /// Admission buffer depth; pushes beyond it are rejected kQueueFull.
  std::size_t queue_capacity = 1024;

  /// Most requests one team (batch) serves under one engine pin. 1 never
  /// opens a team: every request runs alone.
  std::size_t max_batch = 64;

  /// How long a batcher waits for a second request after the first one
  /// before running the first alone. Zero means "look at what is already
  /// queued, never wait".
  std::chrono::microseconds batch_budget{200};

  /// Number of batcher threads, each running its own teams. Each
  /// concurrent team leases its own warm context pool inside the engine;
  /// more than one batcher oversubscribes the workers.
  int batchers = 1;

  /// Start with batchers parked (see pause()). Requests queue but are not
  /// served until resume() — how tests set up deterministic queue-full
  /// and coalescing scenarios.
  bool start_paused = false;

  /// Hot-source result cache (serve/result_cache.hpp). Cache-eligible
  /// requests (kTargets, no paths) that hit a cached full-distance row
  /// are answered synchronously AT SUBMIT TIME — no queue, no batching,
  /// no engine run: O(|targets|) per hit. Misses are computed once per
  /// (source, engine, graph_epoch) and shared single-flight: the first
  /// miss is upgraded to a full-distance run whose row every concurrent
  /// duplicate reuses.
  bool enable_cache = false;
  /// Sharding/capacity knobs for the cache (used iff enable_cache).
  ResultCacheOptions cache;

  /// Landmark (ALT) oracle: built at server construction (count full SSSP
  /// runs) and used to annotate targeted requests with admissible
  /// per-target lower bounds, letting the engines prove far targets
  /// settled early. Only annotates while the oracle matches the engine's
  /// graph_epoch — swap_engine() rebuilds it for each successor.
  bool enable_landmarks = false;
  /// Selection knobs for the oracle (used iff enable_landmarks).
  LandmarkOptions landmarks;

  /// Trace every Nth admitted request (0 = off): sampled requests get a
  /// per-request span breakdown in QueryResponse::trace (obs/trace.hpp)
  /// and the engines time their phases for them. The daemon wires
  /// `--trace-sample` / the RS_TRACE env into this.
  std::uint32_t trace_sample = 0;

  /// Slow-query log threshold in microseconds (0 = off): any request
  /// whose end-to-end latency reaches it dumps a one-line station
  /// breakdown to stderr and bumps rs_slow_queries_total. Works for
  /// untraced requests too (station marks are kept whenever either knob
  /// is on); traced requests add their engine-phase detail.
  std::uint64_t slow_query_us = 0;
};

/// Monotonic counters, readable at any time without stopping the server.
/// format_stats_line() renders every field; the daemon's `stats` verb and
/// the README metric table are generated from that single source.
struct ServerStats {
  std::uint64_t accepted = 0;           ///< Admitted into the queue.
  std::uint64_t rejected_full = 0;      ///< kQueueFull rejections (shed).
  std::uint64_t rejected_invalid = 0;   ///< kInvalid rejections.
  std::uint64_t rejected_shutdown = 0;  ///< kShuttingDown rejections.
  std::uint64_t completed = 0;          ///< Promises fulfilled.
  std::uint64_t batches = 0;            ///< Teams run (lone runs too).
  std::uint64_t max_batch = 0;          ///< Most requests one team served.
  std::uint64_t cache_hits = 0;         ///< Answered from a cached row.
  std::uint64_t cache_misses = 0;       ///< Owner + single-flight-waiter
                                        ///< acquisitions (0, cache off).
  /// Targets proven settled by an ALT lower bound across all completed
  /// requests (sum of QueryResponse::lower_bound_exits).
  std::uint64_t lower_bound_exits = 0;
  /// graph_epoch() of the currently-published engine snapshot.
  std::uint64_t epoch = 0;
  /// swap_engine() calls that have published a successor engine.
  std::uint64_t swaps = 0;

  /// Requests traced by the sampling knob (trace_sample).
  std::uint64_t traced = 0;
  /// Requests at or over the slow-query threshold (slow_query_us).
  std::uint64_t slow_queries = 0;

  /// Requests admitted but not yet completed (queued or being served).
  std::uint64_t in_flight() const { return accepted - completed; }
  /// Mean requests per team — how long teams stay open under load.
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches);
  }
};

/// Which rendering SsspServer::export_metrics produces.
enum class MetricsFormat : std::uint8_t {
  kPrometheus,  ///< Text exposition format (scrapable; `metrics` verb).
  kJson,        ///< One-line JSON array (`metrics json` verb).
};

/// The serving daemon (see file comment for the architecture).
class SsspServer {
 public:
  /// Non-owning form: the engine must outlive the server and must not be
  /// mutated while serving. Batcher threads start immediately (parked if
  /// opts.start_paused). swap_engine() works from here too — it simply
  /// publishes an owning successor over the borrowed original.
  explicit SsspServer(const SsspEngine& engine, ServerOptions opts = {});

  /// Owning form — the one dynamic deployments use: the server shares
  /// ownership of the engine snapshot and swap_engine() can retire it
  /// safely once the last in-flight pin drops.
  explicit SsspServer(std::shared_ptr<const SsspEngine> engine,
                      ServerOptions opts = {});

  /// shutdown() if the caller has not already.
  ~SsspServer();

  SsspServer(const SsspServer&) = delete;
  SsspServer& operator=(const SsspServer&) = delete;

  /// Admission: validates, then enqueues. On kAccepted, `result` is a
  /// future fulfilled the moment the request's own run ends (with the
  /// response, or the exception that run raised). On any rejection
  /// `result` is untouched and nothing was enqueued.
  SubmitStatus submit(QueryRequest req, std::future<QueryResponse>& result);

  /// Convenience blocking call: submit + wait. Throws std::runtime_error
  /// on admission rejection (message names the SubmitStatus).
  QueryResponse serve_sync(QueryRequest req);

  /// Parks the batchers: once pause() returns, no team takes another
  /// request from the queue, and a request a waiting batcher takes is held
  /// until resume(). Requests a team already holds finish; the rest keep
  /// queueing, and none are served until resume(). The
  /// deterministic-test hook (fill the queue, assert coalescing) and an
  /// operational pressure valve (e.g. while swapping the engine).
  void pause();
  /// Unparks the batchers; the inverse of pause().
  void resume();

  /// Blocks until in_flight() reaches zero — every request admitted
  /// before (or during) the drain has completed. Does not stop admission;
  /// call pause() or shutdown() first for a quiescent point. Self-
  /// deadlocks if the server is paused with requests buffered.
  void drain();

  /// Stops admission, lets the queue drain (buffered requests are still
  /// served), joins the batchers. Idempotent; safe to call concurrently.
  void shutdown();

  /// Snapshot of every monotonic counter (plus the live epoch). Reads the
  /// metrics registry — the same cells `stats` verb, shutdown print, and
  /// export_metrics() render, so the three can never disagree.
  ServerStats stats() const;

  /// The server's metrics registry: every counter above lives here, and
  /// co-located subsystems (DynamicSsspService) register their own series
  /// alongside so one scrape covers the whole deployment.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Renders the full registry — counters, gauges, the latency summary —
  /// as Prometheus text exposition or JSON. Live gauges (epoch, in-flight)
  /// are refreshed first, so a scrape is always current.
  std::string export_metrics(
      MetricsFormat format = MetricsFormat::kPrometheus) const;

  /// End-to-end request latency (microseconds, submit to completion).
  const obs::Histogram& latency() const { return latency_; }

  /// The options the server was constructed with.
  const ServerOptions& options() const { return opts_; }

  /// Cache counters (all-zero when the cache is disabled).
  ResultCacheStats cache_stats() const;

  /// Pins the landmark oracle snapshot, or null when disabled. Like the
  /// engine, the oracle is epoch-swapped: the returned pointer stays
  /// valid across concurrent swap_engine() calls.
  std::shared_ptr<const LandmarkOracle> oracle() const;

  /// Pins the currently-published engine snapshot (never null). The
  /// engine stays alive for as long as the caller holds the pointer, no
  /// matter how many swaps race past — the way to stamp answers or read
  /// graph_epoch() consistently from outside.
  std::shared_ptr<const SsspEngine> engine_snapshot() const;

  /// Publishes `next` as the engine for all FUTURE work, mid-traffic and
  /// without a quiescent point: in-flight submits and teams
  /// finish on the snapshot they pinned; the old engine is destroyed when
  /// its last pin drops. Purges cache rows of epochs older than `next`'s
  /// (a stale key can never match again — free its memory eagerly) and
  /// rebuilds the landmark oracle against `next`. Build `next` with
  /// SsspEngine::next_epoch so the epoch strictly increases.
  void swap_engine(std::shared_ptr<const SsspEngine> next);

 private:
  /// How a request's answer is produced. Cache hits never reach the
  /// queue; owners and waiters carry their single-flight obligations
  /// through the batcher.
  enum class CacheRole : std::uint8_t { kDirect, kOwner, kWaiter };

  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    /// graph_epoch() of the snapshot submit() validated it against. A
    /// team pinned to an older snapshot never takes it.
    std::uint64_t epoch = 0;
    std::chrono::steady_clock::time_point accepted_at;
    CacheRole role = CacheRole::kDirect;
    CacheKey key;                              // kOwner/kWaiter
    std::shared_future<RowPtr> pending_row;    // kWaiter

    /// Sampled for a span breakdown (ServerOptions::trace_sample).
    bool traced = false;
    // Station marks, stamped only while tracing or the slow-query log is
    // on (marks_enabled_): the depth-0 spans tile [accepted_at, complete]
    // exactly, so their durations sum to the end-to-end latency. A
    // default (epoch-zero) t_enqueued means the request never entered the
    // queue — the synchronous cache-hit path.
    std::chrono::steady_clock::time_point t_enqueued{};
    std::chrono::steady_clock::time_point t_popped{};
    std::chrono::steady_clock::time_point t_exec{};
    std::chrono::steady_clock::time_point t_engine_done{};
  };

  class Team;

  void batcher_loop();
  /// Runs one team over `seeds` (one seed: a lone request) and whatever
  /// it pulls from the queue, fulfilling each promise as its run ends.
  /// Never throws.
  void serve_team(std::vector<Pending>& seeds);
  /// Blocks while paused. Returns false when the server is stopping.
  bool wait_not_paused();

  /// Completes one request (latency record + promise + drain counters).
  void complete(Pending& p, QueryResponse&& resp);
  /// Completes one request with `err` (and fails its cache entry when it
  /// owns one).
  void fail(Pending& p, std::exception_ptr err);

  /// Builds the traced span breakdown (and serves the slow-query log)
  /// for one completing request. `now` is the completion instant.
  void assemble_trace(Pending& p, QueryResponse& resp,
                      std::chrono::steady_clock::time_point now,
                      std::uint64_t e2e_us);

  // The published engine snapshot: submit pins once per request,
  // serve_team once per team, and swap_engine publishes a successor.
  // Never null after construction.
  SnapshotSwap<SsspEngine> engine_;
  const ServerOptions opts_;

  // THE counter source of truth: every ServerStats field is a registry
  // series, and stats()/format_stats_line/export_metrics all read these
  // same cells. Registration happens once, in the constructor; the
  // references below are stable handles whose updates are single relaxed
  // fetch_adds (no lock, no lookup, no allocation on the hot path).
  obs::MetricsRegistry metrics_;
  obs::Counter& accepted_;
  obs::Counter& completed_;
  obs::Counter& rejected_full_;
  obs::Counter& rejected_invalid_;
  obs::Counter& rejected_shutdown_;
  obs::Counter& batches_;
  obs::Gauge& max_batch_;  // high-watermark (record_max)
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& lb_exits_;
  obs::Counter& swaps_;
  obs::Counter& traced_;
  obs::Counter& slow_queries_;
  obs::Gauge& epoch_gauge_;      // refreshed on swap + export
  obs::Gauge& in_flight_gauge_;  // refreshed on export
  obs::Histogram& latency_;

  // Trace sampling state: request sequence number for the every-Nth
  // pick, and whether station marks are stamped at all.
  std::atomic<std::uint64_t> trace_seq_{0};
  const bool marks_enabled_;

  // Caching/oracle layer (null when disabled). The oracle is swapped
  // with the engine: batchers pin it alongside the engine snapshot and
  // check valid_for() against that same snapshot, so an oracle mid-
  // rebuild never annotates a request with cross-epoch bounds.
  std::unique_ptr<ResultCache> cache_;
  SnapshotSwap<LandmarkOracle> oracle_;

  BoundedQueue<Pending> queue_;
  std::vector<std::thread> batchers_;

  // Admission gate. Set by shutdown() before the queue closes, so submit
  // can distinguish "full" from "shutting down".
  std::atomic<bool> stopping_{false};

  // Pause gate for the batchers. paused_ is written under pause_mutex_
  // (for pause_cv_) and read lock-free by team members under the queue's
  // lock.
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  std::atomic<bool> paused_{false};

  // In-flight tracking: accepted_ counts successful admissions,
  // completed_ counts fulfilled promises (both registry counters, see
  // above); drain() waits for the gap to close. completed_ is only
  // advanced under drain_mutex_ (then notified), so a drainer cannot
  // miss the final wakeup.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::once_flag shutdown_once_;
};

/// Renders `server.stats()` (plus latency percentiles) as the daemon's
/// one-line `stats` verb output — every ServerStats counter appears as
/// `name=value`, making the line greppable and keeping the CLI, the
/// fixture tests, and the README metric table in lockstep:
///
///   accepted=5 completed=5 shed=0 invalid=0 shutdown=0 batches=2
///   mean_batch=2.50 max_batch=4 cache_hits=1 cache_misses=4
///   lower_bound_exits=0 epoch=1 swaps=0 in_flight=0 p50_us=42 p99_us=91
///   p999_us=91 traced=0 slow=0
///
/// Every value is read from the server's MetricsRegistry — the same cells
/// the `metrics` exposition renders — so the two can never disagree.
std::string format_stats_line(const SsspServer& server);

}  // namespace rs::serve
