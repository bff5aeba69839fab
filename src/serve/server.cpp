#include "serve/server.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/export.hpp"

namespace rs::serve {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue_full";
    case SubmitStatus::kShuttingDown:
      return "shutting_down";
    case SubmitStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

SsspServer::SsspServer(const SsspEngine& engine, ServerOptions opts)
    // Non-owning alias: the caller guarantees the engine outlives the
    // server, so the deleter is a no-op. swap_engine() may later publish
    // an owning successor over this.
    : SsspServer(std::shared_ptr<const SsspEngine>(&engine,
                                                   [](const SsspEngine*) {}),
                 std::move(opts)) {}

SsspServer::SsspServer(std::shared_ptr<const SsspEngine> engine,
                       ServerOptions opts)
    : engine_(std::move(engine)),
      opts_(opts),
      accepted_(metrics_.counter("rs_requests_accepted_total", {},
                                 "Requests admitted into the queue")),
      completed_(metrics_.counter("rs_requests_completed_total", {},
                                  "Promises fulfilled")),
      rejected_full_(metrics_.counter("rs_requests_rejected_total",
                                      {{"reason", "queue_full"}},
                                      "Rejected requests by reason")),
      rejected_invalid_(metrics_.counter("rs_requests_rejected_total",
                                         {{"reason", "invalid"}},
                                         "Rejected requests by reason")),
      rejected_shutdown_(metrics_.counter("rs_requests_rejected_total",
                                          {{"reason", "shutdown"}},
                                          "Rejected requests by reason")),
      batches_(metrics_.counter("rs_batches_total", {},
                                "Teams run, each under one engine pin")),
      max_batch_(metrics_.gauge("rs_batch_max_width", {},
                                "Most requests one team has served")),
      cache_hits_(metrics_.counter("rs_cache_hits_total", {},
                                   "Requests answered from a cached row")),
      cache_misses_(metrics_.counter(
          "rs_cache_misses_total", {},
          "Cache-eligible requests that had to compute (owners + "
          "single-flight waiters)")),
      lb_exits_(metrics_.counter(
          "rs_lower_bound_exits_total", {},
          "Targets proven settled by an ALT lower bound")),
      swaps_(metrics_.counter("rs_engine_swaps_total", {},
                              "swap_engine() publications")),
      traced_(metrics_.counter("rs_traced_requests_total", {},
                               "Requests sampled for a span breakdown")),
      slow_queries_(metrics_.counter(
          "rs_slow_queries_total", {},
          "Requests at or over the slow-query threshold")),
      epoch_gauge_(metrics_.gauge("rs_graph_epoch", {},
                                  "Published engine snapshot epoch")),
      in_flight_gauge_(metrics_.gauge(
          "rs_in_flight", {}, "Requests admitted but not yet completed")),
      latency_(metrics_.histogram("rs_request_latency_us", {},
                                  "End-to-end request latency "
                                  "(microseconds, submit to completion)")),
      marks_enabled_(opts.trace_sample != 0 || opts.slow_query_us != 0),
      queue_(opts.queue_capacity) {
  const std::shared_ptr<const SsspEngine> eng = engine_.pin();
  if (eng == nullptr) {
    throw std::invalid_argument("SsspServer: null engine");
  }
  epoch_gauge_.set(static_cast<double>(eng->graph_epoch()));
  if (opts_.enable_cache) {
    cache_ = std::make_unique<ResultCache>(opts_.cache);
  }
  if (opts_.enable_landmarks) {
    // Built before the batchers start, so the rows never race a serve.
    oracle_.publish(
        std::make_shared<const LandmarkOracle>(*eng, opts_.landmarks));
  }
  paused_.store(opts_.start_paused, std::memory_order_relaxed);
  const int n = opts_.batchers < 1 ? 1 : opts_.batchers;
  batchers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    batchers_.emplace_back([this] { batcher_loop(); });
  }
}

SsspServer::~SsspServer() { shutdown(); }

SubmitStatus SsspServer::submit(QueryRequest req,
                                std::future<QueryResponse>& result) {
  if (stopping_.load(std::memory_order_acquire)) {
    rejected_shutdown_.add();
    return SubmitStatus::kShuttingDown;
  }
  // One pin for the whole admission path: validation and the cache key
  // come from the same snapshot even if a swap lands mid-submit.
  const std::shared_ptr<const SsspEngine> eng = engine_.pin();
  // Validate at the edge: a bad request is rejected on its own, before it
  // is queued.
  try {
    eng->validate(req);
  } catch (const std::invalid_argument&) {
    rejected_invalid_.add();
    return SubmitStatus::kInvalid;
  }

  Pending pending;
  pending.request = std::move(req);
  pending.epoch = eng->graph_epoch();
  pending.accepted_at = std::chrono::steady_clock::now();
  // Trace sampling: every Nth validated request gets the span treatment.
  // With the knob off this is one load and one branch — no clock, no
  // sequence bump, and the request flag stays false all the way down.
  if (opts_.trace_sample != 0) {
    const std::uint64_t seq =
        trace_seq_.fetch_add(1, std::memory_order_relaxed);
    if (seq % opts_.trace_sample == 0) {
      pending.traced = true;
      pending.request.trace = true;
      traced_.add();
    }
  }
  std::future<QueryResponse> fut = pending.promise.get_future();

  // Cache fast path: a hit is answered HERE, on the client thread —
  // O(|targets|) straight off the cached row, skipping the queue, the
  // batching budget, and the engine entirely. Misses enter the queue
  // carrying their single-flight role.
  if (cache_ != nullptr && cache_eligible(pending.request)) {
    const CacheKey key = key_for(*eng, pending.request);
    RowPtr row;
    std::shared_future<RowPtr> pending_row;
    switch (cache_->acquire(key, row, pending_row)) {
      case CacheAcquire::kHit: {
        cache_hits_.add();
        accepted_.add(1, std::memory_order_release);
        QueryResponse resp;
        answer_from_row(pending.request, *row, resp);
        complete(pending, std::move(resp));
        result = std::move(fut);
        return SubmitStatus::kAccepted;
      }
      case CacheAcquire::kOwner:
        cache_misses_.add();
        pending.role = CacheRole::kOwner;
        pending.key = key;
        break;
      case CacheAcquire::kWaiter:
        cache_misses_.add();
        pending.role = CacheRole::kWaiter;
        pending.key = key;
        pending.pending_row = std::move(pending_row);
        break;
    }
  }

  const CacheRole role = pending.role;
  const CacheKey key = pending.key;
  if (marks_enabled_) pending.t_enqueued = std::chrono::steady_clock::now();
  if (!queue_.try_push(std::move(pending))) {
    // An owner that never enters the queue would park its waiters
    // forever; release the in-flight entry before rejecting.
    if (role == CacheRole::kOwner) {
      cache_->fail(key, std::make_exception_ptr(std::runtime_error(
                            "SsspServer: owning request rejected")));
    }
    // A closed queue and a full queue both fail the push; report the one
    // the caller can act on.
    if (stopping_.load(std::memory_order_acquire)) {
      rejected_shutdown_.add();
      return SubmitStatus::kShuttingDown;
    }
    rejected_full_.add();
    return SubmitStatus::kQueueFull;
  }
  accepted_.add(1, std::memory_order_release);
  result = std::move(fut);
  return SubmitStatus::kAccepted;
}

QueryResponse SsspServer::serve_sync(QueryRequest req) {
  std::future<QueryResponse> fut;
  const SubmitStatus status = submit(std::move(req), fut);
  if (status != SubmitStatus::kAccepted) {
    throw std::runtime_error(std::string("SsspServer: request rejected: ") +
                             to_string(status));
  }
  return fut.get();
}

void SsspServer::pause() {
  std::lock_guard<std::mutex> lock(pause_mutex_);
  paused_.store(true, std::memory_order_release);
}

void SsspServer::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    paused_.store(false, std::memory_order_release);
  }
  pause_cv_.notify_all();
}

void SsspServer::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&] {
    return completed_.value(std::memory_order_acquire) ==
           accepted_.value(std::memory_order_acquire);
  });
}

void SsspServer::shutdown() {
  std::call_once(shutdown_once_, [&] {
    stopping_.store(true, std::memory_order_release);
    // Unpark the batchers so a paused server still drains its backlog.
    resume();
    // close() stops pushes but pops keep draining the buffer, so every
    // accepted request is served before the batchers see "closed+empty".
    queue_.close();
    for (std::thread& t : batchers_) t.join();
    batchers_.clear();
  });
}

ServerStats SsspServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.value(std::memory_order_acquire);
  s.rejected_full = rejected_full_.value();
  s.rejected_invalid = rejected_invalid_.value();
  s.rejected_shutdown = rejected_shutdown_.value();
  s.completed = completed_.value(std::memory_order_acquire);
  s.batches = batches_.value();
  s.max_batch = static_cast<std::uint64_t>(max_batch_.value());
  s.cache_hits = cache_hits_.value();
  s.cache_misses = cache_misses_.value();
  s.lower_bound_exits = lb_exits_.value();
  s.epoch = engine_.pin()->graph_epoch();
  s.swaps = swaps_.value();
  s.traced = traced_.value();
  s.slow_queries = slow_queries_.value();
  return s;
}

std::string SsspServer::export_metrics(MetricsFormat format) const {
  // Refresh the live gauges so a scrape is current: the epoch of the
  // currently-published snapshot and the admitted-minus-completed gap.
  // (Reference members make this legal from a const method; the gauges
  // are registry cells, not server state.)
  epoch_gauge_.set(static_cast<double>(engine_.pin()->graph_epoch()));
  in_flight_gauge_.set(
      static_cast<double>(accepted_.value(std::memory_order_acquire) -
                          completed_.value(std::memory_order_acquire)));
  return format == MetricsFormat::kJson ? obs::to_json(metrics_)
                                        : obs::to_prometheus(metrics_);
}

ResultCacheStats SsspServer::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ResultCacheStats{};
}

std::shared_ptr<const LandmarkOracle> SsspServer::oracle() const {
  return oracle_.pin();
}

std::shared_ptr<const SsspEngine> SsspServer::engine_snapshot() const {
  return engine_.pin();
}

void SsspServer::swap_engine(std::shared_ptr<const SsspEngine> next) {
  if (next == nullptr) {
    throw std::invalid_argument("SsspServer::swap_engine: null engine");
  }
  const std::uint64_t epoch = next->graph_epoch();
  // Rebuild the oracle BEFORE publishing the engine: once batchers can
  // pin the new engine, the matching oracle is already there (the brief
  // window where the old oracle fails valid_for() just skips annotation).
  if (opts_.enable_landmarks) {
    oracle_.publish(
        std::make_shared<const LandmarkOracle>(*next, opts_.landmarks));
  }
  engine_.publish(std::move(next));
  // Rows keyed to older epochs can never match again (epochs only grow);
  // reclaim their memory eagerly.
  if (cache_ != nullptr) cache_->purge_stale(epoch);
  epoch_gauge_.set(static_cast<double>(epoch));
  swaps_.add();
}

bool SsspServer::wait_not_paused() {
  std::unique_lock<std::mutex> lock(pause_mutex_);
  pause_cv_.wait(lock, [&] {
    return !paused_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
  return !stopping_.load(std::memory_order_acquire);
}

void SsspServer::batcher_loop() {
  std::vector<Pending> seeds;
  seeds.reserve(2);
  for (;;) {
    // Parked while paused — but once stopping, fall through and keep
    // draining: pop() below returns false only when closed AND empty.
    wait_not_paused();

    Pending first;
    if (!queue_.pop(first)) break;  // closed and fully drained
    // A pause() that landed while this batcher waited for work holds the
    // request it just took until resume().
    wait_not_paused();
    if (marks_enabled_) first.t_popped = std::chrono::steady_clock::now();
    seeds.clear();
    seeds.push_back(std::move(first));

    // The budget decides the shape: a request still alone when it expires
    // runs with every worker on it; a second one opens a team. A zero
    // budget turns the timed pop into a non-blocking check of the buffer.
    if (opts_.max_batch > 1) {
      Pending second;
      if (queue_.try_pop_until(
              second, std::chrono::steady_clock::now() + opts_.batch_budget)) {
        if (marks_enabled_) {
          second.t_popped = std::chrono::steady_clock::now();
        }
        seeds.push_back(std::move(second));
      }
    }
    serve_team(seeds);
  }
}

void SsspServer::assemble_trace(Pending& p, QueryResponse& resp,
                                std::chrono::steady_clock::time_point now,
                                std::uint64_t e2e_us) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  const auto ns_between = [](std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
    return b <= a ? std::uint64_t{0}
                  : static_cast<std::uint64_t>(
                        duration_cast<nanoseconds>(b - a).count());
  };
  const auto rel = [&](std::chrono::steady_clock::time_point t) {
    return ns_between(p.accepted_at, t);
  };
  // The synchronous cache-hit path never stamped queue marks: one span
  // covers the whole request. Otherwise the five stations tile
  // [accepted_at, now] back to back, so depth-0 durations sum to the
  // end-to-end latency exactly.
  obs::TraceBuffer tb;
  tb.enabled = true;
  tb.origin_ns = static_cast<std::uint64_t>(
      duration_cast<nanoseconds>(p.accepted_at.time_since_epoch()).count());
  const bool queued =
      p.t_enqueued != std::chrono::steady_clock::time_point{};
  if (!queued) {
    tb.add(obs::SpanId::kCacheHit, 0, 0, ns_between(p.accepted_at, now));
  } else {
    tb.add(obs::SpanId::kAdmission, 0, 0,
           ns_between(p.accepted_at, p.t_enqueued));
    tb.add(obs::SpanId::kQueueWait, 0, rel(p.t_enqueued),
           ns_between(p.t_enqueued, p.t_popped));
    tb.add(obs::SpanId::kBatchForm, 0, rel(p.t_popped),
           ns_between(p.t_popped, p.t_exec));
    tb.add(obs::SpanId::kEngine, 0, rel(p.t_exec),
           ns_between(p.t_exec, p.t_engine_done));
    tb.add(obs::SpanId::kRespond, 0, rel(p.t_engine_done),
           ns_between(p.t_engine_done, now));
    // Engine-phase detail (duration-only; anchored at the engine span's
    // start) from the RunStats hooks the engines filled for this traced
    // run.
    if (resp.stats.relax_ns != 0) {
      tb.add(obs::SpanId::kRelax, 1, rel(p.t_exec), resp.stats.relax_ns);
    }
    if (resp.stats.exchange_ns != 0) {
      tb.add(obs::SpanId::kExchange, 1, rel(p.t_exec),
             resp.stats.exchange_ns);
    }
    if (resp.stats.partition_ns != 0) {
      tb.add(obs::SpanId::kPartition, 1, rel(p.t_exec),
             resp.stats.partition_ns);
    }
  }
  if (p.traced) resp.trace = tb;
  if (opts_.slow_query_us != 0 && e2e_us >= opts_.slow_query_us) {
    slow_queries_.add();
    // One line per slow request, greppable, spans in microseconds. The
    // playbook (docs/OPERATIONS.md) reads these.
    char buf[512];
    int off = std::snprintf(
        buf, sizeof(buf), "rs_slow_query source=%llu e2e_us=%llu",
        static_cast<unsigned long long>(resp.source),
        static_cast<unsigned long long>(e2e_us));
    for (std::size_t i = 0; i < tb.size && off > 0 &&
                            static_cast<std::size_t>(off) < sizeof(buf);
         ++i) {
      off += std::snprintf(
          buf + off, sizeof(buf) - static_cast<std::size_t>(off),
          " %s_us=%llu", obs::to_string(tb.spans[i].id),
          static_cast<unsigned long long>(tb.spans[i].duration_ns / 1000));
    }
    std::fprintf(stderr, "%s\n", buf);
  }
}

void SsspServer::complete(Pending& p, QueryResponse&& resp) {
  const auto now = std::chrono::steady_clock::now();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      now - p.accepted_at);
  latency_.record(static_cast<std::uint64_t>(us.count()));
  if (resp.lower_bound_exits != 0) {
    lb_exits_.add(resp.lower_bound_exits);
  }
  if (p.traced || opts_.slow_query_us != 0) {
    assemble_trace(p, resp, now, static_cast<std::uint64_t>(us.count()));
  }
  p.promise.set_value(std::move(resp));
  // Advance completed_ under the drain mutex so a drainer that just
  // checked the counters cannot go to sleep and miss this notification.
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    completed_.add(1, std::memory_order_release);
  }
  drain_cv_.notify_all();
}

void SsspServer::fail(Pending& p, std::exception_ptr err) {
  // Release an owned in-flight cache entry too: its waiters — in this
  // team or another — inherit the failure through the shared future.
  if (p.role == CacheRole::kOwner) cache_->fail(p.key, err);
  p.promise.set_exception(err);
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    completed_.add(1, std::memory_order_release);
  }
  drain_cv_.notify_all();
}

/// One team's RequestFeed: its seeds first, then requests popped from the
/// admission queue one at a time until the queue's Team bookkeeping says
/// the team is over. Each request is answered in done(), the moment its
/// own run ends.
class SsspServer::Team final : public RequestFeed {
 public:
  /// A team over `seeds` (one seed: a lone request) serving on a snapshot
  /// of graph epoch `epoch`.
  Team(SsspServer& server, std::uint64_t epoch, const LandmarkOracle* oracle,
       std::vector<Pending>& seeds, std::size_t limit)
      : RequestFeed(seeds.size() == 1),
        server_(server),
        epoch_(epoch),
        oracle_(oracle),
        seeds_(seeds),
        // Seeds count as taken and held from the start, so no member can
        // see an idle team before they are served.
        team_(limit, seeds.size()),
        slots_(static_cast<std::size_t>(width())) {}

  const QueryRequest* next(int worker) noexcept override {
    Slot& s = slots_[static_cast<std::size_t>(worker)];
    const auto fits = [this](const Pending& head) { return takes(head); };
    for (;;) {
      const std::size_t seed = next_seed_.fetch_add(1);
      if (seed < seeds_.size()) {
        s.p = std::move(seeds_[seed]);
      } else if (server_.queue_.pop_for(team_, s.p, fits)) {
        if (server_.marks_enabled_) {
          s.p.t_popped = std::chrono::steady_clock::now();
        }
      } else {
        return nullptr;
      }
      const QueryRequest* req = prepare(s);
      if (req != nullptr) {
        if (server_.marks_enabled_) {
          s.p.t_exec = std::chrono::steady_clock::now();
        }
        return req;
      }
      server_.queue_.finish(team_);  // answered without an engine run
    }
  }

  void done(int worker, QueryResponse& resp,
            std::exception_ptr error) noexcept override {
    Pending& p = slots_[static_cast<std::size_t>(worker)].p;
    if (server_.marks_enabled_) {
      p.t_engine_done = std::chrono::steady_clock::now();
    }
    if (error == nullptr && p.role == CacheRole::kOwner) {
      try {
        // A row older than its key would answer every later hit on that
        // key with stale distances; takes() rules it out, and this refuses
        // to publish one should that ever break.
        if (resp.graph_epoch < p.key.graph_epoch) {
          throw std::logic_error(
              "SsspServer: cache row older than its key's epoch");
        }
        // Publish the row FIRST, then answer the owner's original
        // targeted request from it — the owner computed, so
        // served_from_cache stays false.
        auto row = std::make_shared<CachedRow>();
        row->source = p.request.source;
        row->graph_epoch = resp.graph_epoch;
        row->dist = std::move(resp.dist);
        row->stats = resp.stats;
        server_.cache_->fulfill(p.key, row);
        QueryResponse answer;
        answer_from_row(p.request, *row, answer);
        answer.served_from_cache = false;
        complete(p, std::move(answer));
      } catch (...) {
        error = std::current_exception();
      }
    } else if (error == nullptr) {
      complete(p, std::move(resp));
    }
    if (error != nullptr) fail(p, error);
    server_.queue_.finish(team_);
  }

 private:
  struct Slot {
    Pending p;         // the request this worker holds
    QueryRequest run;  // what the engine runs for a cache owner
  };

  /// Whether the team may take `head` from the queue. A request admitted
  /// under a newer snapshot than the team's pin, or any request once the
  /// server is paused, ends the team and stays queued: the batcher picks
  /// it up next, under a fresh pin (or after resume()). Submits and teams
  /// both pin a snapshot that only moves forward, so a team never serves
  /// a request on an epoch older than the one it was admitted under.
  bool takes(const Pending& head) const noexcept {
    return head.epoch <= epoch_ &&
           !server_.paused_.load(std::memory_order_acquire);
  }

  /// The request to run for the slot's Pending, or null when it was
  /// answered here without an engine run.
  const QueryRequest* prepare(Slot& s) noexcept {
    Pending& p = s.p;
    try {
      switch (p.role) {
        case CacheRole::kDirect:
          // ALT bounds only from the oracle of this team's engine
          // snapshot.
          if (oracle_ != nullptr) oracle_->annotate(p.request);
          return &p.request;
        case CacheRole::kOwner:
          // Upgraded to a full-distance run whose row every waiter reuses.
          s.run.source = p.request.source;
          s.run.engine = p.request.engine;
          s.run.want_full_distances = true;
          s.run.trace = p.request.trace;
          return &s.run;
        case CacheRole::kWaiter:
          break;
      }
      // A ready row is the single-flight win. A row not ready means the
      // owner is still queued or running — possibly behind this very
      // team — so blocking could deadlock: run the request on this
      // worker's warm context instead (the duplicated computation is the
      // price of never stalling the team).
      if (p.pending_row.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return &p.request;
      }
      const RowPtr row = p.pending_row.get();  // rethrows owner failure
      QueryResponse resp;
      answer_from_row(p.request, *row, resp);
      // The shared row replaced the engine run: zero-width engine span,
      // the row read lands in `respond`.
      if (server_.marks_enabled_) {
        p.t_engine_done = p.t_exec = std::chrono::steady_clock::now();
      }
      complete(p, std::move(resp));
    } catch (...) {
      fail(p, std::current_exception());
    }
    return nullptr;
  }

  // Completion through the server, after widening the team's width gauge
  // so the gauge is current by the time a drain() sees the completion.
  void complete(Pending& p, QueryResponse&& resp) noexcept {
    count_served();
    server_.complete(p, std::move(resp));
  }
  void fail(Pending& p, std::exception_ptr err) noexcept {
    count_served();
    server_.fail(p, std::move(err));
  }
  void count_served() noexcept {
    server_.max_batch_.record_max(static_cast<double>(
        served_.fetch_add(1, std::memory_order_relaxed) + 1));
  }

  SsspServer& server_;
  const std::uint64_t epoch_;     // graph epoch of the team's snapshot
  const LandmarkOracle* oracle_;  // null unless it matches the engine
  std::vector<Pending>& seeds_;
  std::atomic<std::size_t> next_seed_{0};
  std::atomic<std::size_t> served_{0};
  BoundedQueue<Pending>::Team team_;  // guarded by the queue's lock
  std::vector<Slot> slots_;           // one per worker
};

void SsspServer::serve_team(std::vector<Pending>& seeds) {
  // One pin per team: every request it serves runs on the same engine
  // snapshot (a swap mid-team affects only later teams), and the oracle
  // is only consulted when it matches THAT snapshot's epoch — never a
  // cross-epoch bound.
  const std::shared_ptr<const SsspEngine> eng = engine_.pin();
  const std::shared_ptr<const LandmarkOracle> orc = oracle_.pin();
  const bool use_oracle = orc != nullptr && orc->valid_for(*eng);
  // A lone request gets every worker through intra-query parallelism and
  // takes nothing from the queue; otherwise each worker serves one
  // request at a time, up to max_batch in all (which bounds how long one
  // pin is held).
  Team team(*this, eng->graph_epoch(), use_oracle ? orc.get() : nullptr,
            seeds, seeds.size() == 1 ? 1 : opts_.max_batch);
  batches_.add();  // before any completion, so a drain() sees it
  eng->serve_stream(team);
}

std::string format_stats_line(const SsspServer& server) {
  const ServerStats s = server.stats();
  const auto snap = server.latency().snapshot();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "accepted=%llu completed=%llu shed=%llu invalid=%llu shutdown=%llu "
      "batches=%llu mean_batch=%.2f max_batch=%llu cache_hits=%llu "
      "cache_misses=%llu lower_bound_exits=%llu epoch=%llu swaps=%llu "
      "in_flight=%llu p50_us=%llu p99_us=%llu p999_us=%llu traced=%llu "
      "slow=%llu",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected_full),
      static_cast<unsigned long long>(s.rejected_invalid),
      static_cast<unsigned long long>(s.rejected_shutdown),
      static_cast<unsigned long long>(s.batches), s.mean_batch(),
      static_cast<unsigned long long>(s.max_batch),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.lower_bound_exits),
      static_cast<unsigned long long>(s.epoch),
      static_cast<unsigned long long>(s.swaps),
      static_cast<unsigned long long>(s.in_flight()),
      static_cast<unsigned long long>(snap.value_at_quantile(0.50)),
      static_cast<unsigned long long>(snap.value_at_quantile(0.99)),
      static_cast<unsigned long long>(snap.value_at_quantile(0.999)),
      static_cast<unsigned long long>(s.traced),
      static_cast<unsigned long long>(s.slow_queries));
  return std::string(buf);
}

}  // namespace rs::serve
