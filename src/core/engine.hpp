/// \file
/// SsspEngine: the batteries-included entry point a downstream application
/// uses. Owns the preprocessed (k, rho)-graph and radii and serves typed
/// QueryRequests with the engine of your choice (core/request.hpp).
///
/// \code
///   SsspEngine engine(graph, {.rho = 64, .k = 3});
///   QueryRequest req;
///   req.source = s;
///   req.targets = {a, b, c};   // early termination: exits once a, b, c
///   req.want_paths = true;     // expanded original-graph paths
///   QueryResponse resp = engine.serve(req);
/// \endcode
///
/// Serving hot path: serve() with a caller-owned QueryContext (and a
/// reused QueryResponse) answers warm targeted requests with zero heap
/// allocations. serve_stream() runs the multi-source regime preprocessing
/// is amortized over (§5.4): a team of workers, each running one strictly
/// sequential query at a time on its own warm pooled context and pulling
/// the next request from a RequestFeed as soon as its run ends — or, for a
/// lone request, one query with intra-query parallelism. serve_batch() is
/// the vector form of the same stream.
///
/// Dynamic graphs: engines are immutable-after-publish snapshots. A live
/// deployment wraps each engine in a shared_ptr, serves through
/// SnapshotSwap pins (graph/graph_swap.hpp), and produces successors with
/// next_epoch() — the epoch stamp keeps cache/oracle invalidation exact
/// across swaps.
#pragma once

#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "core/query_context.hpp"
#include "core/request.hpp"
#include "core/stats.hpp"
#include "graph/fragment.hpp"
#include "graph/graph.hpp"
#include "parallel/context_pool.hpp"
#include "shortcut/preprocess_context.hpp"
#include "shortcut/shortcut.hpp"

namespace rs {

/// The two ends of SsspEngine::serve_stream: a request source and a
/// per-request sink, both called from the worker that runs the request.
/// A feed is how a scheduler streams work into a team without a barrier
/// between requests: serve_batch() feeds a vector, SsspServer feeds its
/// admission queue.
class RequestFeed {
 public:
  /// Hands idle `worker` its next request, or null once that worker should
  /// leave the team. The request must stay valid until done(worker, ...).
  /// Called concurrently by distinct workers; may block.
  virtual const QueryRequest* next(int worker) noexcept = 0;

  /// `worker`'s current request has finished: `resp` holds its answer, or
  /// `error` is set (the request threw; `resp` is then unspecified). The
  /// sink may move from `resp`.
  virtual void done(int worker, QueryResponse& resp,
                    std::exception_ptr error) noexcept = 0;

  /// Workers that serve this feed; worker ids run from 0 to width() - 1.
  /// 1 for a lone request, otherwise num_workers() when the feed was
  /// built — fixed for the feed's life, so per-worker state sized by it
  /// stays in bounds.
  int width() const { return width_; }

 protected:
  /// `lone`: the feed holds a single request, which no team-mate could
  /// help with; it then runs with intra-query parallelism instead.
  explicit RequestFeed(bool lone);
  ~RequestFeed() = default;
  // Workers hold the feed's address for the whole stream.
  RequestFeed(const RequestFeed&) = delete;
  RequestFeed& operator=(const RequestFeed&) = delete;

 private:
  int width_;
};

/// Radius-Stepping SSSP engine over one preprocessed (k, rho)-graph
/// snapshot (see file comment for the serving model).
class SsspEngine {
 public:
  /// Preprocesses `g` (ball searches + shortcuts per `opts`). The original
  /// graph is kept for path reconstruction so paths never use shortcut
  /// edges.
  SsspEngine(Graph g, const PreprocessOptions& opts);

  /// Same, drawing all per-ball preprocessing scratch from a caller-owned
  /// warm PreprocessPool — the entry point for building many engines
  /// (parameter sweeps, periodic re-preprocessing, multi-graph serving)
  /// without paying per-ball allocations after the first build.
  SsspEngine(Graph g, const PreprocessOptions& opts, PreprocessPool& pool);

  /// Wraps an existing preprocessing result (e.g. loaded from disk).
  SsspEngine(Graph original, PreprocessResult pre);

  /// Copies share the immutable fragment substrate and keep the epoch but
  /// get their own (cold) context pool.
  SsspEngine(const SsspEngine& other);
  /// Copy assignment: same sharing rules as the copy constructor.
  SsspEngine& operator=(const SsspEngine& other);
  /// Moves transfer the warm pool with the engine.
  SsspEngine(SsspEngine&&) = default;
  /// Move assignment: transfers the warm pool with the engine.
  SsspEngine& operator=(SsspEngine&&) = default;

  /// Builds the successor snapshot of `prior` for a graph swap: a fresh
  /// engine over (original, pre) whose graph_epoch() is
  /// prior.graph_epoch() + 1, with the fragment substrate re-partitioned
  /// the same way when `prior` had one. `prior` is not touched — it keeps
  /// serving until the caller publishes the successor (e.g. via
  /// SsspServer::swap_engine) and the last reader unpins it.
  static SsspEngine next_epoch(const SsspEngine& prior, Graph original,
                               PreprocessResult pre);

  /// Serves one request (semantics in core/request.hpp): per-target
  /// distances — and optional expanded paths — in O(|targets|) space,
  /// with early termination once every target is settled; or the full
  /// distance vector when asked. Validates source, targets, and engine
  /// choice (std::invalid_argument). This overload allocates fresh
  /// per-request state; use the QueryContext form on the serving path.
  QueryResponse serve(const QueryRequest& req) const;

  /// Same over a caller-owned reusable context: the engine hot path
  /// performs no heap allocations once the context is warm (the returned
  /// response is the one unavoidable output allocation).
  QueryResponse serve(const QueryRequest& req, QueryContext& ctx) const;

  /// Lowest-level form: writes into `resp`, reusing its capacity. A warm
  /// context + reused response serves targeted requests with ZERO heap
  /// allocations (pinned by tests/test_alloc_free.cpp).
  void serve(const QueryRequest& req, QueryContext& ctx,
             QueryResponse& resp) const;

  /// Serves every request `feed` hands out, with a team of feed.width()
  /// workers. Each worker runs one strictly sequential query at a time on
  /// its own warm context and reports it to feed.done() the moment its run
  /// ends, then asks feed.next() for another; the call returns once every
  /// worker has been handed null. A feed of width 1 is served on the
  /// calling thread, and each of its queries uses intra-query parallelism
  /// instead — the form for a lone request, where no team-mate could help.
  ///
  /// Nothing thrown while serving a request leaves the team: the request
  /// is validated, and any exception it raises (invalid_argument,
  /// bad_alloc, ...) is reported as that request's `error`, after its
  /// context has been restored for the next query. Thread-safe: each
  /// concurrent stream leases its own warm context-pool slot (the slot set
  /// grows to the peak concurrency and stays warm). Path reconstruction
  /// shares the cached transpose.
  void serve_stream(RequestFeed& feed) const;

  /// One response per request, in input order, bit-identical to per-
  /// request serve() calls. Requests may mix sources, target sets, flags,
  /// and engines. Validates every request first (std::invalid_argument,
  /// before anything runs), then streams them through serve_stream() —
  /// as a lone request when there is one — and rethrows the first
  /// request's failure, if any, after the rest have been answered.
  std::vector<QueryResponse> serve_batch(
      const std::vector<QueryRequest>& requests) const;

  /// Throws std::invalid_argument unless source, every target, and the
  /// engine choice are valid for this preprocessing. serve, serve_stream
  /// and serve_batch call it implicitly; admission layers
  /// (serve/server.hpp) call it at accept time so a bad request is
  /// rejected at the edge, before it is queued.
  void validate(const QueryRequest& req) const;

  /// The input graph (no shortcuts) — the one paths are expressed in.
  const Graph& original_graph() const { return original_; }
  /// The (k, rho)-graph queries actually run on (original + shortcuts).
  const Graph& preprocessed_graph() const { return pre_.graph; }
  /// Full preprocessing artifact: graph, radii, options, edge accounting.
  const PreprocessResult& preprocessing() const { return pre_; }

  /// Preprocessing generation this engine is serving. Starts at 1; each
  /// next_epoch() successor serves its prior's epoch + 1. Responses are
  /// stamped with it (QueryResponse::graph_epoch), and the caching layer
  /// (serve/result_cache.hpp, serve/landmark_oracle.hpp) keys on it so a
  /// graph swap implicitly invalidates every cached row. Copies keep the
  /// epoch: they serve the same preprocessing, so their answers are
  /// interchangeable with the original's.
  std::uint64_t graph_epoch() const { return graph_epoch_; }

  // --- fragment-partitioned substrate (QueryEngine::kFragment) -------------
  /// Builds the fragment-partitioned view of the preprocessed graph so
  /// kFragment requests can be served. `count` == 0 means
  /// default_num_fragments() (the RS_FRAGMENTS env var, else a
  /// worker-count-derived default). Idempotent in effect: calling again
  /// rebuilds with the new count/mode. next_epoch() re-partitions the
  /// successor's graph with the same resolved count and mode.
  void enable_fragments(std::size_t count = 0,
                        PartitionMode mode = PartitionMode::kContiguous);
  /// True once enable_fragments() has built the substrate; kFragment
  /// requests are rejected by validate() until then.
  bool fragments_enabled() const { return fragments_ != nullptr; }
  /// The fragmented view (requires fragments_enabled()).
  const FragmentedGraph& fragments() const { return *fragments_; }

 private:
  /// Request execution into `resp`. Validation must have happened already.
  /// On an exception the context's all-infinite invariant is restored
  /// before it propagates. `transpose` must be non-null when the request
  /// wants paths.
  void run_serve(const QueryRequest& req, QueryContext& ctx,
                 const Graph* transpose, QueryResponse& resp) const;

  /// Throws if `engine` cannot run on this preprocessing (kUnweighted on a
  /// weighted/shortcutted graph).
  void check_engine(QueryEngine engine) const;

  /// The cached transpose of the original graph (built at most once,
  /// shared by all path reconstructions). On a moved-from engine the
  /// cache is gone: the transpose is built into `local` instead.
  const Graph& transpose(Graph& local) const;

  Graph original_;
  PreprocessResult pre_;
  // Fragment substrate for kFragment requests. Immutable once built, so
  // copies SHARE it (shared_ptr) — a copied engine serves identical
  // answers from the identical partition without re-partitioning. Null
  // until enable_fragments(). The resolved count/mode are kept so
  // next_epoch() can re-partition the successor's graph the same way.
  std::shared_ptr<const FragmentedGraph> fragments_;
  PartitionMode fragment_mode_ = PartitionMode::kContiguous;
  std::uint64_t graph_epoch_ = 1;

  // Reusable per-worker context pools for serve_stream, boxed so the
  // engine stays movable despite the mutexes. Each concurrent stream
  // LEASES one slot for its duration: serve_stream try-locks the existing
  // slots and, when all are busy, grows the set by one — so N concurrent
  // streams end up with N dedicated pools that each stay warm for the
  // next stream to lease. Slots live in a deque so growth never moves a
  // leased slot; the scan-or-grow runs under grow_mutex, which is never
  // held while waiting on a slot (try-lock only), so acquisition cannot
  // deadlock or block behind a running stream. Null only in a moved-from
  // engine, which serve_stream tolerates by using a stream-local pool.
  struct BatchPoolSlot {
    std::mutex mutex;
    WorkerPool<QueryContext> pool;
  };
  struct BatchPools {
    std::mutex grow_mutex;
    std::deque<BatchPoolSlot> slots;
  };
  std::unique_ptr<BatchPools> batch_pools_ = std::make_unique<BatchPools>();

  // Lazily-built transpose of the original graph: path reconstruction walks
  // INCOMING arcs (directed-correct parents), and every want_paths request
  // shares one transpose. Boxed for movability; built at most once.
  struct TransposeCache {
    std::once_flag once;
    Graph graph;
  };
  std::unique_ptr<TransposeCache> transpose_ =
      std::make_unique<TransposeCache>();
};

}  // namespace rs
