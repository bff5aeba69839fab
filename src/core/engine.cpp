#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include <omp.h>

#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "core/rs_fragment.hpp"
#include "core/rs_unweighted.hpp"
#include "core/sp_tree.hpp"
#include "parallel/primitives.hpp"

namespace rs {

SsspEngine::SsspEngine(Graph g, const PreprocessOptions& opts)
    : original_(std::move(g)), pre_(preprocess(original_, opts)) {}

SsspEngine::SsspEngine(Graph g, const PreprocessOptions& opts,
                       PreprocessPool& pool)
    : original_(std::move(g)), pre_(preprocess(original_, opts, pool)) {}

SsspEngine::SsspEngine(Graph original, PreprocessResult pre)
    : original_(std::move(original)), pre_(std::move(pre)) {
  if (pre_.graph.num_vertices() != original_.num_vertices() ||
      pre_.radius.size() != original_.num_vertices()) {
    throw std::invalid_argument("SsspEngine: preprocessing/graph mismatch");
  }
}

SsspEngine::SsspEngine(const SsspEngine& other)
    : original_(other.original_),
      pre_(other.pre_),
      // The fragment substrate is immutable once built: share it.
      fragments_(other.fragments_),
      fragment_mode_(other.fragment_mode_),
      graph_epoch_(other.graph_epoch_) {}

SsspEngine& SsspEngine::operator=(const SsspEngine& other) {
  if (this != &other) {
    original_ = other.original_;
    pre_ = other.pre_;
    graph_epoch_ = other.graph_epoch_;
    fragments_ = other.fragments_;
    fragment_mode_ = other.fragment_mode_;
    batch_pools_ = std::make_unique<BatchPools>();
    transpose_ = std::make_unique<TransposeCache>();
  }
  return *this;
}

SsspEngine SsspEngine::next_epoch(const SsspEngine& prior, Graph original,
                                  PreprocessResult pre) {
  SsspEngine next(std::move(original), std::move(pre));
  next.graph_epoch_ = prior.graph_epoch_ + 1;
  if (prior.fragments_ != nullptr) {
    next.enable_fragments(prior.fragments_->num_fragments(),
                          prior.fragment_mode_);
  }
  return next;
}

void SsspEngine::enable_fragments(std::size_t count, PartitionMode mode) {
  fragments_ = std::make_shared<const FragmentedGraph>(pre_.graph, count, mode);
  fragment_mode_ = mode;
}

void SsspEngine::check_engine(QueryEngine engine) const {
  if (engine == QueryEngine::kUnweighted &&
      (pre_.added_edges != 0 || pre_.graph.max_weight() != 1)) {
    throw std::invalid_argument(
        "SsspEngine: unweighted engine needs a unit-weight graph with no "
        "shortcut edges (use ShortcutHeuristic::kNone)");
  }
  if (engine == QueryEngine::kFragment && fragments_ == nullptr) {
    throw std::invalid_argument(
        "SsspEngine: fragment engine needs enable_fragments() first");
  }
}

void SsspEngine::validate(const QueryRequest& req) const {
  check_engine(req.engine);
  const Vertex n = pre_.graph.num_vertices();
  if (req.source >= n) {
    throw std::invalid_argument("SsspEngine: bad source");
  }
  if (req.kind == RequestKind::kTopK) {
    if (req.k == 0) {
      throw std::invalid_argument("SsspEngine: kTopK needs k >= 1");
    }
    if (!req.targets.empty()) {
      throw std::invalid_argument("SsspEngine: kTopK takes no targets");
    }
    if (!req.target_lower_bounds.empty()) {
      throw std::invalid_argument("SsspEngine: kTopK takes no lower bounds");
    }
    return;
  }
  for (const Vertex t : req.targets) {
    if (t >= n) throw std::invalid_argument("SsspEngine: bad target");
  }
  if (!req.target_lower_bounds.empty() &&
      req.target_lower_bounds.size() != req.targets.size()) {
    throw std::invalid_argument(
        "SsspEngine: target_lower_bounds must be empty or parallel to "
        "targets");
  }
}

const Graph& SsspEngine::transpose(Graph& local) const {
  if (transpose_ != nullptr) {
    std::call_once(transpose_->once,
                   [&] { transpose_->graph = original_.transposed(); });
    return transpose_->graph;
  }
  // Moved-from engine: stay correct, skip the cache.
  local = original_.transposed();
  return local;
}

void SsspEngine::run_serve(const QueryRequest& req, QueryContext& ctx,
                           const Graph* transpose, QueryResponse& resp) const {
  const Vertex n = pre_.graph.num_vertices();
  // A throw between the engine's first write and the epilogue below (a
  // bad_alloc while growing touch records or a path, say) would leave
  // finite distances behind, and a pooled context would answer its next
  // query wrongly. The touch records may be incomplete then, so the guard
  // sweeps every entry the context holds.
  struct UnwindGuard {
    QueryContext& ctx;
    Vertex n;
    bool armed = true;
    ~UnwindGuard() {
      if (!armed) return;
      ctx.reset_distances(std::min(n, ctx.capacity()));
      ctx.clear_targets();
    }
  } guard{ctx, n};
  resp.source = req.source;
  resp.stats = RunStats{};
  resp.dist.clear();
  resp.trace = obs::TraceBuffer{};
  // Per-phase clock readings only for traced requests; the flag is
  // per-run (set fresh here every time), so context reuse cannot leak it.
  ctx.set_trace_phases(req.trace);

  // Early termination only when it cannot change what the caller sees: a
  // full distance vector needs the exhaustive run, an untargeted kTargets
  // request has no settled-set to wait for, and a kTopK run may stop at
  // the first step boundary with k vertices settled.
  const bool topk = req.kind == RequestKind::kTopK;
  const bool early = !topk && !req.targets.empty() && !req.want_full_distances;
  if (early) {
    // Lower bounds are dropped for path requests: a bound exit proves a
    // target final while the original-graph vertices skipped by the
    // shortcut arc that set its distance may not be exact yet, and the
    // closure walk below needs an exact predecessor at every hop.
    const bool use_bounds =
        !req.target_lower_bounds.empty() && !req.want_paths;
    const Dist* lb = use_bounds ? req.target_lower_bounds.data() : nullptr;
    ctx.set_targets(n, req.targets.data(), req.targets.size(), lb);
  } else {
    ctx.clear_targets();
    if (topk && !req.want_full_distances) ctx.set_k_goal(req.k);
  }

  switch (req.engine) {
    case QueryEngine::kFlat:
      radius_stepping_partial(pre_.graph, req.source, pre_.radius, ctx,
                              &resp.stats);
      break;
    case QueryEngine::kBst:
      radius_stepping_bst_partial(pre_.graph, req.source, pre_.radius, ctx,
                                  &resp.stats);
      break;
    case QueryEngine::kUnweighted:
      radius_stepping_unweighted_partial(pre_.graph, req.source, pre_.radius,
                                         ctx, &resp.stats);
      break;
    case QueryEngine::kFragment:
      radius_stepping_fragment_partial(*fragments_, req.source, pre_.radius,
                                       ctx, &resp.stats);
      break;
  }

  if (topk) {
    // k-nearest extraction from the first-touch records: at the exit
    // boundary every SETTLED touched vertex carries its final distance and
    // every unsettled vertex is strictly farther (Theorem 3.1), so the k
    // smallest settled (dist, vertex) pairs are exactly the k nearest. The
    // unweighted engine claims whole levels and never marks settled
    // stamps; all its touched vertices are final. All buffers come from
    // the context, so a warm top-k serve allocates nothing.
    auto& buf = ctx.topk_buffer();
    const bool all_final = req.engine == QueryEngine::kUnweighted;
    for (const auto& bucket : ctx.touched_lists()) {
      for (const Vertex v : bucket) {
        if (all_final || ctx.is_settled(v)) {
          buf.push_back({ctx.read_dist(v), v});
        }
      }
    }
    const std::size_t m = std::min<std::size_t>(req.k, buf.size());
    std::partial_sort(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(m), buf.end());
    resp.targets.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      TargetResult& tr = resp.targets[i];
      tr.target = buf[i].second;
      tr.dist = buf[i].first;
      tr.path.clear();
    }
  } else {
    // Per-target answers, read straight out of the context's working array
    // (zero-copy: the O(n) vector is never materialized for targeted
    // requests). Every target is exact here: either the run was
    // exhaustive, or it stopped only once all of them settled — by
    // distance order or by lower-bound proof.
    resp.targets.resize(req.targets.size());
    for (std::size_t i = 0; i < req.targets.size(); ++i) {
      TargetResult& tr = resp.targets[i];
      tr.target = req.targets[i];
      tr.dist = ctx.read_dist(tr.target);
      tr.path.clear();
    }
  }
  if (req.want_paths && transpose != nullptr) {
    const auto dist_of = [&ctx](Vertex v) { return ctx.read_dist(v); };
    for (TargetResult& tr : resp.targets) {
      if (tr.dist != kInfDist) {
        // Distances are identical on the original graph (shortcuts
        // preserve them), so the walk over the original's transpose never
        // uses a shortcut edge.
        extract_path_by_closure(*transpose, tr.target, dist_of, tr.path);
      }
    }
  }

  // End the query: the full copy only when asked, otherwise restore the
  // context's all-infinite invariant in O(touched) — every engine records
  // first-touches, so a targeted serve that early-terminated after a
  // handful of vertices no longer pays an O(n) sweep per request.
  if (req.want_full_distances) {
    ctx.finish_query(n, resp.dist);
  } else {
    ctx.reset_touched();
  }
  // Provenance: which preprocessing generation answered, and how. The
  // lower-bound exit count must be read before the stamps are cleared.
  resp.graph_epoch = graph_epoch_;
  resp.served_from_cache = false;
  resp.lower_bound_exits = ctx.lower_bound_exits();
  ctx.clear_targets();
  guard.armed = false;
}

QueryResponse SsspEngine::serve(const QueryRequest& req) const {
  QueryContext ctx(pre_.graph.num_vertices());
  return serve(req, ctx);
}

QueryResponse SsspEngine::serve(const QueryRequest& req,
                                QueryContext& ctx) const {
  QueryResponse resp;
  serve(req, ctx, resp);
  return resp;
}

namespace {

/// True when serving `req` reconstructs at least one path, so it needs the
/// transpose.
bool wants_paths(const QueryRequest& req) {
  return req.want_paths &&
         (req.kind == RequestKind::kTopK || !req.targets.empty());
}

}  // namespace

void SsspEngine::serve(const QueryRequest& req, QueryContext& ctx,
                       QueryResponse& resp) const {
  validate(req);
  Graph local;
  // The transpose is only ever dereferenced for an actual result's path.
  const Graph* tp = wants_paths(req) ? &transpose(local) : nullptr;
  run_serve(req, ctx, tp, resp);
}

RequestFeed::RequestFeed(bool lone) : width_(lone ? 1 : num_workers()) {}

void SsspEngine::serve_stream(RequestFeed& feed) const {
  // Lease a warm context pool slot for this stream: try-lock an existing
  // slot, or grow the slot set by one so every concurrent stream gets a
  // dedicated pool that stays warm for future streams. Only a moved-from
  // engine falls back to a cold local pool.
  WorkerPool<QueryContext> local_pool;
  WorkerPool<QueryContext>* leased = &local_pool;
  std::unique_lock<std::mutex> lease;
  if (batch_pools_ != nullptr) {
    BatchPools& pools = *batch_pools_;
    // grow_mutex also serializes the slot scan: deque growth never moves
    // existing slots, but the scan must not race the emplace itself. The
    // critical section is tiny — try-locks never wait on a running stream.
    std::lock_guard<std::mutex> grow(pools.grow_mutex);
    for (BatchPoolSlot& slot : pools.slots) {
      std::unique_lock<std::mutex> l(slot.mutex, std::try_to_lock);
      if (l.owns_lock()) {
        lease = std::move(l);
        leased = &slot.pool;
        break;
      }
    }
    if (!lease.owns_lock()) {
      BatchPoolSlot& slot = pools.slots.emplace_back();
      lease = std::unique_lock<std::mutex>(slot.mutex);
      leased = &slot.pool;
    }
  }
  WorkerPool<QueryContext>& pool = *leased;
  const int width = feed.width();
  pool.ensure(static_cast<std::size_t>(width));

  // One worker's life in the team: run whatever the feed hands out until
  // it hands out null. Every exception is caught here, per request, so
  // none can leave the parallel region (which would terminate).
  const auto work = [&](int worker) {
    QueryContext& ctx = pool.at(static_cast<std::size_t>(worker));
    QueryResponse resp;
    Graph local;  // transpose fallback of a moved-from engine
    while (const QueryRequest* req = feed.next(worker)) {
      std::exception_ptr error;
      try {
        validate(*req);
        run_serve(*req, ctx, wants_paths(*req) ? &transpose(local) : nullptr,
                  resp);
      } catch (...) {
        error = std::current_exception();
      }
      feed.done(worker, resp, error);
    }
  };

  if (width == 1) {
    // The lone worker is the calling thread: with several workers each
    // query keeps intra-query parallelism; with one the sequential engine
    // twin skips atomics and OpenMP entirely.
    pool.at(0).set_sequential(num_workers() <= 1);
    work(0);
    return;
  }
  for (int w = 0; w < width; ++w) {
    pool.at(static_cast<std::size_t>(w)).set_sequential(true);
  }
#pragma omp parallel num_threads(width)
  work(omp_get_thread_num());
}

std::vector<QueryResponse> SsspEngine::serve_batch(
    const std::vector<QueryRequest>& requests) const {
  std::vector<QueryResponse> out(requests.size());
  if (requests.empty()) return out;
  // Validate everything up front: a bad batch throws before anything runs.
  for (const QueryRequest& req : requests) validate(req);

  // Hands the requests out in input order to whichever worker asks next,
  // and files each outcome under its request's index.
  class VectorFeed final : public RequestFeed {
   public:
    VectorFeed(const std::vector<QueryRequest>& requests,
               std::vector<QueryResponse>& out)
        : RequestFeed(requests.size() == 1),
          errors(requests.size()),
          requests_(requests),
          out_(out),
          current_(static_cast<std::size_t>(width())) {}

    const QueryRequest* next(int worker) noexcept override {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests_.size()) return nullptr;
      current_[static_cast<std::size_t>(worker)] = i;
      return &requests_[i];
    }

    void done(int worker, QueryResponse& resp,
              std::exception_ptr error) noexcept override {
      const std::size_t i = current_[static_cast<std::size_t>(worker)];
      if (error != nullptr) {
        errors[i] = error;
      } else {
        out_[i] = std::move(resp);
      }
    }

    std::vector<std::exception_ptr> errors;  // per request

   private:
    const std::vector<QueryRequest>& requests_;
    std::vector<QueryResponse>& out_;
    std::vector<std::size_t> current_;  // request index per worker
    std::atomic<std::size_t> next_{0};
  };

  VectorFeed feed(requests, out);
  serve_stream(feed);
  for (const std::exception_ptr& error : feed.errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
  return out;
}

}  // namespace rs
