// Batch-serving equivalence suite: serve_batch's team of workers and
// the reusable QueryContext must be invisible to callers — batched results
// bit-identical to sequential per-source queries, warm contexts identical
// to fresh ones, sequential engine twins identical to the parallel ones —
// over the weighted suite AND the adversarial (directed / self-loop /
// multigraph) palette, at several worker counts.
#include <gtest/gtest.h>

#include "baseline/bfs.hpp"
#include "baseline/delta_stepping.hpp"
#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_bst.hpp"
#include "core/rs_unweighted.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/context_pool.hpp"
#include "parallel/primitives.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

/// Restores the global worker count on scope exit.
struct WorkerGuard {
  int before = num_workers();
  ~WorkerGuard() { set_num_workers(before); }
};

/// Engine wrapper that skips preprocessing (constant radii, no shortcuts)
/// so directed/multigraph inputs stay exactly as built.
SsspEngine raw_engine(const Graph& g) {
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = constant_radii(g.num_vertices(), 25);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  return SsspEngine(g, std::move(pre));
}

std::vector<Vertex> spread_sources(const Graph& g, std::size_t count) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Vertex>((i * n) / count));
  }
  return out;
}

/// One full-distance request per source, all on `qe`.
std::vector<QueryRequest> full_requests(const std::vector<Vertex>& sources,
                                        QueryEngine qe = QueryEngine::kFlat) {
  std::vector<QueryRequest> out;
  for (const Vertex s : sources) out.push_back(test::full_request(s, qe));
  return out;
}

/// Per-request serve() answers: the sequential reference for a batch.
std::vector<QueryResponse> serve_each(const SsspEngine& engine,
                                      const std::vector<QueryRequest>& reqs) {
  std::vector<QueryResponse> out;
  for (const QueryRequest& req : reqs) out.push_back(engine.serve(req));
  return out;
}

TEST(QueryBatch, MatchesSequentialQueriesOnWeightedSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::weighted_suite(11)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const std::vector<Vertex> sources = spread_sources(g, 8);
    const std::vector<QueryRequest> requests = full_requests(sources);
    const std::vector<QueryResponse> ref = serve_each(engine, requests);

    // 1 worker: the sequential twin on the calling thread; 3 workers: a
    // team pulling 8 sources; 8: a team as wide as the batch.
    for (const int nw : {1, 3, 8}) {
      set_num_workers(nw);
      const auto batch = engine.serve_batch(requests);
      ASSERT_EQ(batch.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(batch[i].source, sources[i]);
        EXPECT_EQ(batch[i].dist, ref[i].dist)
            << name << " nw=" << nw << " source " << sources[i];
        // The step sequence is schedule-independent (WriteMin), so stats
        // that count set sizes must match the fresh sequential query too.
        EXPECT_EQ(batch[i].stats.steps, ref[i].stats.steps) << name;
        EXPECT_EQ(batch[i].stats.settled, ref[i].stats.settled) << name;
      }
    }
  }
}

TEST(QueryBatch, MatchesSequentialQueriesOnAdversarialSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::adversarial_suite(5)) {
    const SsspEngine engine = raw_engine(g);
    const std::vector<Vertex> sources = spread_sources(g, 6);
    const std::vector<QueryRequest> requests = full_requests(sources);
    const std::vector<QueryResponse> ref = serve_each(engine, requests);
    for (const int nw : {1, 4}) {
      set_num_workers(nw);
      const auto batch = engine.serve_batch(requests);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(batch[i].dist, ref[i].dist) << name << " nw=" << nw;
        EXPECT_EQ(batch[i].dist, dijkstra(g, sources[i])) << name;
      }
    }
  }
}

TEST(QueryBatch, UnweightedEngineBatchMatches) {
  WorkerGuard guard;
  const Graph g = gen::grid2d(18, 15);
  PreprocessOptions opts;
  opts.rho = 8;
  opts.heuristic = ShortcutHeuristic::kNone;
  const SsspEngine engine(g, opts);
  const std::vector<QueryRequest> requests =
      full_requests(spread_sources(g, 6), QueryEngine::kUnweighted);
  const std::vector<QueryResponse> ref = serve_each(engine, requests);
  for (const int nw : {1, 4}) {
    set_num_workers(nw);
    const auto batch = engine.serve_batch(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batch[i].dist, ref[i].dist) << "nw=" << nw;
      EXPECT_EQ(batch[i].stats.steps, ref[i].stats.steps);
    }
  }
}

TEST(QueryBatch, BstEnginesBatchMatchesSequentialAcrossWorkers) {
  // kBst runs through the same team of workers as the flat engine,
  // with per-worker warm contexts. Batched results must be bit-identical
  // to fresh per-source queries, and the schedule-independent stats must
  // survive the sequential twin.
  WorkerGuard guard;
  for (const auto& [name, g] : test::weighted_suite(11)) {
    PreprocessOptions opts;
    opts.rho = 10;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const std::vector<Vertex> sources = spread_sources(g, 6);
    const std::vector<QueryRequest> requests =
        full_requests(sources, QueryEngine::kBst);
    const std::vector<QueryResponse> ref = serve_each(engine, requests);

    for (const int nw : {1, 3, 8}) {
      set_num_workers(nw);
      const auto batch = engine.serve_batch(requests);
      ASSERT_EQ(batch.size(), sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(batch[i].source, sources[i]);
        EXPECT_EQ(batch[i].dist, ref[i].dist)
            << name << " nw=" << nw << " source " << sources[i];
        EXPECT_EQ(batch[i].stats.steps, ref[i].stats.steps) << name;
        EXPECT_EQ(batch[i].stats.settled, ref[i].stats.settled) << name;
      }
    }
  }
}

TEST(QueryBatch, BstBatchExactOnAdversarialSuite) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::adversarial_suite(9)) {
    const SsspEngine engine = raw_engine(g);
    const std::vector<Vertex> sources = spread_sources(g, 5);
    const std::vector<QueryRequest> requests =
        full_requests(sources, QueryEngine::kBst);
    for (const int nw : {1, 4}) {
      set_num_workers(nw);
      const auto batch = engine.serve_batch(requests);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(batch[i].dist, dijkstra(g, sources[i]))
            << name << " nw=" << nw;
      }
    }
  }
}

TEST(QueryContext, BstContextReuseAcrossEnginesAndGraphSizes) {
  // One context serves kBst (treap arena) and kFlat queries interleaved,
  // across graphs of different sizes, warm the whole time.
  QueryContext ctx;
  const QueryRequest bst = test::full_request(1, QueryEngine::kBst);
  const QueryRequest flat = test::full_request(1, QueryEngine::kFlat);
  for (const auto& [name, g] : test::weighted_suite(29)) {
    PreprocessOptions opts;
    opts.rho = 12;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const auto ref = engine.serve(flat);
    EXPECT_EQ(engine.serve(bst, ctx).dist, ref.dist) << name;
    EXPECT_EQ(engine.serve(flat, ctx).dist, ref.dist) << name;
    // Re-query through the used context, sequential mode.
    ctx.set_sequential(true);
    const auto again = engine.serve(bst, ctx);
    EXPECT_EQ(again.dist, ref.dist) << name;
    EXPECT_EQ(again.stats.steps, ref.stats.steps) << name;
    ctx.set_sequential(false);
  }
}

TEST(QueryContext, BstSequentialTwinMatchesParallelEngine) {
  WorkerGuard guard;
  set_num_workers(4);
  for (const auto& [name, g] : test::weighted_suite(37)) {
    const auto radius = all_radii(g, 8);
    RunStats par_stats, seq_stats;
    const auto par = radius_stepping_bst(g, 1, radius, &par_stats);

    QueryContext ctx;
    ctx.set_sequential(true);
    std::vector<Dist> seq;
    radius_stepping_bst(g, 1, radius, ctx, seq, &seq_stats);
    EXPECT_EQ(seq, par) << name;
    EXPECT_EQ(seq_stats.steps, par_stats.steps) << name;
    EXPECT_EQ(seq_stats.settled, par_stats.settled) << name;
    // The treap arena recycled every node once the query finished.
    EXPECT_EQ(ctx.tree_arena().free_nodes(), ctx.tree_arena().total_nodes())
        << name;
  }
}

TEST(QueryBatch, EmptyBatchAndValidation) {
  const Graph g = assign_uniform_weights(gen::grid2d(6, 6), 1, 1, 9);
  PreprocessOptions opts;
  opts.rho = 6;
  const SsspEngine engine(g, opts);
  EXPECT_TRUE(engine.serve_batch({}).empty());
  // Bad sources throw up front, before any parallel work starts.
  EXPECT_THROW(engine.serve_batch(full_requests({0, g.num_vertices()})),
               std::invalid_argument);
  // The unweighted guard also fires for batches (weighted graph here).
  EXPECT_THROW(engine.serve_batch(full_requests({0}, QueryEngine::kUnweighted)),
               std::invalid_argument);
}

TEST(QueryContext, ReuseMatchesFreshContexts) {
  const auto suite = test::weighted_suite(23);
  const auto& g = suite[0].graph;
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  const SsspEngine engine(g, opts);

  // Two queries through ONE warm context == two fresh-context queries.
  QueryContext ctx;
  const QueryRequest a = test::full_request(0);
  const QueryRequest b = test::full_request(g.num_vertices() / 2);
  const auto warm_a = engine.serve(a, ctx);
  const auto warm_b = engine.serve(b, ctx);
  EXPECT_EQ(warm_a.dist, engine.serve(a).dist);
  EXPECT_EQ(warm_b.dist, engine.serve(b).dist);
  // Re-querying the first source through the used context still matches.
  EXPECT_EQ(engine.serve(a, ctx).dist, warm_a.dist);
}

TEST(QueryContext, ReuseAcrossGraphsOfDifferentSizes) {
  QueryContext ctx;
  for (const auto& [name, g] : test::weighted_suite(31)) {
    const auto radius = constant_radii(g.num_vertices(), 40);
    std::vector<Dist> got;
    radius_stepping(g, 0, radius, ctx, got);
    EXPECT_EQ(got, dijkstra(g, 0)) << name;
  }
  // And shrink back to a tiny graph after the big ones.
  const Graph tiny = assign_uniform_weights(gen::chain(5), 2, 1, 4);
  std::vector<Dist> got;
  radius_stepping(tiny, 0, constant_radii(5, 3), ctx, got);
  EXPECT_EQ(got, dijkstra(tiny, 0));
}

TEST(QueryContext, SequentialTwinMatchesParallelEngine) {
  WorkerGuard guard;
  set_num_workers(4);
  for (const auto& [name, g] : test::weighted_suite(17)) {
    const auto radius = all_radii(g, 8);
    RunStats par_stats, seq_stats;
    const auto par = radius_stepping(g, 1, radius, &par_stats);

    QueryContext ctx;
    ctx.set_sequential(true);
    std::vector<Dist> seq;
    radius_stepping(g, 1, radius, ctx, seq, &seq_stats);
    EXPECT_EQ(seq, par) << name;
    // Steps and settled counts are schedule-independent; substep counts
    // are not (chaotic relaxation converges at an order-dependent rate),
    // so only the k+2-style bound relation is comparable across modes.
    EXPECT_EQ(seq_stats.steps, par_stats.steps) << name;
    EXPECT_EQ(seq_stats.settled, par_stats.settled) << name;
    EXPECT_GE(seq_stats.substeps, seq_stats.steps) << name;
  }
}

TEST(QueryContext, SequentialUnweightedTwinMatches) {
  WorkerGuard guard;
  set_num_workers(4);
  for (const auto& [name, g] : test::unweighted_suite(19)) {
    const auto radius = all_radii(g, 6);
    RunStats par_stats, seq_stats;
    const auto par = radius_stepping_unweighted(g, 0, radius, &par_stats);
    QueryContext ctx;
    ctx.set_sequential(true);
    std::vector<Dist> seq;
    radius_stepping_unweighted(g, 0, radius, ctx, seq, &seq_stats);
    EXPECT_EQ(seq, par) << name;
    EXPECT_EQ(seq_stats.steps, par_stats.steps) << name;
    EXPECT_EQ(seq_stats.settled, par_stats.settled) << name;
  }
}

TEST(QueryContext, BaselinesReuseOneContext) {
  QueryContext ctx;
  for (const auto& [name, g] : test::weighted_suite(41)) {
    const Vertex n = g.num_vertices();
    for (const Vertex s : {Vertex{0}, static_cast<Vertex>(n - 1)}) {
      const auto ref = dijkstra(g, s);
      std::vector<Dist> got;
      dijkstra(g, s, ctx, got);
      EXPECT_EQ(got, ref) << name << " dijkstra src " << s;
      // Bellman-Ford (r = infinity) in both twins on the shared context.
      // Substep counts are compared in the Seq twin only: a Par substep
      // may see distances lowered earlier in the same substep, so its
      // count depends on the schedule.
      for (const bool sequential : {true, false}) {
        RunStats fresh, warm;
        const auto bf_ref = test::bellman_ford_twin(g, s, sequential, &fresh);
        ctx.set_sequential(sequential);
        radius_stepping(g, s, bellman_ford_radii(n), ctx, got, &warm);
        ctx.set_sequential(false);
        EXPECT_EQ(got, bf_ref) << name << " sequential " << sequential;
        EXPECT_EQ(got, ref) << name << " sequential " << sequential;
        if (sequential) {
          EXPECT_EQ(warm.substeps, fresh.substeps) << name;
        }
      }
      delta_stepping(g, s, ctx, got);
      EXPECT_EQ(got, ref) << name << " delta src " << s;
    }
  }
  for (const auto& [name, g] : test::unweighted_suite(43)) {
    std::size_t rounds_fresh = 0, rounds_ctx = 0;
    const auto ref = bfs(g, 2, &rounds_fresh);
    std::vector<Dist> got;
    bfs(g, 2, ctx, got, &rounds_ctx);
    EXPECT_EQ(got, ref) << name;
    EXPECT_EQ(rounds_ctx, rounds_fresh) << name;
  }
}

TEST(QueryContext, BaselinesExactOnAdversarialSuite) {
  QueryContext ctx;
  ctx.set_sequential(true);
  for (const auto& [name, g] : test::adversarial_suite(7)) {
    const auto ref = dijkstra(g, 1);
    std::vector<Dist> got;
    dijkstra(g, 1, ctx, got);
    EXPECT_EQ(got, ref) << name;
    radius_stepping(g, 1, bellman_ford_radii(g.num_vertices()), ctx, got);
    EXPECT_EQ(got, ref) << name;
    delta_stepping(g, 1, ctx, got);
    EXPECT_EQ(got, ref) << name;
  }
}

TEST(WorkerPool, SlotsAreLazyAndStable) {
  WorkerPool<QueryContext> pool;
  EXPECT_EQ(pool.size(), 0u);
  pool.ensure(2);
  ASSERT_EQ(pool.size(), 2u);
  QueryContext* first = &pool.at(0);
  first->reserve(100);
  pool.ensure(5);
  EXPECT_EQ(pool.size(), 5u);
  // Growth must not move existing slots (workers hold references).
  EXPECT_EQ(&pool.at(0), first);
  EXPECT_EQ(pool.at(0).capacity(), 100u);
  pool.ensure(3);  // never shrinks
  EXPECT_EQ(pool.size(), 5u);
}

}  // namespace
}  // namespace rs
