// The fragment-partitioned substrate and its engine:
//
//  * Partition invariants — every vertex inner in exactly one fragment,
//    global<->local maps mutually inverse, contiguous sizes balanced —
//    for both modes, including F = 1 and F > n;
//  * FragmentedGraph covers every arc of the flat graph exactly once
//    (triple multisets equal) with consistent ghost tables, over the
//    weighted AND adversarial suites;
//  * the fragment engine's distances are BIT-IDENTICAL to the flat
//    engine's on every suite graph, for fragment counts {1, 2, 4, 8},
//    both partition modes, and worker counts {1, default, 8} — including
//    targeted serves with early termination, top-k, and serve_batch;
//  * kFragment requests are rejected (std::invalid_argument, not a
//    crash) when the engine was built without enable_fragments(), and
//    keep working in a next_epoch() successor, which keeps the fragment
//    count and partition mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/radii.hpp"
#include "core/radius_stepping.hpp"
#include "core/rs_fragment.hpp"
#include "graph/fragment.hpp"
#include "graph/partition.hpp"
#include "parallel/primitives.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

struct WorkerGuard {
  int before = num_workers();
  ~WorkerGuard() { set_num_workers(before); }
};

SsspEngine raw_engine(const Graph& g, Dist r = 25) {
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = constant_radii(g.num_vertices(), r);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  return SsspEngine(g, std::move(pre));
}

std::vector<Vertex> spread_targets(const Graph& g, std::size_t count) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<Vertex>(((i + 1) * n) / (count + 1)));
  }
  return out;
}

std::vector<EdgeTriple> sorted_triples(std::vector<EdgeTriple> t) {
  std::sort(t.begin(), t.end(), [](const EdgeTriple& a, const EdgeTriple& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.w < b.w;
  });
  return t;
}

// ---------------------------------------------------------------------------
// Partition

TEST(Partition, CoversEveryVertexExactlyOnceInBothModes) {
  for (const Vertex n : {Vertex{0}, Vertex{1}, Vertex{7}, Vertex{100}}) {
    for (const std::size_t f : {1u, 2u, 3u, 8u, 200u}) {
      for (const PartitionMode mode :
           {PartitionMode::kContiguous, PartitionMode::kHash}) {
        const Partition p = Partition::make(n, f, mode);
        EXPECT_EQ(p.num_vertices(), n);
        EXPECT_GE(p.num_fragments(), 1u);
        std::size_t covered = 0;
        for (std::size_t fr = 0; fr < p.num_fragments(); ++fr) {
          const auto& inner = p.inner(fr);
          EXPECT_TRUE(std::is_sorted(inner.begin(), inner.end()));
          for (std::size_t l = 0; l < inner.size(); ++l) {
            const Vertex v = inner[l];
            EXPECT_EQ(p.owner(v), fr);
            EXPECT_EQ(p.local_id(v), static_cast<Vertex>(l));
            EXPECT_EQ(p.global_id(fr, static_cast<Vertex>(l)), v);
          }
          covered += inner.size();
        }
        EXPECT_EQ(covered, static_cast<std::size_t>(n))
            << "n=" << n << " f=" << f;
      }
    }
  }
}

TEST(Partition, ContiguousRangesAreBalancedAndOrdered) {
  const Partition p = Partition::contiguous(103, 4);
  EXPECT_EQ(p.num_fragments(), 4u);
  std::size_t lo = 103 / 4, hi = lo + 1;
  Vertex next = 0;
  for (std::size_t f = 0; f < 4; ++f) {
    const auto& inner = p.inner(f);
    EXPECT_TRUE(inner.size() == lo || inner.size() == hi) << f;
    for (const Vertex v : inner) EXPECT_EQ(v, next++);  // contiguous ranges
  }
  EXPECT_EQ(next, 103u);
}

TEST(Partition, HashModeSpreadsVertices) {
  const Partition p = Partition::by_hash(1000, 8);
  for (std::size_t f = 0; f < 8; ++f) {
    // hash64 is close to uniform; a degenerate split would break this by
    // an order of magnitude.
    EXPECT_GT(p.fragment_size(f), 60u) << f;
    EXPECT_LT(p.fragment_size(f), 190u) << f;
  }
}

TEST(Partition, ParsesFragmentCountLikeWorkerCount) {
  EXPECT_EQ(parse_fragment_count(nullptr, 3), 3);
  EXPECT_EQ(parse_fragment_count("", 3), 3);
  EXPECT_EQ(parse_fragment_count("4", 3), 4);
  EXPECT_EQ(parse_fragment_count(" 12", 3), 12);
  EXPECT_EQ(parse_fragment_count("garbage", 3), 3);
  EXPECT_EQ(parse_fragment_count("0", 3), 3);
  EXPECT_EQ(parse_fragment_count("-2", 3), 3);
  EXPECT_GE(default_num_fragments(), 1);
}

// ---------------------------------------------------------------------------
// FragmentedGraph

TEST(FragmentedGraph, CoversEveryArcExactlyOnce) {
  for (const auto& suite :
       {test::weighted_suite(11), test::adversarial_suite(11)}) {
    for (const auto& [name, g] : suite) {
      const auto flat = sorted_triples(g.to_triples());
      for (const std::size_t f : {1u, 2u, 4u, 8u}) {
        for (const PartitionMode mode :
             {PartitionMode::kContiguous, PartitionMode::kHash}) {
          const FragmentedGraph fg(g, f, mode);
          EXPECT_EQ(fg.num_vertices(), g.num_vertices()) << name;
          EXPECT_EQ(fg.num_edges(), g.num_edges()) << name;
          EXPECT_EQ(sorted_triples(fg.to_triples()), flat)
              << name << " f=" << f;
        }
      }
    }
  }
}

TEST(FragmentedGraph, GhostTablesAreConsistent) {
  for (const auto& [name, g] : test::weighted_suite(12)) {
    const FragmentedGraph fg(g, 4, PartitionMode::kHash);
    const Partition& p = fg.partition();
    for (std::size_t f = 0; f < fg.num_fragments(); ++f) {
      const auto& frag = fg.fragment(f);
      EXPECT_EQ(frag.inner_global, p.inner(f)) << name;
      EXPECT_TRUE(std::is_sorted(frag.ghost_global.begin(),
                                 frag.ghost_global.end()))
          << name;
      for (Vertex i = 0; i < frag.num_ghosts(); ++i) {
        const Vertex v = frag.ghost_global[i];
        EXPECT_NE(p.owner(v), f) << name;  // a ghost is never inner here
        EXPECT_EQ(frag.ghost_owner[i], p.owner(v)) << name;
        // Universe index round-trips to the global id.
        EXPECT_EQ(frag.to_global(frag.num_inner() + i), v) << name;
      }
      // Every head is a valid universe index.
      for (const Vertex h : frag.heads) {
        EXPECT_LT(h, frag.num_inner() + frag.num_ghosts()) << name;
      }
    }
  }
}

TEST(FragmentedGraph, DefaultCountRespectsEnv) {
  const Graph g = test::weighted_suite(1)[0].graph;
  const FragmentedGraph fg(g, 0);
  EXPECT_EQ(fg.num_fragments(),
            static_cast<std::size_t>(default_num_fragments()));
}

// ---------------------------------------------------------------------------
// Fragment engine == flat engine, bit for bit

TEST(FragmentEngine, MatchesFlatOnBothSuitesAllFragmentAndWorkerCounts) {
  WorkerGuard guard;
  for (const auto& suite :
       {test::weighted_suite(21), test::adversarial_suite(21)}) {
    for (const auto& [name, g] : suite) {
      const auto radius = constant_radii(g.num_vertices(), 25);
      const auto flat = radius_stepping(g, 0, radius);
      EXPECT_EQ(flat, dijkstra(g, 0)) << name;
      for (const std::size_t f : {1u, 2u, 4u, 8u}) {
        for (const PartitionMode mode :
             {PartitionMode::kContiguous, PartitionMode::kHash}) {
          const FragmentedGraph fg(g, f, mode);
          for (const int nw : {1, guard.before, 8}) {
            set_num_workers(nw);
            RunStats stats;
            EXPECT_EQ(radius_stepping_fragment(fg, 0, radius, &stats), flat)
                << name << " f=" << f << " nw=" << nw;
            EXPECT_EQ(stats.settled, static_cast<std::size_t>(std::count_if(
                                         flat.begin(), flat.end(),
                                         [](Dist d) { return d != kInfDist; })))
                << name;
          }
        }
      }
    }
  }
}

TEST(FragmentEngine, SequentialTwinMatchesToo) {
  for (const auto& [name, g] : test::weighted_suite(22)) {
    const auto radius = constant_radii(g.num_vertices(), 25);
    const auto flat = radius_stepping(g, 0, radius);
    const FragmentedGraph fg(g, 4);
    QueryContext ctx(g.num_vertices());
    ctx.set_sequential(true);
    std::vector<Dist> out;
    radius_stepping_fragment(fg, 0, radius, ctx, out);
    EXPECT_EQ(out, flat) << name;
  }
}

TEST(FragmentEngine, StepSequenceMatchesFlat) {
  for (const auto& [name, g] : test::weighted_suite(23)) {
    const auto radius = all_radii(g, 8);
    RunStats flat_stats, frag_stats;
    const auto flat = radius_stepping(g, 0, radius, &flat_stats);
    const FragmentedGraph fg(g, 4);
    EXPECT_EQ(radius_stepping_fragment(fg, 0, radius, &frag_stats), flat)
        << name;
    EXPECT_EQ(flat_stats.steps, frag_stats.steps) << name;
    EXPECT_EQ(flat_stats.settled, frag_stats.settled) << name;
    EXPECT_EQ(flat_stats.touched, frag_stats.touched) << name;
  }
}

// ---------------------------------------------------------------------------
// Engine-level serving (kFragment)

TEST(FragmentServe, TargetedServeMatchesFlatWithEarlyTermination) {
  WorkerGuard guard;
  for (const auto& suite :
       {test::weighted_suite(31), test::adversarial_suite(31)}) {
    for (const auto& [name, g] : suite) {
      for (const std::size_t f : {2u, 4u}) {
        SsspEngine engine = raw_engine(g);
        engine.enable_fragments(f);
        for (const int nw : {1, guard.before, 8}) {
          set_num_workers(nw);
          QueryRequest req;
          req.source = 0;
          req.targets = spread_targets(g, 3);
          QueryRequest flat_req = req;
          flat_req.engine = QueryEngine::kFlat;
          req.engine = QueryEngine::kFragment;
          const QueryResponse a = engine.serve(req);
          const QueryResponse b = engine.serve(flat_req);
          ASSERT_EQ(a.targets.size(), b.targets.size()) << name;
          for (std::size_t i = 0; i < a.targets.size(); ++i) {
            EXPECT_EQ(a.targets[i].dist, b.targets[i].dist)
                << name << " f=" << f << " nw=" << nw;
          }
        }
      }
    }
  }
}

TEST(FragmentServe, EarlyExitActuallyFires) {
  // Long chain, near target: the targeted run must stop well before the
  // exhaustive one.
  const Graph g = assign_uniform_weights(gen::chain(400), 7, 1, 10);
  SsspEngine engine = raw_engine(g, 5);
  engine.enable_fragments(4);
  QueryRequest req;
  req.source = 0;
  req.targets = {3};
  req.engine = QueryEngine::kFragment;
  const QueryResponse early = engine.serve(req);
  EXPECT_TRUE(early.stats.early_exit);
  QueryRequest full = req;
  full.want_full_distances = true;
  const QueryResponse exhaustive = engine.serve(full);
  EXPECT_LT(early.stats.steps, exhaustive.stats.steps);
  EXPECT_EQ(early.targets[0].dist, exhaustive.dist[3]);
}

TEST(FragmentServe, TopKAndPathsAndBatchMatchFlat) {
  WorkerGuard guard;
  for (const auto& [name, g] : test::weighted_suite(32)) {
    SsspEngine engine = raw_engine(g);
    engine.enable_fragments(4);
    for (const int nw : {1, 8}) {
      set_num_workers(nw);
      QueryRequest topk;
      topk.source = 1;
      topk.kind = RequestKind::kTopK;
      topk.k = 10;
      topk.engine = QueryEngine::kFragment;
      QueryRequest topk_flat = topk;
      topk_flat.engine = QueryEngine::kFlat;
      const QueryResponse a = engine.serve(topk);
      const QueryResponse b = engine.serve(topk_flat);
      ASSERT_EQ(a.targets.size(), b.targets.size()) << name;
      for (std::size_t i = 0; i < a.targets.size(); ++i) {
        EXPECT_EQ(a.targets[i].target, b.targets[i].target) << name;
        EXPECT_EQ(a.targets[i].dist, b.targets[i].dist) << name;
      }

      QueryRequest paths;
      paths.source = 0;
      paths.targets = spread_targets(g, 2);
      paths.want_paths = true;
      paths.engine = QueryEngine::kFragment;
      const QueryResponse pr = engine.serve(paths);
      const auto dij = dijkstra(g, 0);
      for (const TargetResult& tr : pr.targets) {
        EXPECT_EQ(tr.dist, dij[tr.target]) << name;
        if (tr.dist != kInfDist) {
          ASSERT_FALSE(tr.path.empty()) << name;
          EXPECT_EQ(tr.path.front(), 0u) << name;
          EXPECT_EQ(tr.path.back(), tr.target) << name;
        }
      }

      // Batch == per-request serve, with kFragment mixed into the batch.
      std::vector<QueryRequest> batch;
      for (const Vertex s : {Vertex{0}, Vertex{1}, Vertex{2}, Vertex{3}}) {
        QueryRequest r;
        r.source = s;
        r.targets = spread_targets(g, 3);
        r.engine = (s % 2 == 0) ? QueryEngine::kFragment : QueryEngine::kFlat;
        batch.push_back(r);
      }
      const auto responses = engine.serve_batch(batch);
      ASSERT_EQ(responses.size(), batch.size()) << name;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const QueryResponse solo = engine.serve(batch[i]);
        ASSERT_EQ(responses[i].targets.size(), solo.targets.size()) << name;
        for (std::size_t t = 0; t < solo.targets.size(); ++t) {
          EXPECT_EQ(responses[i].targets[t].dist, solo.targets[t].dist)
              << name << " req=" << i;
        }
      }
    }
  }
}

TEST(FragmentServe, LowerBoundsStillExact) {
  for (const auto& [name, g] : test::weighted_suite(33)) {
    SsspEngine engine = raw_engine(g);
    engine.enable_fragments(3);
    const auto dij = dijkstra(g, 0);
    QueryRequest req;
    req.source = 0;
    req.targets = spread_targets(g, 3);
    req.engine = QueryEngine::kFragment;
    // Exact distances are admissible lower bounds — the strongest assist.
    for (const Vertex t : req.targets) {
      req.target_lower_bounds.push_back(dij[t]);
    }
    const QueryResponse resp = engine.serve(req);
    for (std::size_t i = 0; i < req.targets.size(); ++i) {
      EXPECT_EQ(resp.targets[i].dist, dij[req.targets[i]]) << name;
    }
  }
}

TEST(FragmentServe, RejectsRequestsWithoutSubstrate) {
  const Graph g = test::weighted_suite(1)[0].graph;
  const SsspEngine engine = raw_engine(g);
  QueryRequest req;
  req.source = 0;
  req.targets = {1};
  req.engine = QueryEngine::kFragment;
  EXPECT_THROW(engine.validate(req), std::invalid_argument);
  EXPECT_THROW(engine.serve(req), std::invalid_argument);
  EXPECT_THROW((void)engine.serve_batch({req}), std::invalid_argument);
}

TEST(FragmentServe, SurvivesReplaceAndCopy) {
  const auto suite = test::weighted_suite(34);
  const Graph& g1 = suite[0].graph;
  const Graph& g2 = suite[1].graph;
  for (const PartitionMode mode :
       {PartitionMode::kContiguous, PartitionMode::kHash}) {
    SsspEngine engine = raw_engine(g1);
    engine.enable_fragments(4, mode);
    ASSERT_TRUE(engine.fragments_enabled());
    EXPECT_EQ(engine.fragments().num_fragments(), 4u);

    const SsspEngine copy = engine;  // shares the substrate
    EXPECT_TRUE(copy.fragments_enabled());
    EXPECT_EQ(&copy.fragments(), &engine.fragments());

    // The successor re-partitions the new graph with the same resolved
    // count AND mode.
    PreprocessResult pre;
    pre.graph = g2;
    pre.radius = constant_radii(g2.num_vertices(), 25);
    pre.options.heuristic = ShortcutHeuristic::kNone;
    const SsspEngine next = SsspEngine::next_epoch(engine, g2, std::move(pre));
    ASSERT_TRUE(next.fragments_enabled());
    EXPECT_EQ(next.fragments().num_fragments(), 4u);
    EXPECT_EQ(next.fragments().num_vertices(), g2.num_vertices());
    EXPECT_EQ(next.fragments().partition().mode(), mode);
    const QueryRequest req = test::full_request(0, QueryEngine::kFragment);
    EXPECT_EQ(next.serve(req).dist, dijkstra(g2, 0));
    // The prior engine and its copy still serve the OLD graph.
    EXPECT_EQ(engine.serve(req).dist, dijkstra(g1, 0));
    EXPECT_EQ(copy.serve(req).dist, dijkstra(g1, 0));
  }
}

TEST(FragmentEngine, ValidatesInputs) {
  const Graph g = test::weighted_suite(1)[0].graph;
  const FragmentedGraph fg(g, 2);
  const auto radius = constant_radii(g.num_vertices(), 25);
  EXPECT_THROW((void)radius_stepping_fragment(fg, g.num_vertices(), radius),
               std::invalid_argument);
  EXPECT_THROW(
      (void)radius_stepping_fragment(fg, 0, std::vector<Dist>(3, 1)),
      std::invalid_argument);
  const FragmentedGraph empty;
  EXPECT_THROW((void)radius_stepping_fragment(empty, 0, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rs
