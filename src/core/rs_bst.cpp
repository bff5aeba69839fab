// Algorithm 2 on the join-based treap (pset/treap.hpp), running entirely
// out of a QueryContext. See core/rs_bst.hpp for the algorithmic
// commentary.
//
// Like the flat engine (radius_stepping.cpp), the implementation is a
// Par/Seq template twin: `Par` selects parallel Jacobi-style proposal
// gathering (OpenMP, per-worker buckets) or the strictly sequential twin
// the batch scheduler runs one-per-worker. All per-query state — the
// distance array, settled/touched stamps, vertex lists, proposal buckets,
// the four sorted batch-update key buffers, and the treap node arena —
// comes from the context, so the sequential twin answers warm-context
// queries with zero heap allocations: treap nodes are recycled through the
// arena freelist, and every vector keeps its capacity across queries.
#include "core/rs_bst.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include <omp.h>

#include "parallel/primitives.hpp"
#include "pset/treap.hpp"

namespace rs {
namespace {

using Key = std::pair<Dist, Vertex>;
using OrderedSet = Treap<Key>;

template <bool Par>
void radius_stepping_bst_run(const Graph& g, Vertex source,
                             const std::vector<Dist>& radius,
                             QueryContext& ctx, RunStats& local) {
  const Vertex n = g.num_vertices();
  const bool targeted = ctx.has_targets();
  const bool bounds = targeted && ctx.has_target_bounds();
  const std::size_t k_goal = ctx.k_goal();
  // Settle sites are all in the sequential spine, so the target counter
  // needs no atomics. Like the flat engine, the early exit only fires at
  // step boundaries: vertices settled mid-step can still improve while
  // the annulus converges (the re-relax branch below).
  const auto settle = [&ctx, targeted](Vertex v) {
    ctx.mark_settled(v);
    if (targeted) ctx.note_target_settled(v);
  };
  // Goal checks fire at step boundaries only, where Theorem 3.1 makes
  // every settled distance final: all targets settled (by order or by
  // lower-bound proof), or — kTopK — at least k vertices settled.
  const auto goals_met = [&](std::size_t settled_count) {
    if (targeted && ctx.targets_remaining() == 0) return true;
    return k_goal != 0 && settled_count >= k_goal;
  };

  std::atomic<Dist>* dist = ctx.dist();
  const auto load = [&](Vertex v) {
    return dist[v].load(std::memory_order_relaxed);
  };
  const auto store = [&](Vertex v, Dist d) {
    dist[v].store(d, std::memory_order_relaxed);
  };
  // Treap node recycling: the Par twin hands its treaps the context's
  // per-worker arena POOL — every acquire/release goes to the executing
  // thread's own freelist, so the bulk set ops keep the paper's task-
  // parallel recursion AND recycle nodes across queries. The Seq twin
  // pins arena 0 of the same pool (single-owner freelist, which also
  // keeps the bulk ops strictly sequential — no regions to nest inside
  // the batch scheduler's). The pool must cover the largest team the
  // treap regions can open: they use the default team size, not
  // num_workers(), so size for whichever is larger.
  const std::size_t team = static_cast<std::size_t>(
      Par ? std::max(num_workers(), omp_get_max_threads()) : 1);
  TreapArenaPool<Key>& pool = ctx.tree_arenas(team);
  const auto arena = [&pool] {
    if constexpr (Par) {
      return &pool;
    } else {
      return &pool.arena(0);
    }
  }();

  // First-touch records: every distance store of this engine happens in
  // the sequential spine (seed loop + batch application), so bucket 0
  // suffices in both twins.
  std::vector<Vertex>& touch = ctx.touch_buckets(1)[0];

  store(source, 0);
  touch.push_back(source);
  settle(source);  // settled == the paper's "in some A_i" flag
  local.settled = 1;

  // Lines 3-4: seed Q and R with the source's relaxed neighbours.
  OrderedSet q(arena);  // {(delta(v), v)} for the inactive frontier
  OrderedSet r(arena);  // {(delta(v) + r(v), v)}, same membership as Q
  for (EdgeId e = g.first_arc(source); e < g.last_arc(source); ++e) {
    const Vertex v = g.arc_target(e);
    if (v == source) continue;
    const Dist nd = g.arc_weight(e);
    const Dist dv = load(v);
    if (nd < dv) {
      if (dv != kInfDist) {
        q.erase({dv, v});
        r.erase({dv + radius[v], v});
      } else {
        touch.push_back(v);
      }
      store(v, nd);
      q.insert({nd, v});
      r.insert({nd + radius[v], v});
      ++local.relaxations;
      if (bounds) ctx.note_bound_check(v, nd);
    }
  }

  // Context-owned per-vertex state: `ctx.mark(v)` under one mark epoch per
  // substep plays the touched-stamp ("updated this substep") role;
  // `old_dist[v]` remembers a touched vertex's pre-substep distance;
  // settled stamps mark membership in the current or any previous A_i.
  std::vector<Dist>& old_dist = ctx.old_dist(n);
  std::vector<Vertex>& active = ctx.active();
  std::vector<Vertex>& next_active = ctx.next();
  std::vector<Vertex>& touched = ctx.updated();
  QueryContext::KeyBuffers& kb = ctx.key_buffers();
  Dist prev_di = 0;

  const int nw = Par ? num_workers() : 1;
  std::vector<std::vector<std::pair<Vertex, Dist>>>& proposals =
      ctx.pair_buckets(nw);

  while (!q.empty()) {
    // Step boundary: all settled distances are final, so a run that has
    // met its goal — all targets settled, or k vertices for a top-k
    // request — is done (also covers source-only sets).
    if (goals_met(local.settled)) {
      local.early_exit = true;
      break;
    }
    ++local.steps;

    // Line 6: d_i = min of R.
    const Dist di = r.min().first;

    // Line 7: A_i = Q.split(d_i); Line 8: drop A_i's keys from R.
    OrderedSet moved = q.split_leq({di, kNoVertex});
    moved.to_vector(kb.moved);
    active.clear();
    kb.r_moved.clear();
    for (const auto& [d, v] : kb.moved) {
      active.push_back(v);
      settle(v);
      kb.r_moved.push_back({d + radius[v], v});
    }
    std::sort(kb.r_moved.begin(), kb.r_moved.end());
    r.subtract(OrderedSet::from_sorted(kb.r_moved, arena));
    // R's minimum is delta(v) + r(v) >= delta(v) for some frontier v, so the
    // split must free at least that vertex; an empty active set means Q and
    // R lost sync (a structural bug, not an input condition).
    if (active.empty()) {
      throw std::logic_error("radius_stepping_bst: Q/R inconsistency");
    }
    local.settled += active.size();
    local.max_active = std::max(local.max_active, active.size());

    // Lines 9-19: substeps. Each substep gathers relaxation proposals
    // (Jacobi-style, from the pre-substep distances), applies them, and
    // pushes the Q/R updates as batched set operations.
    std::size_t substeps_this_step = 0;
    while (!active.empty()) {
      ++substeps_this_step;
      ctx.next_mark_epoch();  // one touched-stamp scope per substep
      if constexpr (Par) {
        for (int t = 0; t < nw; ++t) {
          proposals[static_cast<std::size_t>(t)].clear();
        }
#pragma omp parallel num_threads(nw)
        {
          auto& mine =
              proposals[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 64)
          for (std::int64_t i = 0;
               i < static_cast<std::int64_t>(active.size()); ++i) {
            const Vertex u = active[static_cast<std::size_t>(i)];
            const Dist du = load(u);
            for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
              const Vertex v = g.arc_target(e);
              const Dist dv = load(v);
              if (dv <= prev_di) continue;  // v in S_{i-1}: final
              const Dist nd = du + g.arc_weight(e);
              if (nd < dv) mine.push_back({v, nd});
            }
          }
        }
      } else {
        auto& mine = proposals[0];
        mine.clear();
        for (const Vertex u : active) {
          const Dist du = load(u);
          for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
            const Vertex v = g.arc_target(e);
            const Dist dv = load(v);
            if (dv <= prev_di) continue;  // v in S_{i-1}: final
            const Dist nd = du + g.arc_weight(e);
            if (nd < dv) mine.push_back({v, nd});
          }
        }
      }

      // Apply the batch sequentially (set-structure updates are the
      // sequential spine of this engine; the paper batches them with
      // pack/sort — the bulk union/difference below are those ops).
      touched.clear();
      for (int t = 0; t < nw; ++t) {
        for (const auto& [v, nd] : proposals[static_cast<std::size_t>(t)]) {
          const Dist dv = load(v);
          if (nd >= dv) continue;  // superseded within the batch
          if (dv == kInfDist) touch.push_back(v);  // first ever finite value
          if (ctx.mark(v)) {
            old_dist[v] = dv;
            touched.push_back(v);
          }
          store(v, nd);
          ++local.relaxations;
        }
      }

      // Classify touched vertices and build the Q/R batch updates.
      kb.q_remove.clear();
      kb.r_remove.clear();
      kb.q_insert.clear();
      kb.r_insert.clear();
      next_active.clear();
      for (const Vertex v : touched) {
        const Dist nd = load(v);
        const Dist od = old_dist[v];
        // Lower-bound proof site (sequential classify pass, both twins).
        if (bounds) ctx.note_bound_check(v, nd);
        if (ctx.is_settled(v)) {
          // Already in A_i: improved again within the annulus; re-relax.
          next_active.push_back(v);
          continue;
        }
        if (od != kInfDist) {
          kb.q_remove.push_back({od, v});
          kb.r_remove.push_back({od + radius[v], v});
        }
        if (nd <= di) {
          // Line 11-14: migrate from Q/R into A_i.
          settle(v);
          next_active.push_back(v);
          ++local.settled;
        } else {
          kb.q_insert.push_back({nd, v});
          kb.r_insert.push_back({nd + radius[v], v});
        }
      }
      std::sort(kb.q_remove.begin(), kb.q_remove.end());
      std::sort(kb.r_remove.begin(), kb.r_remove.end());
      std::sort(kb.q_insert.begin(), kb.q_insert.end());
      std::sort(kb.r_insert.begin(), kb.r_insert.end());
      q.subtract(OrderedSet::from_sorted(kb.q_remove, arena));
      r.subtract(OrderedSet::from_sorted(kb.r_remove, arena));
      q.union_with(OrderedSet::from_sorted(kb.q_insert, arena));
      r.union_with(OrderedSet::from_sorted(kb.r_insert, arena));

      active.swap(next_active);
      local.max_active = std::max(local.max_active, active.size());
    }
    local.substeps += substeps_this_step;
    local.max_substeps_in_step =
        std::max(local.max_substeps_in_step, substeps_this_step);
    prev_di = di;
  }
}

}  // namespace

void radius_stepping_bst(const Graph& g, Vertex source,
                         const std::vector<Dist>& radius, QueryContext& ctx,
                         std::vector<Dist>& out, RunStats* stats) {
  ctx.clear_targets();  // full output == exhaustive run, always
  radius_stepping_bst_partial(g, source, radius, ctx, stats);
  ctx.finish_query(g.num_vertices(), out);
}

std::vector<Dist> radius_stepping_bst(const Graph& g, Vertex source,
                                      const std::vector<Dist>& radius,
                                      RunStats* stats) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  radius_stepping_bst(g, source, radius, ctx, out, stats);
  return out;
}

void radius_stepping_bst_partial(const Graph& g, Vertex source,
                                 const std::vector<Dist>& radius,
                                 QueryContext& ctx, RunStats* stats) {
  const Vertex n = g.num_vertices();
  if (radius.size() != n) {
    throw std::invalid_argument("radius_stepping_bst: radius size mismatch");
  }
  if (source >= n) throw std::invalid_argument("radius_stepping_bst: source");

  ctx.begin_query(n);
  RunStats local;
  if (ctx.sequential()) {
    radius_stepping_bst_run<false>(g, source, radius, ctx, local);
  } else {
    radius_stepping_bst_run<true>(g, source, radius, ctx, local);
  }
  local.touched = ctx.touched_count();
  if (stats != nullptr) *stats = local;
}

}  // namespace rs
