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
#include <type_traits>
#include <utility>
#include <vector>

#include <omp.h>

#include "core/step_loop.hpp"
#include "parallel/primitives.hpp"
#include "pset/treap.hpp"

namespace rs {
namespace {

using Key = std::pair<Dist, Vertex>;
using OrderedSet = Treap<Key>;

/// Algorithm 2's parts (the loop is detail::run_steps).
template <bool Par>
class BstStep : public detail::QueryState<Graph> {
 public:
  static constexpr const char* kName = "radius_stepping_bst";
  static constexpr std::uint64_t RunStats::*kPartitionNs =
      &RunStats::partition_ns;

  explicit BstStep(const detail::QueryState<Graph>& state)
      : QueryState(state),
        arena_(arena_for(ctx)),
        q_(arena_),
        r_(arena_),
        // First-touch records: every distance store of this engine happens
        // in the sequential spine (seed loop + batch application), so
        // bucket 0 suffices in both twins.
        touch_(ctx.touch_buckets(1)[0]),
        old_dist_(ctx.old_dist(g.num_vertices())),
        active_(ctx.active()),
        next_active_(ctx.next()),
        touched_(ctx.updated()),
        kb_(ctx.key_buffers()),
        nw_(Par ? num_workers() : 1),
        proposals_(ctx.pair_buckets(nw_)) {}

  void run(Vertex source) { detail::run_steps(*this, source); }

  // Lines 3-4: the source settles ("in some A_i") and Q and R are seeded
  // with its relaxed neighbours.
  void seed(Vertex source) {
    store(source, 0);
    touch_.push_back(source);
    goal.settle(source);
    for (EdgeId e = g.first_arc(source); e < g.last_arc(source); ++e) {
      const Vertex v = g.arc_target(e);
      if (v == source) continue;
      const Dist nd = g.arc_weight(e);
      const Dist dv = load(v);
      if (nd < dv) {
        if (dv != kInfDist) {
          q_.erase({dv, v});
          r_.erase({dv + radius[v], v});
        } else {
          touch_.push_back(v);
        }
        store(v, nd);
        q_.insert({nd, v});
        r_.insert({nd + radius[v], v});
        ++stats.relaxations;
        goal.check_bound(v, nd);
      }
    }
  }

  bool frontier_empty() const { return q_.empty(); }

  // Line 6: d_i = min of R. Line 7: A_i = Q.split(d_i); Line 8: drop A_i's
  // keys from R.
  Dist open_step() {
    const Dist di = r_.min().first;
    OrderedSet moved = q_.split_leq({di, kNoVertex});
    moved.to_vector(kb_.moved);
    active_.clear();
    kb_.r_moved.clear();
    for (const auto& [d, v] : kb_.moved) {
      active_.push_back(v);
      goal.settle(v);
      kb_.r_moved.push_back({d + radius[v], v});
    }
    std::sort(kb_.r_moved.begin(), kb_.r_moved.end());
    r_.subtract(OrderedSet::from_sorted(kb_.r_moved, arena_));
    // R's minimum is delta(v) + r(v) >= delta(v) for some frontier v, so
    // the split must free at least that vertex; an empty active set means
    // Q and R lost sync (a structural bug, not an input condition).
    if (active_.empty()) {
      throw std::logic_error("radius_stepping_bst: Q/R inconsistency");
    }
    return di;
  }

  std::size_t active_size() const { return active_.size(); }

  // Lines 9-10: gather relaxation proposals Jacobi-style, from the
  // pre-substep distances.
  void relax(Dist prev_di) {
    for (int t = 0; t < nw_; ++t) {
      proposals_[static_cast<std::size_t>(t)].clear();
    }
    detail::sum_over<Par>(active_.size(), nw_, [&](std::size_t i, int w) {
      auto& mine = proposals_[static_cast<std::size_t>(w)];
      const Vertex u = active_[i];
      const Dist du = load(u);
      for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
        const Vertex v = g.arc_target(e);
        const Dist dv = load(v);
        if (dv <= prev_di) continue;  // v in S_{i-1}: final
        const Dist nd = du + g.arc_weight(e);
        if (nd < dv) mine.push_back({v, nd});
      }
      return std::size_t{0};
    });
  }

  // Lines 11-19: apply the batch sequentially (set-structure updates are
  // the sequential spine of this engine; the paper batches them with
  // pack/sort — the bulk union/difference below are those ops), then
  // classify the touched vertices into the Q/R batch updates.
  void partition(Dist di) {
    ctx.next_mark_epoch();  // one touched-stamp scope per substep
    touched_.clear();
    for (int t = 0; t < nw_; ++t) {
      for (const auto& [v, nd] : proposals_[static_cast<std::size_t>(t)]) {
        const Dist dv = load(v);
        if (nd >= dv) continue;  // superseded within the batch
        if (dv == kInfDist) touch_.push_back(v);  // first ever finite value
        if (ctx.mark(v)) {
          old_dist_[v] = dv;
          touched_.push_back(v);
        }
        store(v, nd);
        ++stats.relaxations;
      }
    }

    kb_.q_remove.clear();
    kb_.r_remove.clear();
    kb_.q_insert.clear();
    kb_.r_insert.clear();
    next_active_.clear();
    for (const Vertex v : touched_) {
      const Dist nd = load(v);
      const Dist od = old_dist_[v];
      goal.check_bound(v, nd);
      if (ctx.is_settled(v)) {
        // Already in A_i: improved again within the annulus; re-relax.
        next_active_.push_back(v);
        continue;
      }
      if (od != kInfDist) {
        kb_.q_remove.push_back({od, v});
        kb_.r_remove.push_back({od + radius[v], v});
      }
      if (nd <= di) {
        // Lines 11-14: migrate from Q/R into A_i.
        goal.settle(v);
        next_active_.push_back(v);
      } else {
        kb_.q_insert.push_back({nd, v});
        kb_.r_insert.push_back({nd + radius[v], v});
      }
    }
    std::sort(kb_.q_remove.begin(), kb_.q_remove.end());
    std::sort(kb_.r_remove.begin(), kb_.r_remove.end());
    std::sort(kb_.q_insert.begin(), kb_.q_insert.end());
    std::sort(kb_.r_insert.begin(), kb_.r_insert.end());
    q_.subtract(OrderedSet::from_sorted(kb_.q_remove, arena_));
    r_.subtract(OrderedSet::from_sorted(kb_.r_remove, arena_));
    q_.union_with(OrderedSet::from_sorted(kb_.q_insert, arena_));
    r_.union_with(OrderedSet::from_sorted(kb_.r_insert, arena_));
    active_.swap(next_active_);
  }

  // Q and R are the frontier and carry d_i themselves.
  void rebuild() {}

 private:
  // Treap node recycling: the Par twin hands its treaps the context's
  // per-worker arena POOL — every acquire/release goes to the executing
  // thread's own freelist, so the bulk set ops keep the paper's task-
  // parallel recursion AND recycle nodes across queries. The Seq twin
  // pins arena 0 of the same pool (single-owner freelist, which also
  // keeps the bulk ops strictly sequential — no regions to nest inside
  // the batch scheduler's). The pool must cover the largest team the
  // treap regions can open: they use the default team size, not
  // num_workers(), so size for whichever is larger.
  using Arena =
      std::conditional_t<Par, TreapArenaPool<Key>*, TreapArena<Key>*>;
  static Arena arena_for(QueryContext& ctx) {
    if constexpr (Par) {
      return &ctx.tree_arenas(static_cast<std::size_t>(
          std::max(num_workers(), omp_get_max_threads())));
    } else {
      return &ctx.tree_arenas(1).arena(0);
    }
  }

  const Arena arena_;
  OrderedSet q_;  // {(delta(v), v)} for the inactive frontier
  OrderedSet r_;  // {(delta(v) + r(v), v)}, same membership as Q
  std::vector<Vertex>& touch_;
  // Context-owned per-vertex state: `ctx.mark(v)` under one mark epoch per
  // substep plays the touched-stamp ("updated this substep") role;
  // `old_dist[v]` remembers a touched vertex's pre-substep distance;
  // settled stamps mark membership in the current or any previous A_i.
  std::vector<Dist>& old_dist_;
  std::vector<Vertex>& active_;
  std::vector<Vertex>& next_active_;
  std::vector<Vertex>& touched_;
  QueryContext::KeyBuffers& kb_;
  const int nw_;
  std::vector<std::vector<std::pair<Vertex, Dist>>>& proposals_;
};

}  // namespace

void radius_stepping_bst(const Graph& g, Vertex source,
                         const std::vector<Dist>& radius, QueryContext& ctx,
                         std::vector<Dist>& out, RunStats* stats) {
  detail::run_full<BstStep>(g, source, radius, ctx, out, stats);
}

std::vector<Dist> radius_stepping_bst(const Graph& g, Vertex source,
                                      const std::vector<Dist>& radius,
                                      RunStats* stats) {
  return detail::run_fresh<BstStep>(g, source, radius, stats);
}

void radius_stepping_bst_partial(const Graph& g, Vertex source,
                                 const std::vector<Dist>& radius,
                                 QueryContext& ctx, RunStats* stats) {
  detail::run_partial<BstStep>(g, source, radius, ctx, stats);
}

}  // namespace rs
