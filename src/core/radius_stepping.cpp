#include "core/radius_stepping.hpp"

#include <algorithm>
#include <atomic>

#include "core/step_loop.hpp"
#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// Algorithm 1's parts over a QueryContext (the loop is detail::run_steps).
/// `Par` selects the substrate: parallel edge-maps with atomic WriteMin, or
/// the strictly sequential twin the batch scheduler runs one-per-worker
/// (plain loads/stores, no CAS, no OpenMP regions — it must be nestable
/// inside an outer parallel region). Both produce identical distances and
/// an identical step sequence: by the end of a step every vertex settled in
/// it has relaxed its out-arcs with its final value, so step-boundary
/// distances — and with them the frontier, d_i, steps, and settled counts —
/// are schedule-independent. Substep counts are NOT: relaxations read
/// neighbor distances live (chaotic relaxation), so how fast a step
/// converges internally depends on processing order. Only Theorem 3.2's
/// k+2 upper bound is invariant.
template <bool Par>
class FlatStep : public detail::QueryState<Graph> {
 public:
  static constexpr const char* kName = "radius_stepping";
  static constexpr std::uint64_t RunStats::*kPartitionNs =
      &RunStats::partition_ns;

  explicit FlatStep(const detail::QueryState<Graph>& state)
      : QueryState(state),
        nw_(Par ? num_workers() : 1),
        touch_(ctx.touch_buckets(nw_)),
        buckets_(ctx.buckets(nw_)),
        frontier_(ctx.frontier()),
        next_(ctx.next()),
        active_(ctx.active()),
        updated_(ctx.updated()),
        newly_frontier_(ctx.scratch()) {}

  void run(Vertex source) { detail::run_steps(*this, source); }

  // Line 2: the source settles at 0 and relaxes its out-arcs. The seed is
  // single-threaded in both twins, so the pre-relax load is an exact
  // first-touch observation. Frontier membership is deduplicated with mark
  // stamps under one epoch for the whole query: a vertex only ever leaves
  // the frontier by settling, which is final (Theorem 3.1), so "has ever
  // been a frontier candidate" is exactly "must not re-enter". The
  // frontier is a set; it is never sorted.
  void seed(Vertex source) {
    store(source, 0);
    touch_[0].push_back(source);
    goal.settle(source);
    frontier_.clear();
    newly_frontier_.clear();
    ctx.next_mark_epoch();
    for (EdgeId e = g.first_arc(source); e < g.last_arc(source); ++e) {
      const Vertex v = g.arc_target(e);
      if (v == source) continue;
      const auto w = static_cast<Dist>(g.arc_weight(e));
      const Dist dv = load(v);
      if (w < dv) {
        store(v, w);
        ++stats.relaxations;
        if (dv == kInfDist) touch_[0].push_back(v);
        goal.check_bound(v, w);
      }
      if (!ctx.is_settled(v) && ctx.mark(v)) newly_frontier_.push_back(v);
    }
    rebuild();
  }

  bool frontier_empty() const { return frontier_.empty(); }

  // Line 4's d_i was folded by the last rebuild. The first substep's
  // active set is every frontier vertex inside d_i, settled on sight.
  Dist open_step() {
    const Dist di = pending_di_;
    active_.clear();
    newly_frontier_.clear();
    for (const Vertex v : frontier_) {
      if (load(v) <= di) {
        active_.push_back(v);
        goal.settle(v);
      }
    }
    return di;
  }

  std::size_t active_size() const { return active_.size(); }

  // Lines 5-7: relax the out-arcs of the active set. One claim epoch per
  // substep collects each updated vertex once however many relaxations
  // hit it; first-touch records use the replaced value the store reports.
  void relax(Dist prev_di) {
    ctx.next_claim_epoch();
    stats.relaxations += detail::sum_over<Par>(
        active_.size(), nw_, [&](std::size_t i, int w) {
          auto& mine = buckets_[static_cast<std::size_t>(w)];
          auto& my_touch = touch_[static_cast<std::size_t>(w)];
          const Vertex u = active_[i];
          const Dist du = load(u);
          std::size_t relaxed = 0;
          for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
            const Vertex v = g.arc_target(e);
            // Line 7 relaxes targets outside S_{i-1} only; vertices settled
            // in *this* step may still improve while the annulus
            // converges, so they stay relaxable.
            Dist before = load(v);
            if (before <= prev_di) continue;
            const Dist nd = du + g.arc_weight(e);
            if (nd >= before || !detail::lower<Par>(dist[v], nd, before)) {
              continue;
            }
            ++relaxed;
            if (before == kInfDist) my_touch.push_back(v);
            if (detail::claim<Par>(ctx, v)) mine.push_back(v);
          }
          return relaxed;
        });
  }

  // Lines 8-9: drain this substep's updated vertices and split them:
  // inside d_i -> next substep's active set (and settled); beyond d_i ->
  // frontier candidates.
  void partition(Dist di) {
    if (nw_ == 1) {
      updated_.swap(buckets_[0]);
      buckets_[0].clear();
    } else {
      updated_.clear();
      for (int t = 0; t < nw_; ++t) {
        auto& b = buckets_[static_cast<std::size_t>(t)];
        updated_.insert(updated_.end(), b.begin(), b.end());
        b.clear();
      }
    }
    active_.clear();
    for (const Vertex v : updated_) {
      const Dist dv = load(v);
      goal.check_bound(v, dv);
      if (dv <= di) {
        active_.push_back(v);
        if (!ctx.is_settled(v)) goal.settle(v);
      } else if (!ctx.is_settled(v) && ctx.mark(v)) {
        newly_frontier_.push_back(v);
      }
    }
  }

  // Next frontier: the unsettled survivors plus the step's new arrivals
  // (disjoint and duplicate-free by the mark discipline), with the next
  // d_i = min delta(v) + r(v) folded into the same pass.
  void rebuild() {
    next_.clear();
    pending_di_ = kInfDist;
    keep_unsettled(frontier_);
    keep_unsettled(newly_frontier_);
    frontier_.swap(next_);
  }

 private:
  void keep_unsettled(const std::vector<Vertex>& from) {
    for (const Vertex v : from) {
      if (!ctx.is_settled(v)) {
        next_.push_back(v);
        pending_di_ = std::min(pending_di_, load(v) + radius[v]);
      }
    }
  }

  const int nw_;
  std::vector<std::vector<Vertex>>& touch_;
  std::vector<std::vector<Vertex>>& buckets_;
  std::vector<Vertex>& frontier_;
  std::vector<Vertex>& next_;
  std::vector<Vertex>& active_;
  std::vector<Vertex>& updated_;
  std::vector<Vertex>& newly_frontier_;
  Dist pending_di_ = kInfDist;
};

}  // namespace

void radius_stepping_partial(const Graph& g, Vertex source,
                             const std::vector<Dist>& radius,
                             QueryContext& ctx, RunStats* stats) {
  detail::run_partial<FlatStep>(g, source, radius, ctx, stats);
}

void radius_stepping(const Graph& g, Vertex source,
                     const std::vector<Dist>& radius, QueryContext& ctx,
                     std::vector<Dist>& out, RunStats* stats) {
  detail::run_full<FlatStep>(g, source, radius, ctx, out, stats);
}

std::vector<Dist> radius_stepping(const Graph& g, Vertex source,
                                  const std::vector<Dist>& radius,
                                  RunStats* stats) {
  return detail::run_fresh<FlatStep>(g, source, radius, stats);
}

}  // namespace rs
