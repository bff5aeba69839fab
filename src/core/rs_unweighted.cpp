#include "core/rs_unweighted.hpp"

#include <algorithm>
#include <atomic>

#include "core/step_loop.hpp"
#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// BFS-regime Radius-Stepping over a QueryContext. `Par` selects parallel
/// level expansion (CAS claims) or the strictly sequential twin used by
/// the batch scheduler (no atomics, no OpenMP regions). One claim epoch
/// spans the whole query: a vertex is claimed when first reached, which is
/// final for unit weights.
///
/// Targeted early termination: with unit weights a claimed vertex's level
/// is already final, so the run may stop right after the level expansion
/// that claims the last stamped target — finer-grained than the weighted
/// engines' step-boundary exit (detail::run_steps), and still exact. The
/// bookkeeping lives in the sequential level-stamping pass, so no atomics
/// are needed.
template <bool Par>
class UnweightedLevels : public detail::QueryState<Graph> {
 public:
  static constexpr const char* kName = "radius_stepping_unweighted";

  explicit UnweightedLevels(const detail::QueryState<Graph>& state)
      : QueryState(state),
        // First-touch records: every distance store happens in the
        // sequential level-stamping pass over freshly-claimed vertices
        // (claims are exactly-once per query), so bucket 0 suffices even
        // in the Par twin.
        touch_(ctx.touch_buckets(1)[0]),
        nw_(Par ? num_workers() : 1),
        buckets_(ctx.buckets(nw_)) {}

  void run(Vertex source) {
    ctx.next_claim_epoch();
    detail::claim<Par>(ctx, source);
    store(source, 0);
    touch_.push_back(source);
    goal.note_target(source);
    stats.settled = 1;

    std::vector<Vertex>& frontier = ctx.frontier();
    std::vector<Vertex>& next = ctx.next();
    // Claimed count = settled-so-far + the current uncounted frontier.
    // Claims only ever complete whole BFS levels, so every claimed vertex
    // is final AND every unclaimed vertex is strictly farther than every
    // claimed one; the exits (including the mid-step one) stay exact.
    // Lower bounds are ignored here: claimed == final already, so a bound
    // can never prove a target earlier than its claim does.
    const auto goal_met = [&] {
      return goal.met(stats.settled + frontier.size());
    };

    // Seed: one expansion from the source (reuses the active list as a
    // single-element frontier).
    std::vector<Vertex>& seed = ctx.active();
    seed.clear();
    seed.push_back(source);
    expand(seed, frontier, 1);
    Dist level = 1;  // hop distance of the current frontier

    while (!frontier.empty()) {
      if (goal_met()) {
        stats.early_exit = true;
        break;
      }
      ++stats.steps;
      // d_i = min over the frontier of delta(v) + r(v); all deltas ==
      // level, and the min radius was folded by the expansion that built
      // the frontier.
      const Dist di = level + frontier_min_r_;

      // Settle levels level .. d_i, one parallel substep per level.
      std::size_t substeps_this_step = 0;
      while (!frontier.empty() && level <= di) {
        ++substeps_this_step;
        stats.max_active = std::max(stats.max_active, frontier.size());
        stats.settled += frontier.size();
        expand(frontier, next, level + 1);
        frontier.swap(next);
        ++level;
        if (goal_met()) break;  // claimed == final: exit mid-step too
      }
      stats.substeps += substeps_this_step;
      stats.max_substeps_in_step =
          std::max(stats.max_substeps_in_step, substeps_this_step);
    }
  }

 private:
  // Expands `from` (all at hop `level - 1`) by one BFS level into `into`,
  // stamping the new level and folding the min radius of `into`.
  void expand(const std::vector<Vertex>& from, std::vector<Vertex>& into,
              Dist level) {
    into.clear();
    detail::sum_over<Par>(from.size(), nw_, [&](std::size_t i, int w) {
      auto& mine = Par ? buckets_[static_cast<std::size_t>(w)] : into;
      for (const Vertex v : g.neighbors(from[i])) {
        if (detail::claim<Par>(ctx, v)) mine.push_back(v);
      }
      return std::size_t{0};
    });
    if constexpr (Par) {
      for (int t = 0; t < nw_; ++t) {
        auto& b = buckets_[static_cast<std::size_t>(t)];
        into.insert(into.end(), b.begin(), b.end());
        b.clear();
      }
    }
    frontier_min_r_ = kInfDist;
    for (const Vertex v : into) {
      store(v, level);
      touch_.push_back(v);
      goal.note_target(v);
      frontier_min_r_ = std::min(frontier_min_r_, radius[v]);
    }
    stats.relaxations += into.size();
  }

  std::vector<Vertex>& touch_;
  const int nw_;
  std::vector<std::vector<Vertex>>& buckets_;
  Dist frontier_min_r_ = kInfDist;
};

}  // namespace

void radius_stepping_unweighted_partial(const Graph& g, Vertex source,
                                        const std::vector<Dist>& radius,
                                        QueryContext& ctx, RunStats* stats) {
  detail::run_partial<UnweightedLevels>(g, source, radius, ctx, stats);
}

void radius_stepping_unweighted(const Graph& g, Vertex source,
                                const std::vector<Dist>& radius,
                                QueryContext& ctx, std::vector<Dist>& out,
                                RunStats* stats) {
  detail::run_full<UnweightedLevels>(g, source, radius, ctx, out, stats);
}

std::vector<Dist> radius_stepping_unweighted(const Graph& g, Vertex source,
                                             const std::vector<Dist>& radius,
                                             RunStats* stats) {
  return detail::run_fresh<UnweightedLevels>(g, source, radius, stats);
}

}  // namespace rs
