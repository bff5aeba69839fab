// The step skeleton shared by the radius-stepping engines (internal).
//
// Every engine runs the same outer loop from the paper: pick d_i, run
// Bellman-Ford substeps until nothing with delta <= d_i changes, and stop
// early only at a STEP boundary, where Theorem 3.1 makes every settled
// distance final. This header writes that loop once, as a template over a
// per-engine policy (no virtual calls, no std::function: each engine's
// loop compiles to straight-line code):
//
//  * run_partial / run_full / run_fresh — the three public entry forms
//    (serving primitive, `(ctx, out)`, fresh context); the public
//    functions forward to them with the engine's policy template;
//  * StepGoal — settle, goal check, target and lower-bound bookkeeping;
//  * run_steps — goal check, step and substep counting, traced phase
//    timing, the step-boundary exit and d_{i-1}, over a policy that
//    derives from QueryState and supplies only its own parts:
//
//      void seed(Vertex source);  // Line 2; also folds the first d_i
//      bool frontier_empty();
//      Dist open_step();          // returns d_i, settles A_i's first set
//      std::size_t active_size();
//      void relax(Dist prev_di);  // one substep's relaxations
//      void partition(Dist di);   // drain + split: inside d_i / beyond
//      void rebuild();            // next frontier, with its d_i folded in
//      static constexpr std::uint64_t RunStats::*kPartitionNs;
//
// d_i is folded into the sequential frontier rebuild in both twins: no
// distance changes between a rebuild and the next step's Line 4, so the
// min taken there is the min Line 4 would take.
//
// kUnweighted keeps its own level loop (its exit is per level, because a
// claimed vertex is already final) but shares the entry forms, the goal
// object and the twin primitives below.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <omp.h>

#include "core/query_context.hpp"
#include "core/stats.hpp"
#include "parallel/write_min.hpp"

namespace rs::detail {

/// Settle and goal bookkeeping. Every call site runs in a sequential
/// section (both twins), so the target counters need no atomics.
class StepGoal {
 public:
  StepGoal(QueryContext& ctx, RunStats& stats)
      : ctx_(ctx),
        stats_(stats),
        targeted_(ctx.has_targets()),
        bounds_(targeted_ && ctx.has_target_bounds()),
        k_goal_(ctx.k_goal()) {}

  /// Stamps `v` settled, counts it, and ticks it off the target set.
  void settle(Vertex v) {
    ctx_.mark_settled(v);
    count_settled(v);
  }
  /// Same for a vertex whose settled stamp was written elsewhere (by its
  /// owner fragment inside a parallel phase).
  void count_settled(Vertex v) {
    ++stats_.settled;
    note_target(v);
  }
  /// Ticks `v` off the target set without counting it.
  void note_target(Vertex v) {
    if (targeted_) ctx_.note_target_settled(v);
  }
  /// Lower-bound proof site: a pending target whose tentative distance
  /// reached its admissible floor is final even beyond d_i.
  void check_bound(Vertex v, Dist dv) {
    if (bounds_) ctx_.note_bound_check(v, dv);
  }

  /// All targets settled (by distance order or by lower-bound proof), or
  /// — kTopK — at least k vertices settled. Exact only where every
  /// counted vertex is final: at step boundaries (Theorem 3.1).
  bool met(std::size_t settled) const {
    if (targeted_ && ctx_.targets_remaining() == 0) return true;
    return k_goal_ != 0 && settled >= k_goal_;
  }
  bool met() const { return met(stats_.settled); }

 private:
  QueryContext& ctx_;
  RunStats& stats_;
  const bool targeted_;
  const bool bounds_;
  const std::size_t k_goal_;
};

/// The state every engine policy runs over. Policies derive from it, so
/// run_steps reaches the context, goal and stats through the policy.
template <typename G>
struct QueryState {
  const G& g;
  const std::vector<Dist>& radius;
  QueryContext& ctx;
  StepGoal& goal;
  RunStats& stats;
  std::atomic<Dist>* dist;

  Dist load(Vertex v) const { return dist[v].load(std::memory_order_relaxed); }
  void store(Vertex v, Dist d) const {
    dist[v].store(d, std::memory_order_relaxed);
  }
};

/// The twin's store primitive: lowers `cell` to `nd`. On entry `before`
/// holds the caller's load, which `nd` beats; on success it holds the
/// replaced value (kInfDist exactly once per vertex: the first touch).
/// Par is the CAS WriteMin; Seq is a plain store (single writer).
template <bool Par>
bool lower(std::atomic<Dist>& cell, Dist nd, Dist& before) {
  if constexpr (Par) {
    return write_min(cell, nd, before);
  } else {
    cell.store(nd, std::memory_order_relaxed);
    return true;
  }
}

/// The twin's claim primitive: true for the first claimer of `v` in the
/// current claim epoch (atomic exchange in Par, plain stamp in Seq).
template <bool Par>
bool claim(QueryContext& ctx, Vertex v) {
  if constexpr (Par) {
    return ctx.claim(v);
  } else {
    return ctx.claim_sequential(v);
  }
}

/// Sums `body(i, worker)` over i in [0, count): an `omp for` over a team
/// of `workers` in the Par twin, a plain loop as worker 0 in the Seq twin
/// (which opens no region, so it nests inside an outer batch region).
template <bool Par, typename Body>
std::size_t sum_over(std::size_t count, int workers, Body&& body) {
  std::size_t total = 0;
  if constexpr (Par) {
#pragma omp parallel num_threads(workers) reduction(+ : total)
    {
      const int worker = omp_get_thread_num();
#pragma omp for schedule(dynamic, 64)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(count); ++i) {
        total += body(static_cast<std::size_t>(i), worker);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) total += body(i, 0);
  }
  return total;
}

/// Algorithm 1's outer loop over a step policy (see the file comment).
/// Substep counts equal Algorithm 1's repeat-until iterations: the last
/// one relaxes the last-updated vertices and observes no further update
/// inside d_i (the Line 9 exit).
template <typename Policy>
void run_steps(Policy& p, Vertex source) {
  RunStats& stats = p.stats;
  // Traced requests take two clock readings per substep (relax end is
  // partition start, so the phases tile the substep); untraced runs take
  // none.
  using Clock = std::chrono::steady_clock;
  const bool timed = p.ctx.trace_phases();
  const auto now = [timed] {
    return timed ? Clock::now() : Clock::time_point{};
  };
  const auto ns = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };

  p.seed(source);
  // Round distance of the previous step (d_{i-1}): vertices with
  // delta <= prev_di are exactly S_{i-1}, final and skipped as relaxation
  // targets. d_0 = 0 covers the source.
  Dist prev_di = 0;
  while (!p.frontier_empty()) {
    // Step boundary (also covers source-only target sets on entry): every
    // settled distance is final, so a run that met its goal is done.
    if (p.goal.met()) {
      stats.early_exit = true;
      return;
    }
    ++stats.steps;
    const Dist di = p.open_step();
    std::size_t active = p.active_size();
    stats.max_active = std::max(stats.max_active, active);
    std::size_t substeps = 0;
    while (active != 0) {
      ++substeps;
      const auto t_relax = now();
      p.relax(prev_di);
      const auto t_partition = now();
      p.partition(di);
      if (timed) {
        stats.relax_ns += ns(t_relax, t_partition);
        stats.*Policy::kPartitionNs += ns(t_partition, Clock::now());
      }
      active = p.active_size();
      stats.max_active = std::max(stats.max_active, active);
    }
    stats.substeps += substeps;
    stats.max_substeps_in_step = std::max(stats.max_substeps_in_step, substeps);
    if (p.goal.met()) {  // skip the rebuild a finished run does not need
      stats.early_exit = true;
      return;
    }
    p.rebuild();
    prev_di = di;
  }
}

/// The serving primitive every engine exposes: validates the arguments,
/// begins the query, runs Engine<true> or Engine<false> by
/// ctx.sequential(), and reports the run. Distances stay in `ctx`.
template <template <bool> class Engine, typename G>
void run_partial(const G& g, Vertex source, const std::vector<Dist>& radius,
                 QueryContext& ctx, RunStats* stats) {
  const Vertex n = g.num_vertices();
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string(Engine<false>::kName) + what);
  };
  if (radius.size() != n) reject(": radius size mismatch");
  if (source >= n) reject(": bad source");

  ctx.begin_query(n);
  RunStats local;
  StepGoal goal(ctx, local);
  const QueryState<G> state{g, radius, ctx, goal, local, ctx.dist()};
  if (ctx.sequential()) {
    Engine<false>(state).run(source);
  } else {
    Engine<true>(state).run(source);
  }
  local.touched = ctx.touched_count();
  if (stats != nullptr) *stats = local;
}

/// `(ctx, out)` form: an exhaustive run (stale target stamps on a reused
/// context must never truncate a full distance vector), distances copied
/// into `out` and the context invariant restored.
template <template <bool> class Engine, typename G>
void run_full(const G& g, Vertex source, const std::vector<Dist>& radius,
              QueryContext& ctx, std::vector<Dist>& out, RunStats* stats) {
  ctx.clear_targets();
  run_partial<Engine>(g, source, radius, ctx, stats);
  ctx.finish_query(g.num_vertices(), out);
}

/// Fresh-context form.
template <template <bool> class Engine, typename G>
std::vector<Dist> run_fresh(const G& g, Vertex source,
                            const std::vector<Dist>& radius,
                            RunStats* stats) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  run_full<Engine>(g, source, radius, ctx, out, stats);
  return out;
}

}  // namespace rs::detail
