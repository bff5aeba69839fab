#include "baseline/delta_stepping.hpp"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "core/step_loop.hpp"
#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// Lazy cyclic bucket array: duplicates allowed, staleness checked on pop
/// against the authoritative distance array. Live keys stay within L of the
/// cursor, so ceil(L/delta)+3 cyclic slots suffice. Slot storage is
/// borrowed from the QueryContext so a warm context re-serves queries
/// without reallocating it.
class LazyBuckets {
 public:
  /// Cyclic slots needed for edge weights up to `max_edge_weight`: live
  /// keys stay within L of the cursor. Single source of truth for both
  /// the constructor and the caller sizing the borrowed storage.
  static std::size_t slot_count(Dist delta, Dist max_edge_weight) {
    return static_cast<std::size_t>(max_edge_weight / delta) + 3;
  }

  LazyBuckets(Dist delta, Dist max_edge_weight,
              std::vector<std::vector<Vertex>>& slots)
      : delta_(delta),
        num_slots_(slot_count(delta, max_edge_weight)),
        slots_(slots) {}

  void push(Vertex v, Dist key) {
    const std::size_t b = std::max<std::size_t>(
        static_cast<std::size_t>(key / delta_), cursor_);
    slots_[b % num_slots_].push_back(v);
    ++count_;
  }

  bool empty() const { return count_ == 0; }

  std::size_t cursor() const { return cursor_; }

  /// Advances to the next non-empty slot and returns its bucket index.
  std::size_t next_bucket() {
    while (slots_[cursor_ % num_slots_].empty()) ++cursor_;
    return cursor_;
  }

  /// Drains slot `b` into `out` in O(1): the buffers swap roles, so both
  /// capacities keep circulating between the slot and the caller's list.
  void take(std::size_t b, std::vector<Vertex>& out) {
    std::vector<Vertex>& src = slots_[b % num_slots_];
    out.swap(src);
    src.clear();
    count_ -= out.size();
  }

 private:
  Dist delta_;
  std::size_t num_slots_;
  std::vector<std::vector<Vertex>>& slots_;
  std::size_t cursor_ = 0;
  std::size_t count_ = 0;
};

}  // namespace

void delta_stepping(const Graph& g, Vertex source, QueryContext& ctx,
                    std::vector<Dist>& out, Dist delta,
                    DeltaSteppingStats* stats) {
  const Vertex n = g.num_vertices();
  const Dist max_w = g.max_weight();
  if (delta == 0) {
    const EdgeId dmax = std::max<EdgeId>(g.max_degree(), 1);
    delta = std::max<Dist>(1, max_w / dmax);
  }

  ctx.begin_query(n);
  std::atomic<Dist>* dist = ctx.dist();
  dist[source].store(0, std::memory_order_relaxed);

  // Arc partition: light (w <= delta) relaxed iteratively inside a bucket,
  // heavy (w > delta) relaxed once when the bucket settles.
  LazyBuckets buckets(
      delta, max_w,
      ctx.bucket_slots(LazyBuckets::slot_count(delta, max_w)));
  buckets.push(source, 0);

  DeltaSteppingStats local_stats;
  std::vector<Vertex>& settled_list = ctx.active();
  std::vector<Vertex>& frontier = ctx.frontier();
  std::vector<Vertex>& taken = ctx.updated();
  std::vector<Vertex>& reenter = ctx.scratch();

  // Collected improvements of one phase: (vertex, new distance) pairs
  // gathered per thread, applied to the bucket structure sequentially.
  const int nw = ctx.sequential() ? 1 : num_workers();
  auto& found = ctx.pair_buckets(nw);

  // Relaxes the light (or heavy) out-arcs of `front` into `found`, written
  // once over the twin primitives: plain stores on one worker, WriteMin
  // across an OpenMP team otherwise.
  auto relax_over = [&](auto par, const std::vector<Vertex>& front,
                        bool light) {
    constexpr bool kPar = decltype(par)::value;
    return detail::sum_over<kPar>(
        front.size(), nw, [&](std::size_t i, int worker) {
          auto& mine = found[static_cast<std::size_t>(worker)];
          const Vertex u = front[i];
          const Dist du = dist[u].load(std::memory_order_relaxed);
          std::size_t improved = 0;
          for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
            const Weight w = g.arc_weight(e);
            if (light ? (w > delta) : (w <= delta)) continue;
            const Vertex v = g.arc_target(e);
            const Dist nd = du + w;
            Dist before = dist[v].load(std::memory_order_relaxed);
            if (nd < before && detail::lower<kPar>(dist[v], nd, before)) {
              mine.push_back({v, nd});
              ++improved;
            }
          }
          return improved;
        });
  };
  auto relax_frontier = [&](const std::vector<Vertex>& front, bool light) {
    for (auto& f : found) f.clear();
    local_stats.relaxations +=
        nw == 1 ? relax_over(std::false_type{}, front, light)
                : relax_over(std::true_type{}, front, light);
  };

  auto flush_found = [&](std::size_t current_bucket,
                         std::vector<Vertex>* reenter_out) {
    for (const auto& f : found) {
      for (const auto& [v, nd] : f) {
        // Only the final distance matters; stale pairs are filtered by the
        // pop-time check. Pairs landing back in the current bucket feed the
        // next light phase directly.
        const Dist dv = dist[v].load(std::memory_order_relaxed);
        if (dv != nd) continue;  // superseded within the phase
        const std::size_t b = static_cast<std::size_t>(dv / delta);
        if (reenter_out != nullptr && b <= current_bucket) {
          // Fresh vertices get settled by the caller; already-settled ones
          // whose distance improved re-run their light edges (Meyer-Sanders
          // re-inserts them into the current bucket).
          reenter_out->push_back(v);
        } else {
          buckets.push(v, dv);
        }
      }
    }
  };

  while (!buckets.empty()) {
    const std::size_t b = buckets.next_bucket();
    ++local_stats.buckets_processed;
    settled_list.clear();
    // One claim epoch per bucket: "settled in this bucket" dedup flags,
    // reset in O(1) instead of unmarking the settled list.
    ctx.next_claim_epoch();

    buckets.take(b, taken);
    frontier.clear();
    for (const Vertex v : taken) {
      const Dist dv = dist[v].load(std::memory_order_relaxed);
      if (static_cast<std::size_t>(dv / delta) != b) continue;  // stale
      if (!ctx.claim_sequential(v)) continue;                   // duplicate
      settled_list.push_back(v);
      frontier.push_back(v);
    }

    // Light-edge phases: iterate until no new vertex re-enters this bucket.
    while (!frontier.empty()) {
      ++local_stats.phases;
      relax_frontier(frontier, /*light=*/true);
      reenter.clear();
      flush_found(b, &reenter);
      frontier.clear();
      for (const Vertex v : reenter) {
        if (ctx.claim_sequential(v)) {
          settled_list.push_back(v);
          frontier.push_back(v);
        }
      }
      // Vertices already settled in this bucket whose distance improved
      // again still need their light edges re-relaxed: Meyer-Sanders
      // re-inserts them. Catch them here.
      for (const Vertex v : reenter) {
        if (std::find(frontier.begin(), frontier.end(), v) == frontier.end()) {
          frontier.push_back(v);
        }
      }
    }

    // One heavy-edge phase over everything settled in this bucket.
    if (!settled_list.empty()) {
      ++local_stats.phases;
      relax_frontier(settled_list, /*light=*/false);
      flush_found(b, nullptr);
    }
  }

  if (stats != nullptr) *stats = local_stats;
  ctx.finish_query(n, out);
}

std::vector<Dist> delta_stepping(const Graph& g, Vertex source, Dist delta,
                                 DeltaSteppingStats* stats) {
  QueryContext ctx(g.num_vertices());
  std::vector<Dist> out;
  delta_stepping(g, source, ctx, out, delta, stats);
  return out;
}

}  // namespace rs
