#include "core/rs_fragment.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/step_loop.hpp"
#include "parallel/primitives.hpp"

namespace rs {

namespace {

/// Runs `fn(f)` for every fragment — one OpenMP task per fragment in the
/// Par twin, a plain ordered loop in the Seq twin (no regions: the batch
/// scheduler nests the Seq twin inside its own parallel region).
template <bool Par, typename Fn>
void for_each_fragment(std::size_t nf, Fn&& fn) {
  if constexpr (Par) {
    const int team = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(num_workers()), nf));
    if (team > 1) {
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
      for (std::int64_t f = 0; f < static_cast<std::int64_t>(nf); ++f) {
        fn(static_cast<std::size_t>(f));
      }
      return;
    }
  }
  for (std::size_t f = 0; f < nf; ++f) fn(f);
}

/// The fragment-parallel Algorithm 1's parts (the loop is
/// detail::run_steps). Ownership discipline: every per-vertex slot
/// (distance, settled/mark stamp, claim word, touch record) is written
/// only by the vertex's owner fragment inside parallel phases, so the
/// non-atomic stamp families are safe; the only cross-fragment reads are
/// relaxed atomic loads of foreign distances in the ghost prefilter, where
/// staleness is harmless (the owner re-checks on apply). Shared
/// bookkeeping — target counters, bound proofs, stats — runs in the
/// sequential coordinator sections between phases.
template <bool Par>
class FragmentStep : public detail::QueryState<FragmentedGraph> {
 public:
  static constexpr const char* kName = "radius_stepping_fragment";
  // Phase 2 is the ghost exchange and the partition together.
  static constexpr std::uint64_t RunStats::*kPartitionNs =
      &RunStats::exchange_ns;

  explicit FragmentStep(const detail::QueryState<FragmentedGraph>& state)
      : QueryState(state),
        nf_(checked_fragments(g)),
        part_(g.partition()),
        fs_(ctx.fragment_scratch(nf_)),
        messages_(fs_.messages),
        touch_(ctx.touch_buckets(static_cast<int>(nf_))) {}

  void run(Vertex source) { detail::run_steps(*this, source); }

  // Seed (sequential, like the flat engine): the source settles at 0 and
  // relaxes its out-arcs from its owner's CSR row.
  void seed(Vertex source) {
    const std::size_t sf = part_.owner(source);
    store(source, 0);
    touch_[sf].push_back(source);
    goal.settle(source);

    ctx.next_mark_epoch();  // one frontier-dedup epoch for the whole query
    const FragmentedGraph::Fragment& sfrag = g.fragment(sf);
    const Vertex slu = part_.local_id(source);
    for (EdgeId e = sfrag.first_arc(slu); e < sfrag.last_arc(slu); ++e) {
      const Vertex v = sfrag.to_global(sfrag.heads[e]);
      if (v == source) continue;
      const auto w = static_cast<Dist>(sfrag.weights[e]);
      const Dist dv = load(v);
      if (w < dv) {
        store(v, w);
        ++stats.relaxations;
        if (dv == kInfDist) touch_[part_.owner(v)].push_back(v);
        goal.check_bound(v, w);
      }
      if (!ctx.is_settled(v) && ctx.mark(v)) {
        fs_.newly_frontier[part_.owner(v)].push_back(part_.local_id(v));
      }
    }
    rebuild();
  }

  bool frontier_empty() const {
    for (std::size_t f = 0; f < nf_; ++f) {
      if (!fs_.frontier[f].empty()) return false;
    }
    return true;
  }

  // Line 4: d_i folds the per-fragment minima the last rebuild left. The
  // first substep's active set is every frontier vertex inside d_i,
  // settled the moment it appears (owner-fragment stamp writes).
  Dist open_step() {
    Dist di = kInfDist;
    for (std::size_t f = 0; f < nf_; ++f) {
      di = std::min(di, fs_.frontier_min[f]);
    }
    for_each_fragment<Par>(nf_, [&](std::size_t f) {
      const auto& inner = g.fragment(f).inner_global;
      auto& active = fs_.active[f];
      active.clear();
      for (const Vertex lu : fs_.frontier[f]) {
        const Vertex v = inner[lu];
        if (load(v) <= di) {
          active.push_back(lu);
          ctx.mark_settled(v);
          fs_.newly_settled[f].push_back(v);
        }
      }
      fs_.newly_frontier[f].clear();
    });
    drain_settled();
    return di;
  }

  std::size_t active_size() const {
    std::size_t total = 0;
    for (std::size_t f = 0; f < nf_; ++f) total += fs_.active[f].size();
    return total;
  }

  // Phase 1 — local relax: each fragment walks its active rows. Inner
  // heads relax in place; ghost heads stage a message to the owner (the
  // foreign-distance load is a prefilter only). One claim epoch per
  // substep: a vertex updated by local relaxation AND by an incoming
  // message still lands in `updated` once.
  void relax(Dist prev_di) {
    ctx.next_claim_epoch();
    for_each_fragment<Par>(nf_, [&](std::size_t f) {
      const FragmentedGraph::Fragment& frag = g.fragment(f);
      const Vertex ni = frag.num_inner();
      auto& updated = fs_.updated[f];
      auto& my_touch = touch_[f];
      updated.clear();
      std::size_t relaxed = 0;
      for (const Vertex lu : fs_.active[f]) {
        const Dist du = load(frag.inner_global[lu]);
        for (EdgeId e = frag.first_arc(lu); e < frag.last_arc(lu); ++e) {
          const Vertex h = frag.heads[e];
          const auto w = static_cast<Dist>(frag.weights[e]);
          if (h < ni) {
            const Vertex v = frag.inner_global[h];
            const Dist dv = load(v);
            if (dv <= prev_di) continue;  // v in S_{i-1}: final
            const Dist nd = du + w;
            if (nd < dv) {
              if (dv == kInfDist) my_touch.push_back(v);
              store(v, nd);
              ++relaxed;
              if (ctx.claim_sequential(v)) updated.push_back(h);
            }
          } else {
            const Vertex gi = h - ni;
            const Vertex v = frag.ghost_global[gi];
            const Dist dv = load(v);  // possibly stale: prefilter only
            if (dv <= prev_di) continue;
            const Dist nd = du + w;
            if (nd < dv) {
              messages_.outbox(f, frag.ghost_owner[gi]).push_back({v, nd});
            }
          }
        }
      }
      fs_.relaxed[f] = relaxed;
    });
  }

  // Phase 2 — ghost exchange + partition: staged out-lanes become
  // in-lanes; each OWNER drains its incoming lanes and applies the
  // relaxations to its own vertices, then partitions everything it
  // updated this substep: inside d_i -> next substep's active set (and
  // settled); beyond d_i -> frontier candidate. A message to a vertex
  // final since an earlier step can never win (nd >= its final distance),
  // so no prev_di check is needed on apply.
  void partition(Dist di) {
    messages_.swap_epoch();
    for_each_fragment<Par>(nf_, [&](std::size_t f) {
      const FragmentedGraph::Fragment& frag = g.fragment(f);
      auto& updated = fs_.updated[f];
      auto& my_touch = touch_[f];
      std::size_t relaxed = 0;
      for (std::size_t s = 0; s < nf_; ++s) {
        auto& in = messages_.inbox(s, f);
        for (const DistMessage& msg : in) {
          const Dist dv = load(msg.vertex);
          if (msg.dist < dv) {
            if (dv == kInfDist) my_touch.push_back(msg.vertex);
            store(msg.vertex, msg.dist);
            ++relaxed;
            if (ctx.claim_sequential(msg.vertex)) {
              updated.push_back(part_.local_id(msg.vertex));
            }
          }
        }
        in.clear();
      }
      fs_.relaxed[f] += relaxed;

      auto& next_active = fs_.next_active[f];
      next_active.clear();
      for (const Vertex lv : updated) {
        const Vertex v = frag.inner_global[lv];
        const Dist dv = load(v);
        if (dv <= di) {
          next_active.push_back(lv);
          if (!ctx.is_settled(v)) {
            ctx.mark_settled(v);
            fs_.newly_settled[f].push_back(v);
          }
        } else if (!ctx.is_settled(v) && ctx.mark(v)) {
          fs_.newly_frontier[f].push_back(lv);
        }
      }
    });

    // Coordinator: aggregate stats, settle/bound bookkeeping (every vertex
    // updated this substep is a bound-proof site), promote the next active
    // sets.
    for (std::size_t f = 0; f < nf_; ++f) {
      stats.relaxations += fs_.relaxed[f];
      fs_.relaxed[f] = 0;
      const auto& inner = g.fragment(f).inner_global;
      for (const Vertex lv : fs_.updated[f]) {
        const Vertex v = inner[lv];
        goal.check_bound(v, load(v));
      }
      fs_.active[f].swap(fs_.next_active[f]);
    }
    drain_settled();
  }

  // Frontier rebuild per fragment: drop settled members, append the
  // step's new arrivals (duplicate-free and disjoint by the mark
  // discipline), and fold the fragment's next d_i candidate in the same
  // pass.
  void rebuild() {
    for_each_fragment<Par>(nf_, [&](std::size_t f) {
      const auto& inner = g.fragment(f).inner_global;
      auto& rebuilt = fs_.rebuilt[f];
      rebuilt.clear();
      Dist m = kInfDist;
      const auto keep_unsettled = [&](const std::vector<Vertex>& from) {
        for (const Vertex lv : from) {
          const Vertex v = inner[lv];
          if (!ctx.is_settled(v)) {
            rebuilt.push_back(lv);
            m = std::min(m, load(v) + radius[v]);
          }
        }
      };
      keep_unsettled(fs_.frontier[f]);
      keep_unsettled(fs_.newly_frontier[f]);
      fs_.frontier[f].swap(rebuilt);
      fs_.frontier_min[f] = m;
    });
  }

 private:
  static std::size_t checked_fragments(const FragmentedGraph& fg) {
    if (fg.num_fragments() == 0) {
      throw std::invalid_argument("radius_stepping_fragment: empty substrate");
    }
    return fg.num_fragments();
  }

  // Coordinator-side settle bookkeeping: fragments hand the vertices they
  // settled over in newly_settled (the target counter is not
  // thread-safe).
  void drain_settled() {
    for (std::size_t f = 0; f < nf_; ++f) {
      for (const Vertex v : fs_.newly_settled[f]) goal.count_settled(v);
      fs_.newly_settled[f].clear();
    }
  }

  const std::size_t nf_;
  const Partition& part_;
  QueryContext::FragmentScratch& fs_;
  MessageBuffer<DistMessage>& messages_;
  std::vector<std::vector<Vertex>>& touch_;
};

}  // namespace

void radius_stepping_fragment_partial(const FragmentedGraph& fg,
                                      Vertex source,
                                      const std::vector<Dist>& radius,
                                      QueryContext& ctx, RunStats* stats) {
  detail::run_partial<FragmentStep>(fg, source, radius, ctx, stats);
}

void radius_stepping_fragment(const FragmentedGraph& fg, Vertex source,
                              const std::vector<Dist>& radius,
                              QueryContext& ctx, std::vector<Dist>& out,
                              RunStats* stats) {
  detail::run_full<FragmentStep>(fg, source, radius, ctx, out, stats);
}

std::vector<Dist> radius_stepping_fragment(const FragmentedGraph& fg,
                                           Vertex source,
                                           const std::vector<Dist>& radius,
                                           RunStats* stats) {
  return detail::run_fresh<FragmentStep>(fg, source, radius, stats);
}

}  // namespace rs
