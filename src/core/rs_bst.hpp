// Radius-Stepping, Algorithm 2: the BST formulation.
//
// This engine follows the paper's efficient implementation literally: two
// ordered sets Q (tentative distances) and R (tentative distance + vertex
// radius) stored in join-based treaps; the round distance d_i is R's
// minimum, the active set A_i is Q.split(d_i), and each substep's batch of
// successful relaxations is applied to Q and R with bulk
// difference / union operations — the O(log n)-per-update bookkeeping the
// work/depth analysis (Lemma 3.9) charges.
//
// It computes identical distances AND an identical step sequence to the
// flat engine (core/radius_stepping.hpp); tests assert both.
#pragma once

#include <vector>

#include "core/query_context.hpp"
#include "core/stats.hpp"
#include "graph/graph.hpp"

namespace rs {

/// Serving form: runs out of a reusable QueryContext (distance array,
/// stamps, key buffers, and the treap node arena all come from `ctx`).
/// After warm-up, a sequential-mode context answers with zero heap
/// allocations — treap nodes are recycled through the context's freelist
/// arena. Distances land in `out` (resized to n).
void radius_stepping_bst(const Graph& g, Vertex source,
                         const std::vector<Dist>& radius, QueryContext& ctx,
                         std::vector<Dist>& out, RunStats* stats = nullptr);

/// Convenience form: fresh context per call.
std::vector<Dist> radius_stepping_bst(const Graph& g, Vertex source,
                                      const std::vector<Dist>& radius,
                                      RunStats* stats = nullptr);

/// Serving primitive: distances stay in `ctx` (read via ctx.read_dist(),
/// then finish_query() or the O(touched) reset_touched()); honors
/// ctx.has_targets() step-boundary early termination (see
/// core/radius_stepping.hpp).
void radius_stepping_bst_partial(const Graph& g, Vertex source,
                                 const std::vector<Dist>& radius,
                                 QueryContext& ctx, RunStats* stats = nullptr);

}  // namespace rs
