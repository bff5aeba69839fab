// Landmark distance tables: run SSSP from a set of landmark vertices and
// build the distance table used by A*-style landmark heuristics
// (d(landmark, v) for all v). Radius-Stepping amortizes one preprocessing
// pass over all landmark runs — the multi-source regime where the paper
// recommends raising rho (Section 5.4).
//
// Landmark tables are the one serving workload that genuinely needs the
// full O(n) distance vector per source, so the requests set
// want_full_distances, and serve_batch() runs them through a team of
// workers (one source per worker at a time, each on its pooled context).
//
//   ./landmark_distances [side=128] [landmarks=8]
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/rng.hpp"
#include "parallel/timer.hpp"

int main(int argc, char** argv) {
  using namespace rs;
  const Vertex side = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 128;
  const int landmarks = argc > 2 ? std::atoi(argv[2]) : 8;

  Graph g = assign_uniform_weights(gen::grid2d(side, side), /*seed=*/19);
  std::printf("grid: %u vertices, %llu edges\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_undirected_edges()));

  PreprocessOptions opts;
  opts.rho = 128;  // multi-source: spend more on preprocessing
  opts.k = 4;
  opts.heuristic = ShortcutHeuristic::kDP;
  Timer prep;
  const SsspEngine engine(g, opts);
  std::printf("preprocess: %.2fs, +%.2fx edges (amortized over %d runs)\n",
              prep.seconds(), engine.preprocessing().added_factor, landmarks);

  // One full-distances request per landmark, served as a batch.
  const SplitRng rng(77);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < landmarks; ++i) {
    QueryRequest req;
    req.source = static_cast<Vertex>(
        rng.bounded(0, static_cast<std::uint64_t>(i), g.num_vertices()));
    req.want_full_distances = true;
    requests.push_back(std::move(req));
  }
  Timer queries;
  std::vector<QueryResponse> responses = engine.serve_batch(requests);
  std::size_t total_steps = 0;
  std::vector<std::vector<Dist>> table;
  table.reserve(responses.size());
  for (QueryResponse& resp : responses) {
    total_steps += resp.stats.steps;
    table.push_back(std::move(resp.dist));
  }
  std::printf("%d landmark tables in %.2fs (avg %zu steps per source)\n",
              landmarks, queries.seconds(),
              total_steps / static_cast<std::size_t>(landmarks));

  // Triangle-inequality sanity over the table: lower bounds never exceed
  // true distances, so max over landmarks |d(l,u) - d(l,v)| <= d(u,v).
  const Vertex u = 0;
  const Vertex v = g.num_vertices() - 1;
  Dist lb = 0;
  for (const auto& row : table) {
    const Dist a = row[u];
    const Dist b = row[v];
    const Dist gap = a > b ? a - b : b - a;
    if (gap > lb) lb = gap;
  }
  std::printf("landmark lower bound d(corner, corner) >= %llu\n",
              static_cast<unsigned long long>(lb));

  // And the cheap upper bound for the same pair is a targeted request.
  QueryRequest p2p;
  p2p.source = u;
  p2p.targets = {v};
  const QueryResponse resp = engine.serve(p2p);
  std::printf("exact d(corner, corner) = %llu (targeted serve, %zu steps%s)\n",
              static_cast<unsigned long long>(resp.targets[0].dist),
              resp.stats.steps, resp.stats.early_exit ? ", early exit" : "");
  if (resp.targets[0].dist < lb) {
    std::printf("BOUND VIOLATION\n");
    return 1;
  }
  return 0;
}
