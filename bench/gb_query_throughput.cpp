// High-throughput query serving: queries/sec over a fixed source batch of
// full-distance requests (want_full_distances), comparing three serving
// strategies on the same preprocessed engine:
//
//   seq    — per-source engine.serve() loop with fresh per-query state
//            (baseline);
//   ctx    — the same sequential loop over one warm QueryContext
//            (zero-allocation hot path, intra-query parallelism);
//   batch  — engine.serve_batch(): a team of workers, each running one
//            source at a time on its pooled context.
//
// The three strategies run for the flat engine (metric names seq_qps /
// ctx_qps / batch_qps) and for Algorithm 2 on the arena treap (bst_*), so
// the BENCH json captures the arena's warm-context effect per commit.
// Every strategy's distances are checked against the flat baseline.
//
// Targeted point-to-point serving (PR 5) is tracked alongside: p2p1_qps /
// p2p8_qps / p2p64_qps time a warm-context serve() loop over the same
// source batch with 1, 8, and 64 random targets per request — the
// early-termination, O(|targets|)-response regime a router or
// reachability service runs. Each p2p strategy's per-target distances are
// checked against the flat full-SSSP reference too.
//
// Self-timed on purpose (no Google Benchmark dependency despite the gb_
// prefix) so it runs in every environment, including the CI bench-smoke
// job, and always writes BENCH_gb_query_throughput.json for the perf
// trajectory. Exits non-zero if any strategy disagrees with the baseline
// distances, so it doubles as an end-to-end smoke test.
//
// Knobs: RS_SCALE / RS_THREADS as usual, RS_BATCH (sources per batch,
// default 64), RS_REPS (timing repetitions, default 5; the slower bst
// strategies run max(2, RS_REPS - 2) reps), RS_RHO (preprocessing rho,
// default 32).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "exp_common.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"
#include "parallel/timer.hpp"

namespace {

using namespace rs;

/// Best-of-`reps` wall time of `run`, in seconds (min filters scheduler
/// noise; each rep redoes the whole batch).
double best_seconds(int reps, const std::function<void()>& run) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    run();
    const double s = t.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

/// One full-distance request per source, all on `engine`.
std::vector<QueryRequest> full_requests(const std::vector<Vertex>& sources,
                                        QueryEngine engine) {
  std::vector<QueryRequest> requests(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    requests[i].source = sources[i];
    requests[i].want_full_distances = true;
    requests[i].engine = engine;
  }
  return requests;
}

/// One targeted request per source: `targets_per` random targets drawn
/// deterministically per request (same requests for every engine/rep).
std::vector<QueryRequest> make_p2p_requests(const Graph& g,
                                            const std::vector<Vertex>& sources,
                                            int targets_per,
                                            QueryEngine engine) {
  const SplitRng rng(4242);
  std::vector<QueryRequest> requests;
  requests.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    QueryRequest req;
    req.source = sources[i];
    req.engine = engine;
    req.targets.reserve(static_cast<std::size_t>(targets_per));
    for (int t = 0; t < targets_per; ++t) {
      req.targets.push_back(static_cast<Vertex>(rng.bounded(
          i, static_cast<std::uint64_t>(t), g.num_vertices())));
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace

int main() {
  using namespace rs::exp;
  const Scale s = scale_from_env();
  const int batch = static_cast<int>(env_int64("RS_BATCH", 64));
  const int reps = static_cast<int>(env_int64("RS_REPS", 5));
  const auto rho = static_cast<Vertex>(env_int64("RS_RHO", 32));

  const auto graphs = shortcut_suite(s);
  print_header("Query throughput — serving strategies (queries/sec)", s,
               graphs);
  std::printf("batch=%d  reps=%d  rho=%u\n\n", batch, reps, rho);
  std::printf("  %-8s  %-8s  %10s  %10s  %10s  %8s  %10s  %10s  %10s\n",
              "graph", "engine", "seq_qps", "ctx_qps", "batch_qps", "speedup",
              "p2p1_qps", "p2p8_qps", "p2p64_qps");

  BenchJson json("gb_query_throughput", s);
  bool ok = true;

  struct EngineRow {
    QueryEngine engine;
    const char* label;   // table column / json label
    const char* prefix;  // metric-name prefix ("" = flat, the PR 2 names)
  };
  const EngineRow rows[] = {
      {QueryEngine::kFlat, "flat", ""},
      {QueryEngine::kBst, "bst", "bst_"},
  };

  for (const auto& [name, g0] : graphs) {
    const Graph g = paper_weighted(g0);
    PreprocessOptions opts;
    opts.rho = rho;
    opts.k = 2;
    const SsspEngine engine(g, opts);
    const std::vector<Vertex> sources =
        sample_sources(g, batch, /*seed=*/777);

    // Reference distances: fresh flat queries, computed once per graph.
    std::vector<QueryResponse> flat_ref;
    flat_ref.reserve(sources.size());
    for (const QueryRequest& req : full_requests(sources, QueryEngine::kFlat)) {
      flat_ref.push_back(engine.serve(req));
    }

    for (const auto& row : rows) {
      // The ordered-set engine is slower; trim its repetitions.
      const int row_reps =
          row.engine == QueryEngine::kFlat ? reps : std::max(2, reps - 2);
      const std::vector<QueryRequest> requests =
          full_requests(sources, row.engine);

      // Baseline: one fresh-state serve per source.
      std::vector<QueryResponse> seq_results;
      const auto run_seq = [&] {
        seq_results.clear();
        seq_results.reserve(requests.size());
        for (const QueryRequest& req : requests) {
          seq_results.push_back(engine.serve(req));
        }
      };

      // One warm reused context, sequential batch loop.
      QueryContext ctx(g.num_vertices());
      std::vector<QueryResponse> ctx_results;
      const auto run_ctx = [&] {
        ctx_results.clear();
        ctx_results.reserve(requests.size());
        for (const QueryRequest& req : requests) {
          ctx_results.push_back(engine.serve(req, ctx));
        }
      };

      // The team of workers.
      std::vector<QueryResponse> batch_results;
      const auto run_batch = [&] {
        batch_results = engine.serve_batch(requests);
      };

      // Warm-up (also materializes every result for the equality check).
      run_seq();
      run_ctx();
      run_batch();
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (seq_results[i].dist != flat_ref[i].dist ||
            ctx_results[i].dist != flat_ref[i].dist ||
            batch_results[i].dist != flat_ref[i].dist) {
          std::fprintf(stderr, "MISMATCH on %s engine %s source %u\n",
                       name.c_str(), row.label, sources[i]);
          ok = false;
        }
      }

      const double t_seq = best_seconds(row_reps, run_seq);
      const double t_ctx = best_seconds(row_reps, run_ctx);
      const double t_batch = best_seconds(row_reps, run_batch);
      const double b = static_cast<double>(batch);
      const double seq_qps = b / t_seq;
      const double ctx_qps = b / t_ctx;
      const double batch_qps = b / t_batch;
      const double speedup = batch_qps / seq_qps;

      // Targeted point-to-point serving: one warm context + reused
      // response over per-source requests with 1 / 8 / 64 random targets
      // (early termination + O(|targets|) responses). Distances are
      // verified against the full-SSSP reference during warm-up.
      const int target_counts[] = {1, 8, 64};
      double p2p_qps[3] = {0.0, 0.0, 0.0};
      QueryContext p2p_ctx(g.num_vertices());
      QueryResponse p2p_resp;
      for (int ti = 0; ti < 3; ++ti) {
        const std::vector<QueryRequest> requests =
            make_p2p_requests(g, sources, target_counts[ti], row.engine);
        for (std::size_t i = 0; i < requests.size(); ++i) {  // warm + check
          engine.serve(requests[i], p2p_ctx, p2p_resp);
          for (const TargetResult& tr : p2p_resp.targets) {
            if (tr.dist != flat_ref[i].dist[tr.target]) {
              std::fprintf(stderr,
                           "P2P MISMATCH on %s engine %s source %u "
                           "target %u\n",
                           name.c_str(), row.label, requests[i].source,
                           tr.target);
              ok = false;
            }
          }
        }
        const double t_p2p = best_seconds(row_reps, [&] {
          for (const QueryRequest& req : requests) {
            engine.serve(req, p2p_ctx, p2p_resp);
          }
        });
        p2p_qps[ti] = b / t_p2p;
      }

      std::printf("  %-8s  %-8s  %10.1f  %10.1f  %10.1f  %7.2fx  %10.1f  "
                  "%10.1f  %10.1f\n",
                  name.c_str(), row.label, seq_qps, ctx_qps, batch_qps,
                  speedup, p2p_qps[0], p2p_qps[1], p2p_qps[2]);

      // The engine lives in the metric-name prefix, NOT in a label: the
      // flat metrics keep their PR 2 identity (name + labels), so the CI
      // comparator matches them against pre-existing baselines instead of
      // opening a blind window on the commit that adds the bst rows.
      const BenchJson::Labels labels{{"graph", name},
                                     {"batch", std::to_string(batch)},
                                     {"rho", std::to_string(rho)}};
      const std::string p(row.prefix);
      json.add(p + "seq_qps", seq_qps, "queries/sec", labels);
      json.add(p + "ctx_qps", ctx_qps, "queries/sec", labels);
      json.add(p + "batch_qps", batch_qps, "queries/sec", labels);
      json.add(p + "batch_speedup", speedup, "x", labels);
      json.add(p + "p2p1_qps", p2p_qps[0], "queries/sec", labels);
      json.add(p + "p2p8_qps", p2p_qps[1], "queries/sec", labels);
      json.add(p + "p2p64_qps", p2p_qps[2], "queries/sec", labels);
    }

    // Fragment-count sweep: the fragment-parallel engine over the
    // partitioned substrate at F = 1, 2, 4, 8, warm-context loop (the
    // ctx_qps regime), distances checked against the flat reference —
    // frag{F}_qps regression-locks the new path per fragment count.
    for (const std::size_t fc : {1, 2, 4, 8}) {
      SsspEngine frag_engine = engine;  // shares the preprocessed graph
      frag_engine.enable_fragments(fc);
      const std::vector<QueryRequest> frag_requests =
          full_requests(sources, QueryEngine::kFragment);
      QueryContext fctx(g.num_vertices());
      std::vector<QueryResponse> frag_results;
      const auto run_frag = [&] {
        frag_results.clear();
        frag_results.reserve(frag_requests.size());
        for (const QueryRequest& req : frag_requests) {
          frag_results.push_back(frag_engine.serve(req, fctx));
        }
      };
      run_frag();  // warm-up + equality check
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (frag_results[i].dist != flat_ref[i].dist) {
          std::fprintf(stderr, "MISMATCH on %s fragments=%zu source %u\n",
                       name.c_str(), fc, sources[i]);
          ok = false;
        }
      }
      const double t_frag = best_seconds(reps, run_frag);
      const double frag_qps = static_cast<double>(batch) / t_frag;
      std::printf("  %-8s  frag%-4zu  %10s  %10.1f\n", name.c_str(), fc, "-",
                  frag_qps);
      const BenchJson::Labels labels{{"graph", name},
                                     {"batch", std::to_string(batch)},
                                     {"rho", std::to_string(rho)}};
      json.add("frag" + std::to_string(fc) + "_qps", frag_qps, "queries/sec",
               labels);
    }
  }

  const std::string path = json.write();
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  if (!ok) {
    std::fprintf(stderr, "FAILED: strategy results diverged\n");
    return 1;
  }
  return 0;
}
