// The traced run: the run's own inputs, replayed against each layer's
// public functions from the benchmark's side, one span per call.
//
// Layers (module -> call timed):
//   shortcut   rs::preprocess, SsspEngine(original, pre)
//   dynamic    DynamicSsspService::stage / flush
//   engine     SsspEngine::serve(req, ctx, resp), warm context, one caller,
//              at the serving workers and at one worker (".t1")
//   batch      SsspEngine::serve_batch at widths nproc and 64
//   server     SsspServer::submit -> future, with trace_sample = 1 so the
//              server's own stations come back in each response
//   cache      SsspServer::cache_stats after the server phases
//   obs        SsspServer::export_metrics; traced vs untraced latency
//   oracle     LandmarkOracle::annotate + serve (the known path defect)
//   wire       example_sssp_serve over loopback TCP (wire.cpp)
//   baseline   rs::dijkstra
#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <stdexcept>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "obs/trace.hpp"
#include "parallel/primitives.hpp"
#include "run.hpp"
#include "serve/landmark_oracle.hpp"

namespace pb {

namespace {

// Requests replayed per layer. The engine replay walks the light phase's
// first kEngineReplay requests in mix order, so per-request means are
// means over the workload's own mix.
constexpr std::size_t kEngineReplay = 160;
constexpr std::size_t kEngineCompareFull = 6;
constexpr std::size_t kBatchRequests = 128;
constexpr std::size_t kOracleRoutes = 200;
constexpr std::size_t kOracleReproRoutes = 1000;
constexpr std::size_t kOracleLandmarks = 8;
constexpr std::size_t kDijkstraRuns = 8;
constexpr int kSetupReps = 3;
constexpr int kUpdateBatches = 5;
constexpr int kExportReps = 20;

std::vector<std::uint64_t> ids_from(std::uint64_t phase, std::size_t count) {
  std::vector<std::uint64_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = phase_base(phase) + i;
  return ids;
}

std::vector<std::uint64_t> ids_of_kind(const RequestStream& stream, Kind kind,
                                       std::uint64_t phase,
                                       std::size_t count) {
  std::vector<std::uint64_t> ids;
  std::uint64_t id = phase_base(phase);
  while (ids.size() < count) {
    id = stream.next_of_kind(kind, id);
    ids.push_back(id++);
  }
  return ids;
}

double p50(const Tracer& t, const std::string& name) {
  return median(t.durations(name));
}

/// Shortcut layer: cold preprocessing and engine construction.
std::shared_ptr<const rs::SsspEngine> shortcut_layer(const RunContext& ctx,
                                                     Metrics& m,
                                                     Tracer& tracer) {
  const long root = tracer.begin("layer.shortcut");
  std::shared_ptr<const rs::SsspEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    long s = tracer.begin("shortcut.preprocess", root);
    rs::PreprocessResult pre = rs::preprocess(ctx.graph, preprocess_options());
    tracer.end(s);
    Graph original = ctx.graph;
    s = tracer.begin("shortcut.engine_build", root);
    engine = std::make_shared<const rs::SsspEngine>(std::move(original),
                                                    std::move(pre));
    tracer.end(s);
  }
  tracer.end(root);
  m.set("shortcut.preprocess_s", p50(tracer, "shortcut.preprocess") / 1e6,
        "s");
  m.set("shortcut.engine_build_s",
        p50(tracer, "shortcut.engine_build") / 1e6, "s");
  m.set("shortcut.added_factor", engine->preprocessing().added_factor,
        "ratio");
  return engine;
}

struct Counts {
  double steps = 0, substeps = 0, max_substeps = 0, relaxations = 0,
         touched = 0, early_exits = 0, requests = 0;
};

/// Engine layer: warm-context serve() per request kind, at the serving
/// stack's workers and at one worker. Counts come from the one-worker
/// pass, which is deterministic, so they repeat exactly at one seed.
bool engine_layer(const RunContext& ctx, const rs::SsspEngine& engine,
                  Metrics& m, Checker& checker, Tracer& tracer) {
  const RequestStream& stream = *ctx.stream;
  const std::size_t bound = preprocess_options().k + 2;  // Theorem 3.2
  const long root = tracer.begin("layer.engine");
  rs::QueryContext qctx;
  rs::QueryResponse resp;
  for (std::uint64_t id = 0; id < 8; ++id) {  // warm the context
    engine.serve(stream.request(phase_base(kPhaseWarm) + id), qctx, resp);
  }
  Counts counts;
  std::size_t violations = 0;
  for (const int workers : {ctx.workers, 1}) {
    rs::set_num_workers(workers);
    qctx.set_sequential(workers == 1);
    const std::string suffix = workers == 1 ? ".t1" : "";
    for (const std::uint64_t id : ids_from(kPhaseLight, kEngineReplay)) {
      const rs::QueryRequest req = stream.request(id);
      const Kind kind = stream.kind(id);
      const long s = tracer.begin(
          std::string("engine.") + kind_name(kind) + suffix, root, id);
      engine.serve(req, qctx, resp);
      tracer.end(s);
      checker.add(capture(id, kind, req, resp));
      const rs::RunStats& st = resp.stats;
      if (st.max_substeps_in_step > bound) ++violations;
      if (workers != 1) continue;
      counts.steps += static_cast<double>(st.steps);
      counts.substeps += static_cast<double>(st.substeps);
      counts.max_substeps += static_cast<double>(st.max_substeps_in_step);
      counts.relaxations += static_cast<double>(st.relaxations);
      counts.touched += static_cast<double>(st.touched);
      counts.early_exits += st.early_exit ? 1.0 : 0.0;
      counts.requests += 1.0;
    }
  }
  rs::set_num_workers(ctx.workers);

  // The same full requests on each Algorithm-1/2 engine.
  rs::SsspEngine fragmented = engine;
  fragmented.enable_fragments();
  qctx.set_sequential(false);
  const std::pair<const char*, rs::QueryEngine> engines[] = {
      {"flat", rs::QueryEngine::kFlat},
      {"fragment", rs::QueryEngine::kFragment},
      {"bst", rs::QueryEngine::kBst}};
  for (const auto& [name, which] : engines) {
    const rs::SsspEngine& e =
        which == rs::QueryEngine::kFragment ? fragmented : engine;
    for (const std::uint64_t id :
         ids_of_kind(stream, Kind::kFull, kPhaseLight, kEngineCompareFull)) {
      rs::QueryRequest req = stream.request(id);
      req.engine = which;
      const long s =
          tracer.begin(std::string("engine.full.") + name, root, id);
      e.serve(req, qctx, resp);
      tracer.end(s);
      checker.add(capture(id, Kind::kFull, req, resp));
      if (resp.stats.max_substeps_in_step > bound) ++violations;
    }
  }
  tracer.end(root);

  for (int k = 0; k < kNumKinds; ++k) {
    const std::string name = kind_name(static_cast<Kind>(k));
    m.set("engine." + name + "_us", p50(tracer, "engine." + name), "us");
    m.set("engine." + name + "_us.t1", p50(tracer, "engine." + name + ".t1"),
          "us");
  }
  for (const auto& entry : engines) {
    const std::string name = entry.first;
    m.set("engine.full_us." + name, p50(tracer, "engine.full." + name), "us");
  }
  const double n = std::max(1.0, counts.requests);
  m.set("engine.steps", counts.steps / n, "count");
  m.set("engine.substeps", counts.substeps / n, "count");
  m.set("engine.max_substeps_in_step", counts.max_substeps / n, "count");
  m.set("engine.relaxations", counts.relaxations / n, "count");
  m.set("engine.touched", counts.touched / n, "count");
  m.set("engine.work_ratio",
        counts.touched > 0 ? counts.relaxations / counts.touched : 0.0,
        "ratio");
  m.set("engine.early_exit_frac", counts.early_exits / n, "ratio");
  m.set("engine.theorem32_violations", static_cast<double>(violations),
        "count");
  m.set("parallel.speedup.route",
        p50(tracer, "engine.route.t1") / p50(tracer, "engine.route"), "x");
  m.set("parallel.speedup.full",
        p50(tracer, "engine.full.t1") / p50(tracer, "engine.full"), "x");
  if (violations != 0) {
    std::fprintf(stderr,
                 "perfbench: %zu requests exceeded k+2 = %zu substeps in a "
                 "step (Theorem 3.2)\n",
                 violations, bound);
  }
  return violations == 0;
}

/// Batch layer: serve_batch throughput at widths nproc and 64.
void batch_layer(const RunContext& ctx, const rs::SsspEngine& engine,
                 Metrics& m, Checker& checker, Tracer& tracer) {
  const RequestStream& stream = *ctx.stream;
  const std::vector<std::uint64_t> ids =
      ids_from(kPhaseHeavy, kBatchRequests);
  const long root = tracer.begin("layer.batch");
  for (const std::size_t width :
       {static_cast<std::size_t>(ctx.nproc), std::size_t{64}}) {
    const std::string name = width == 64 ? "batch.w64" : "batch.wN";
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms the pools
      for (std::size_t lo = 0; lo < ids.size(); lo += width) {
        const std::size_t hi = std::min(ids.size(), lo + width);
        std::vector<rs::QueryRequest> batch;
        for (std::size_t i = lo; i < hi; ++i) {
          batch.push_back(stream.request(ids[i]));
        }
        const long s = pass == 0 ? -1 : tracer.begin(name, root, ids[lo]);
        const std::vector<rs::QueryResponse> out = engine.serve_batch(batch);
        if (s >= 0) tracer.end(s);
        if (pass == 0) continue;
        for (std::size_t i = lo; i < hi; ++i) {
          checker.add(capture(ids[i], stream.kind(ids[i]), batch[i - lo],
                              out[i - lo]));
        }
      }
    }
    double total_us = 0;
    for (const double us : tracer.durations(name)) total_us += us;
    m.set("batch.qps." + name.substr(6),
          static_cast<double>(ids.size()) / (total_us / 1e6), "req/s");
  }
  tracer.end(root);
}

/// Server layer: open-loop phases into submit(), traced and untraced.
void server_layer(const RunContext& ctx, Metrics& m, Checker& checker,
                  Tracer& tracer) {
  const Workload& w = *ctx.workload;
  const long root = tracer.begin("layer.server");
  const auto phase = [&](Stack& stack, std::uint64_t which, double rate,
                         double seconds, bool traced) {
    PhaseSpec spec;
    spec.rate = rate;
    spec.seconds = seconds;
    spec.id_base = phase_base(which);
    spec.check_share = w.check_share;
    std::mutex mu;  // the hook runs on the completion and dispatcher threads
    const ResponseHook hook = [&](std::uint64_t id,
                                  const rs::QueryResponse& resp) {
      if (!resp.trace.enabled) return;
      const Clock::time_point origin{std::chrono::nanoseconds(
          resp.trace.origin_ns)};
      const auto at = [&](std::uint64_t ns) {
        return origin + std::chrono::nanoseconds(ns);
      };
      const std::lock_guard<std::mutex> lock(mu);
      const long req = tracer.add("server.request", origin,
                                  at(resp.trace.station_total_ns()), root, id);
      for (std::size_t i = 0; i < resp.trace.size; ++i) {
        const rs::obs::TraceSpan& s = resp.trace.spans[i];
        if (s.depth != 0) continue;
        tracer.add(std::string("server.") + rs::obs::to_string(s.id),
                   at(s.start_ns), at(s.start_ns + s.duration_ns), req, id);
      }
    };
    PhaseResult r = run_open_loop(stack.server(), *ctx.stream, spec, &checker,
                                  traced ? hook : ResponseHook{});
    return r;
  };

  // The churn workload keeps its writer running through every phase of a
  // stack; each stack replays the same update batches from the same graph.
  const auto churn = [&](Stack& stack) {
    std::unique_ptr<ChurnWriter> writer;
    if (stack.dynamic != nullptr) {
      writer = std::make_unique<ChurnWriter>(
          *stack.dynamic, ctx.graph, ctx.seed, kChurnPeriod, checker);
    }
    return writer;
  };

  // Untraced reference for the tracing overhead.
  Stack plain;
  (void)build_stack(ctx, server_options(w), plain);
  std::unique_ptr<ChurnWriter> writer = churn(plain);
  const PhaseResult untraced =
      phase(plain, kPhaseLight, w.light_qps, 0.1 * ctx.seconds, false);
  writer.reset();
  plain = Stack{};

  rs::serve::ServerOptions opts = server_options(w);
  opts.trace_sample = 1;
  Stack stack;
  (void)build_stack(ctx, opts, stack);
  writer = churn(stack);
  const PhaseResult light =
      phase(stack, kPhaseLight, w.light_qps, 0.1 * ctx.seconds, true);
  const PhaseResult heavy =
      phase(stack, kPhaseHeavy, w.heavy_qps, 0.08 * ctx.seconds, true);
  writer.reset();
  const rs::serve::ResultCacheStats cache = stack.server().cache_stats();
  for (int rep = 0; rep < kExportReps; ++rep) {
    const long s = tracer.begin("obs.export", root);
    (void)stack.server().export_metrics();
    tracer.end(s);
  }
  stack = Stack{};
  tracer.end(root);

  for (const char* station :
       {"queue_wait", "batch_form", "engine", "respond"}) {
    m.set(std::string("server.") + station + "_us",
          p50(tracer, std::string("server.") + station), "us");
  }
  m.set("server.mean_batch.light", light.mean_batch, "count");
  m.set("server.mean_batch.heavy", heavy.mean_batch, "count");
  m.set("cache.hit_rate", cache.hit_rate(), "ratio");
  m.set("cache.single_flight_waits",
        static_cast<double>(cache.single_flight_waits), "count");
  const double base = median(untraced.latency_ms);
  m.set("obs.trace_overhead_frac",
        base > 0 ? (median(light.latency_ms) - base) / base : 0.0, "ratio");
  m.set("obs.export_us", p50(tracer, "obs.export"), "us");
}

/// The known defect: a targeted want_paths request with ALT lower bounds
/// can throw "no exact predecessor". Requests are served one at a time on
/// one caller thread and each failure is caught and counted. A serve()
/// that threw leaves its QueryContext unusable (later requests on it come
/// back wrong), so the probe starts a fresh context after each failure.
///
/// The bound's effect is measured on the workload's graph; the failures
/// are counted there and on the 40x40 road lattice where they are most
/// frequent, so the count stays on record at every seed.
TracedOutcome oracle_layer(const RunContext& ctx, const rs::SsspEngine& engine,
                           Metrics& m, Checker& checker, Tracer& tracer) {
  const long root = tracer.begin("layer.oracle");
  rs::serve::LandmarkOptions lopts;
  lopts.count = kOracleLandmarks;
  std::size_t errors = 0;
  const auto probe = [&](const rs::SsspEngine& e,
                         const rs::serve::LandmarkOracle& oracle,
                         const RequestStream& stream, std::size_t count,
                         Checker& check) {
    auto qctx = std::make_unique<rs::QueryContext>();
    rs::QueryResponse resp;
    std::size_t lb_exits = 0;
    for (const std::uint64_t id :
         ids_of_kind(stream, Kind::kRoute, kPhaseHeavy, count)) {
      rs::QueryRequest req = stream.request(id);
      oracle.annotate(req);
      const long s = tracer.begin("oracle.serve", root, id);
      try {
        e.serve(req, *qctx, resp);
        if (resp.lower_bound_exits > 0) ++lb_exits;
        check.add(capture(id, Kind::kRoute, req, resp));
      } catch (const std::logic_error&) {
        ++errors;
        qctx = std::make_unique<rs::QueryContext>();
      }
      tracer.end(s);
    }
    return static_cast<double>(lb_exits) / static_cast<double>(count);
  };

  long s = tracer.begin("oracle.build", root);
  const rs::serve::LandmarkOracle oracle(engine, lopts);
  tracer.end(s);
  m.set("oracle.build_s", p50(tracer, "oracle.build") / 1e6, "s");
  m.set("oracle.lb_exit_frac",
        probe(engine, oracle, *ctx.stream, kOracleRoutes, checker), "ratio");

  const Workload& road = *find_workload("road-uniform");
  const Graph repro_graph = make_graph(road, Size::kTiny);
  const rs::SsspEngine repro(repro_graph, preprocess_options());
  const rs::serve::LandmarkOracle repro_oracle(repro, lopts);
  const RequestStream repro_stream(road, ctx.seed, repro_graph.num_vertices());
  Checker repro_checker;
  repro_checker.add_graph(1, std::make_shared<const Graph>(repro_graph));
  (void)probe(repro, repro_oracle, repro_stream, kOracleReproRoutes,
              repro_checker);
  tracer.end(root);
  m.set("oracle.path_errors", static_cast<double>(errors), "count");

  const Checker::Result checked = repro_checker.run(ctx.nproc);
  for (const std::string& e : checked.examples) {
    std::fprintf(stderr, "perfbench: MISMATCH (40x40 oracle probe) %s\n",
                 e.c_str());
  }
  TracedOutcome out;
  out.attempted = checked.checked;
  out.failed = checked.mismatches;
  return out;
}

void baseline_layer(const RunContext& ctx, Metrics& m, Tracer& tracer) {
  const long root = tracer.begin("layer.baseline");
  rs::QueryContext qctx;
  std::vector<Dist> out;
  for (const std::uint64_t id :
       ids_of_kind(*ctx.stream, Kind::kFull, kPhaseLight, kDijkstraRuns)) {
    const Vertex source = ctx.stream->request(id).source;
    const long s = tracer.begin("baseline.dijkstra", root, id);
    rs::dijkstra(ctx.graph, source, qctx, out);
    tracer.end(s);
  }
  tracer.end(root);
  m.set("baseline.dijkstra_full_us", p50(tracer, "baseline.dijkstra"), "us");
}

}  // namespace

TracedOutcome run_traced(const RunContext& ctx, Metrics& m, Checker& checker,
                         Tracer& tracer) {
  TracedOutcome out;
  const std::shared_ptr<const rs::SsspEngine> engine =
      shortcut_layer(ctx, m, tracer);

  std::vector<double> stage_us;
  std::vector<double> dirty;
  const std::vector<double> flush_ms =
      update_probe(ctx, kUpdateBatches, &stage_us, &dirty);
  m.set("dynamic.stage_us", median(stage_us), "us");
  m.set("dynamic.flush_ms", median(flush_ms), "ms");
  double dirty_sum = 0;
  for (const double d : dirty) dirty_sum += d;
  m.set("dynamic.dirty_balls",
        dirty.empty() ? 0.0 : dirty_sum / static_cast<double>(dirty.size()),
        "count");

  // As in the untraced run, co-tenants share the CPU from set-up on.
  std::unique_ptr<CoTenants> cotenants;
  if (ctx.workload->cotenants) {
    cotenants = std::make_unique<CoTenants>(ctx.nproc / 2);
  }
  if (!engine_layer(ctx, *engine, m, checker, tracer)) ++out.failed;
  batch_layer(ctx, *engine, m, checker, tracer);
  server_layer(ctx, m, checker, tracer);
  const TracedOutcome oracle = oracle_layer(ctx, *engine, m, checker, tracer);
  out.attempted += oracle.attempted;
  out.failed += oracle.failed;
  baseline_layer(ctx, m, tracer);

  const WireResult wire =
      wire_probe(ctx, engine->preprocessing(), checker, tracer);
  cotenants.reset();
  m.set("wire.rtt_p50_us", wire.rtt_p50_us, "us");
  m.set("wire.overhead_us", wire.rtt_p50_us - wire.inproc_p50_us, "us");
  out.attempted += wire.attempted;
  out.failed += wire.failures;
  return out;
}

}  // namespace pb
