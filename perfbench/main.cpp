// perfbench: the layered serving benchmark (see perfbench/README.md).
//
//   perfbench --workload road-uniform --seed 1 --seconds 20 --trace 0
//             [--out DIR] [--daemon PATH] [--commit SHA] [--tiny]
//   perfbench --selftest
//
// --trace 0 drives open-loop traffic into SsspServer::submit and prints the
// end-to-end metrics; --trace 1 replays the same inputs against each
// layer's public functions and prints the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it carries the machine descriptor and run health.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "parallel/primitives.hpp"
#include "run.hpp"

namespace pb {

rs::serve::ServerOptions server_options(const Workload& w) {
  rs::serve::ServerOptions opts;
  opts.enable_cache = w.dynamic;
  return opts;
}

double build_stack(const RunContext& ctx, rs::serve::ServerOptions opts,
                   Stack& stack) {
  stack = Stack{};
  Graph g = ctx.graph;  // the copy is the "graph in memory"
  const Clock::time_point t0 = Clock::now();
  if (ctx.workload->dynamic) {
    rs::serve::DynamicSsspService::Options dopts;
    dopts.preprocess = preprocess_options();
    dopts.server = opts;
    stack.dynamic = std::make_unique<rs::serve::DynamicSsspService>(
        std::move(g), dopts);
  } else {
    auto engine = std::make_shared<const rs::SsspEngine>(
        std::move(g), preprocess_options());
    stack.plain =
        std::make_unique<rs::serve::SsspServer>(std::move(engine), opts);
  }
  std::future<rs::QueryResponse> first;
  const auto status =
      stack.server().submit(ctx.stream->request(phase_base(kPhaseWarm)), first);
  const double seconds = seconds_between(t0, Clock::now());
  if (status != rs::serve::SubmitStatus::kAccepted) {
    throw std::runtime_error("the new server refused its first request");
  }
  (void)first.get();
  return seconds;
}

std::vector<double> update_probe(const RunContext& ctx, int batches,
                                 std::vector<double>* stage_us,
                                 std::vector<double>* dirty_balls) {
  rs::serve::DynamicSsspService::Options dopts;
  dopts.preprocess = preprocess_options();
  rs::serve::DynamicSsspService service(ctx.graph, dopts);
  Graph current = ctx.graph;
  std::vector<double> apply_ms;
  for (int b = 0; b < batches; ++b) {
    const std::vector<rs::WeightUpdate> updates =
        update_batch(current, ctx.seed, 1000 + b, kUpdateBatch);
    current = rs::apply_weight_updates(current, updates).graph;
    Clock::time_point t = Clock::now();
    if (stage_us == nullptr) {
      (void)service.apply_updates(updates);
      apply_ms.push_back(ms_between(t, Clock::now()));
      continue;
    }
    (void)service.stage(updates);
    stage_us->push_back(us_between(t, Clock::now()));
    t = Clock::now();
    const rs::serve::UpdateReport report = service.flush();
    apply_ms.push_back(ms_between(t, Clock::now()));
    if (dirty_balls != nullptr) {
      dirty_balls->push_back(static_cast<double>(report.dirty_balls));
    }
  }
  return apply_ms;
}

}  // namespace pb

namespace {

using namespace pb;

constexpr int kSetupReps = 7;
// Rounds of light and heavy traffic, and the share of --seconds each phase
// gets over all its slices.
constexpr int kSlices = 8;
constexpr double kLightShare = 0.42;
constexpr double kHeavyShare = 0.2;
constexpr int kUpdateProbeBatches = 15;
// Enough for the downward gallop to reach a tenth of the start rate: on a
// host in a burst six trials ended at 0.3x with nothing passed (goodput 0).
constexpr int kLadderMaxTrials = 8;
constexpr double kLadderRatio = 1.04;  // rungs 4% apart
constexpr int kLadderClimb = 2;  // rungs per upward trial
// A run whose dispatcher sent its p99 request later than this share of the
// latency limit measured the generator, not the server: it is refused.
constexpr double kMaxLateShareOfLimit = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string out_dir = ".";
  std::string daemon;
  std::string commit = "unknown";
  bool tiny = false;
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--daemon PATH] "
               "[--commit SHA] [--tiny] | --selftest\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--out") {
        a.out_dir = value;
      } else if (key == "--daemon") {
        a.daemon = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!a.selftest) {
    if (find_workload(a.workload) == nullptr) usage("unknown workload");
    if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
      usage("bad --seconds or --trace");
    }
  }
  return a;
}

struct GoodputResult {
  double qps = 0;
  int trials = 0;
  std::vector<double> lateness_ms;
};

/// Walks the fixed geometric ladder (rungs kLadderRatio apart, anchored at
/// the workload's frozen start rate) to bracket the highest passing rung,
/// then bisects. Upwards it climbs two rungs at a time, so the bracket
/// closes within the trial budget (doubling steps left it three rungs
/// wide, and the figure jumped with where it stopped); downwards, where
/// the start was too high for this host, it gallops. Reports the achieved
/// rate on the highest rung that passed.
GoodputResult find_goodput(const RunContext& ctx, rs::serve::SsspServer& server,
                           Checker& checker) {
  const Workload& w = *ctx.workload;
  const double trial_s = 0.06 * ctx.seconds;
  std::map<int, std::pair<bool, double>> tried;  // rung -> (pass, achieved)
  GoodputResult out;
  const auto trial = [&](int rung) {
    PhaseSpec spec;
    spec.rate = w.ladder_start_qps * std::pow(kLadderRatio, rung);
    spec.seconds = trial_s;
    spec.id_base = phase_base(kPhaseLadder + out.trials);
    spec.check_share = w.check_share;
    const PhaseResult r = run_open_loop(server, *ctx.stream, spec, &checker);
    ++out.trials;
    out.lateness_ms.insert(out.lateness_ms.end(), r.lateness_ms.begin(),
                           r.lateness_ms.end());
    const bool pass = phase_passes(r, spec.rate, w.limit_ms);
    std::fprintf(stderr,
                 "perfbench: ladder rung %+d (%.1f req/s): %s, achieved %.1f, "
                 "p99 %.1f ms, failed %llu\n",
                 rung, spec.rate, pass ? "pass" : "fail", r.achieved_qps,
                 quantile(r.latency_ms, 0.99),
                 static_cast<unsigned long long>(r.failed()));
    tried[rung] = {pass, r.achieved_qps};
    return pass;
  };

  int lo = std::numeric_limits<int>::min();  // highest passing rung
  int hi = std::numeric_limits<int>::max();  // lowest failing rung
  int step = 1;
  if (trial(0)) {
    lo = 0;
    while (out.trials < kLadderMaxTrials) {
      if (!trial(lo + kLadderClimb)) {
        hi = lo + kLadderClimb;
        break;
      }
      lo += kLadderClimb;
    }
  } else {
    hi = 0;
    while (out.trials < kLadderMaxTrials) {
      if (trial(hi - step)) {
        lo = hi - step;
        break;
      }
      hi -= step;
      step *= 2;
    }
  }
  while (out.trials < kLadderMaxTrials &&
         lo != std::numeric_limits<int>::min() &&
         hi != std::numeric_limits<int>::max() && hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (trial(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (lo != std::numeric_limits<int>::min()) out.qps = tried[lo].second;
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
}

/// The descriptor line: machine, workload shape, run health.
std::string descriptor_json(const Args& args, const RunContext& ctx,
                            double added_factor, double late_p99_ms,
                            bool valid, const Checker::Result& check) {
  const Machine m = describe_machine(args.seed, args.commit);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"machine\": {\"nproc\": %u, \"workers\": %d, \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", \"llc_bytes\": %ld, \"seed\": %llu}, "
      "\"workload\": {\"name\": \"%s\", \"trace\": %d, \"n\": %u, \"m\": "
      "%llu, \"added_factor\": %s}, \"health\": {\"gen.late_p99_ms\": %s, "
      "\"valid\": %s, \"checked\": %zu, \"mismatches\": %zu}}",
      m.nproc, ctx.workers, json_escape(m.compiler).c_str(),
      json_escape(m.build_type).c_str(), json_escape(m.commit).c_str(),
      m.llc_bytes, static_cast<unsigned long long>(m.seed),
      ctx.workload->name.c_str(), args.trace, ctx.graph.num_vertices(),
      static_cast<unsigned long long>(ctx.graph.num_undirected_edges()),
      json_number(added_factor).c_str(), json_number(late_p99_ms).c_str(),
      valid ? "true" : "false", check.checked, check.mismatches);
  return buf;
}

void write_file(const std::string& path, const std::string& text) {
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

void report_mismatches(const Checker::Result& check) {
  for (const std::string& e : check.examples) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", e.c_str());
  }
}

int run_untraced(const Args& args, RunContext& ctx) {
  const Workload& w = *ctx.workload;
  Checker checker;
  checker.add_graph(1, std::make_shared<const Graph>(ctx.graph));
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // setup_s: median of several builds; the last one serves the traffic.
  std::vector<double> setups;
  Stack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setups.push_back(build_stack(ctx, server_options(w), stack));
  }
  rs::serve::SsspServer& server = stack.server();
  const double added_factor =
      server.engine_snapshot()->preprocessing().added_factor;

  std::unique_ptr<CoTenants> cotenants;
  if (w.cotenants) cotenants = std::make_unique<CoTenants>(ctx.nproc / 2);

  std::vector<double> lateness;
  // Slice `slice` of phase `which`; the slices of a phase send consecutive
  // request ids, so together they draw the stream a single phase would.
  const auto phase = [&](std::uint64_t which, int slice, double rate,
                         double seconds) {
    PhaseSpec spec;
    spec.rate = rate;
    spec.seconds = seconds;
    spec.id_base = phase_base(which) +
                   static_cast<std::uint64_t>(slice) * request_count(spec);
    spec.check_share = w.check_share;
    PhaseResult r = run_open_loop(server, *ctx.stream, spec,
                                  which == kPhaseWarm ? nullptr : &checker);
    if (which != kPhaseWarm) {
      lateness.insert(lateness.end(), r.lateness_ms.begin(),
                      r.lateness_ms.end());
      attempted += r.attempted;
      failed += r.failed();
    }
    std::fprintf(stderr,
                 "perfbench: phase %llu.%d at %.1f req/s: p50 %.2f ms, p99 "
                 "%.2f ms, %zu samples, mean batch %.2f, failed %llu\n",
                 static_cast<unsigned long long>(which), slice, rate,
                 median(r.latency_ms), quantile(r.latency_ms, 0.99),
                 r.latency_ms.size(), r.mean_batch,
                 static_cast<unsigned long long>(r.failed()));
    return r;
  };

  // Warm-up at the heavy rate: worker pools, allocators and (on the churn
  // workload) the result cache reach their working state before timing.
  (void)phase(kPhaseWarm, 0, w.heavy_qps, 0.06 * ctx.seconds);
  // Light and heavy traffic alternate in kSlices rounds, and each latency
  // metric is the median over its slices: a burst of a neighbour on a
  // shared host that spoils one or two slices does not move it. The churn
  // writer runs in the heavy slices and the ladder only: light latency
  // measures reads alone, heavy latency and goodput reads under writes.
  std::unique_ptr<ChurnWriter> writer;
  if (stack.dynamic != nullptr) {
    writer = std::make_unique<ChurnWriter>(*stack.dynamic, ctx.graph,
                                           ctx.seed, kChurnPeriod, checker);
  }
  std::vector<double> light_slices, heavy_slices;
  PhaseResult light, heavy;  // every slice's latencies, for the tails
  for (int slice = 0; slice < kSlices; ++slice) {
    const PhaseResult l = phase(kPhaseLight, slice, w.light_qps,
                                kLightShare / kSlices * ctx.seconds);
    light_slices.push_back(trimmed_mean(l.latency_ms, 0.95));
    light.latency_ms.insert(light.latency_ms.end(), l.latency_ms.begin(),
                            l.latency_ms.end());
    if (writer != nullptr) writer->resume();
    const PhaseResult h = phase(kPhaseHeavy, slice, w.heavy_qps,
                                kHeavyShare / kSlices * ctx.seconds);
    if (writer != nullptr) writer->pause();
    heavy_slices.push_back(median(h.latency_ms));
    heavy.latency_ms.insert(heavy.latency_ms.end(), h.latency_ms.begin(),
                            h.latency_ms.end());
  }
  if (writer != nullptr) writer->resume();
  const GoodputResult goodput = find_goodput(ctx, server, checker);
  lateness.insert(lateness.end(), goodput.lateness_ms.begin(),
                  goodput.lateness_ms.end());

  std::vector<double> update_ms;
  if (writer != nullptr) {
    update_ms = writer->stop();
    failed += writer->errors();
    attempted += update_ms.size() + writer->errors();
  } else {
    update_ms = update_probe(ctx, kUpdateProbeBatches);
  }
  cotenants.reset();
  stack = Stack{};

  const Checker::Result check = checker.run(ctx.nproc);
  report_mismatches(check);
  failed += check.mismatches;

  metrics.set("setup_s", median(setups), "s");
  metrics.set("goodput_qps", goodput.qps, "req/s");
  // The light median sits where the sub-millisecond answers (top-k, cache
  // hits) give way to routes; on the churn workload a two-point change in
  // that share moved it by a third. A light slice reports the mean of its
  // fastest 95% instead: smooth across that step, and deaf to the few
  // requests a host stall of some 100 ms holds up.
  metrics.set("light.tmean_ms", median(light_slices), "ms");
  metrics.set("heavy.p50_ms", median(heavy_slices), "ms");
  // Tails go to the result file only: on a shared host they moved too much
  // from run to run to carry a regression bound (see README.md).
  Metrics tails;
  for (const auto& [name, r] : {std::pair<const char*, const PhaseResult*>{
                                    "light", &light},
                                {"heavy", &heavy}}) {
    const std::string prefix(name);
    tails.set(prefix + ".p50_ms", median(r->latency_ms), "ms");
    tails.set(prefix + ".p90_ms", quantile(r->latency_ms, 0.90), "ms");
    tails.set(prefix + ".p99_ms", quantile(r->latency_ms, 0.99), "ms");
    tails.set(prefix + ".samples", static_cast<double>(r->latency_ms.size()),
              "count");
  }
  metrics.set("update_ms", median(update_ms), "ms");

  const double late_p99 = quantile(lateness, 0.99);
  const bool valid = late_p99 <= kMaxLateShareOfLimit * w.limit_ms;
  const std::string descriptor =
      descriptor_json(args, ctx, added_factor, late_p99, valid, check);
  std::fprintf(stderr, "perfbench: failed_frac %.6f (%llu of %llu)\n",
               attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  write_file(ctx.out_dir + "/result-" + w.name + "-" +
                 std::to_string(args.seed) + "-trace0.json",
             "{\"descriptor\": " + descriptor + ", \"metrics\": " +
                 metrics.json() + ", \"tails\": " + tails.json() + "}\n");
  std::fprintf(stderr, "perfbench: tails %s\n", tails.json().c_str());
  if (!valid) {
    std::fprintf(stderr,
                 "perfbench: INVALID run: the generator fell behind (late "
                 "p99 %.2f ms > %.2f ms); no result reported\n",
                 late_p99, kMaxLateShareOfLimit * w.limit_ms);
    return 3;
  }
  std::printf("%s\n", descriptor.c_str());
  print_result(check.mismatches == 0, attempted, failed, metrics);
  return check.mismatches == 0 && failed == 0 ? 0 : 1;
}

int run_traced_main(const Args& args, RunContext& ctx) {
  const Workload& w = *ctx.workload;
  Checker checker;
  checker.add_graph(1, std::make_shared<const Graph>(ctx.graph));
  Metrics metrics;
  Tracer tracer;
  const TracedOutcome outcome = run_traced(ctx, metrics, checker, tracer);
  const Checker::Result check = checker.run(ctx.nproc);
  report_mismatches(check);
  const std::string spans_path = ctx.out_dir + "/spans-" + w.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  if (!tracer.write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  const std::string descriptor =
      descriptor_json(args, ctx, metrics.get("shortcut.added_factor"), 0.0,
                      true, check);
  write_file(ctx.out_dir + "/result-" + w.name + "-" +
                 std::to_string(args.seed) + "-trace1.json",
             "{\"descriptor\": " + descriptor + ", \"metrics\": " +
                 metrics.json() + "}\n");
  std::printf("%s\n", descriptor.c_str());
  const std::uint64_t failed = outcome.failed + check.mismatches;
  print_result(check.mismatches == 0, check.checked + outcome.attempted,
               failed, metrics);
  return failed == 0 ? 0 : 1;
}

/// The gate must pass true answers and trip on a skewed reference and on
/// a corrupted path.
int selftest() {
  const Workload& w = *find_workload("road-uniform");
  const Graph g = make_graph(w, Size::kTiny);
  const RequestStream stream(w, 7, g.num_vertices());
  const rs::SsspEngine engine(g, preprocess_options());
  Checker checker;
  checker.add_graph(1, std::make_shared<const Graph>(g));
  std::vector<Answer> answers;
  int kinds_seen[kNumKinds] = {0, 0, 0, 0};
  for (std::uint64_t id = 0; id < 200; ++id) {
    const rs::QueryRequest req = stream.request(id);
    answers.push_back(capture(id, stream.kind(id), req, engine.serve(req)));
    ++kinds_seen[static_cast<int>(stream.kind(id))];
  }
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("selftest: %s: %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  expect(kinds_seen[0] > 0 && kinds_seen[1] > 0 && kinds_seen[2] > 0 &&
             kinds_seen[3] > 0,
         "the mix draws every request kind");
  for (const Answer& a : answers) checker.add(a);
  Checker::Result r = checker.run(2);
  expect(r.checked == answers.size() && r.mismatches == 0,
         "true answers pass the gate");
  for (const Answer& a : answers) checker.add(a);
  r = checker.run(2, /*skew=*/1);
  expect(r.mismatches == answers.size(), "a wrong reference trips every check");
  for (Answer a : answers) {
    if (a.kind == Kind::kRoute && a.path.size() > 2) {
      a.path.erase(a.path.begin() + 1);
      checker.add(a);
      break;
    }
  }
  r = checker.run(1);
  expect(r.checked == 1 && r.mismatches == 1, "a broken path trips the check");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.selftest) return selftest();
    RunContext ctx;
    ctx.workload = find_workload(args.workload);
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.size = args.tiny ? Size::kTiny : Size::kFull;
    ctx.out_dir = args.out_dir;
    ctx.daemon = args.daemon;
    ctx.nproc = static_cast<int>(std::max(1u, describe_machine(0, "").nproc));
    ctx.workers = std::max(1, ctx.nproc - 1);
    rs::set_num_workers(ctx.workers);
    ctx.graph = make_graph(*ctx.workload, ctx.size);
    ctx.stream = std::make_unique<RequestStream>(*ctx.workload, args.seed,
                                                 ctx.graph.num_vertices());
    return args.trace == 0 ? run_untraced(args, ctx)
                           : run_traced_main(args, ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
