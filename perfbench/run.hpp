// What one benchmark run knows: the command line, the workload, its graph
// and request stream, and the serving stack both kinds of run build.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "check.hpp"
#include "loadgen.hpp"
#include "report.hpp"
#include "serve/dynamic.hpp"
#include "serve/server.hpp"
#include "workload.hpp"

namespace pb {

struct RunContext {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  Size size = Size::kFull;
  std::string out_dir;  ///< results, spans and daemon files go here
  std::string daemon;   ///< path of the example_sssp_serve binary
  int nproc = 1;
  /// OpenMP workers of the serving stack: nproc - 1, so the load
  /// generator's threads keep a CPU of their own (see README.md).
  int workers = 1;
  Graph graph;
  std::unique_ptr<RequestStream> stream;
};

/// First request id of each phase (kPhaseStride apart).
enum Phase : std::uint64_t {
  kPhaseWarm = 0,
  kPhaseLight = 1,
  kPhaseHeavy = 2,
  kPhaseLadder = 3,  ///< trial j uses kPhaseLadder + j
};
constexpr std::uint64_t phase_base(std::uint64_t phase) {
  return phase * kPhaseStride;
}

/// The serving stack under test: a plain SsspServer, or the server inside
/// a DynamicSsspService for the churn workload.
struct Stack {
  std::unique_ptr<rs::serve::DynamicSsspService> dynamic;
  std::unique_ptr<rs::serve::SsspServer> plain;
  rs::serve::SsspServer& server() {
    return dynamic != nullptr ? dynamic->server() : *plain;
  }
};

/// Default ServerOptions, with the result cache on for the churn workload.
rs::serve::ServerOptions server_options(const Workload& w);

/// Builds the stack from the graph in memory and submits the first
/// request; returns the seconds until that request was admitted.
double build_stack(const RunContext& ctx, rs::serve::ServerOptions opts,
                   Stack& stack);

/// The update probe of the static workloads: a DynamicSsspService over
/// the same graph applies a few kUpdateBatch-edge batches while no
/// traffic runs. Returns the apply_updates() wall times (ms); stage times
/// (us) and dirty-ball counts of separate stage() + flush() calls go to
/// the optional outputs.
std::vector<double> update_probe(const RunContext& ctx, int batches,
                                 std::vector<double>* stage_us = nullptr,
                                 std::vector<double>* dirty_balls = nullptr);

/// Requests the traced run made outside the checker, and how many failed
/// (Theorem 3.2 violations, wire-probe failures).
struct TracedOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The traced run: replays the run's inputs against each layer's public
/// functions, records spans in `tracer` and sets the per-layer metrics.
/// Answers go to `checker`.
TracedOutcome run_traced(const RunContext& ctx, Metrics& metrics,
                         Checker& checker, Tracer& tracer);

/// Result of the line-protocol probe against example_sssp_serve.
struct WireResult {
  double rtt_p50_us = 0;      ///< TCP round trip of one request line
  double inproc_p50_us = 0;   ///< submit -> future, same requests
  std::uint64_t attempted = 0;
  std::uint64_t failures = 0;  ///< bad replies, hangs, unclean shutdown
};
WireResult wire_probe(const RunContext& ctx,
                      const rs::PreprocessResult& pre, Checker& checker,
                      Tracer& tracer);

}  // namespace pb
