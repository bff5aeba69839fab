// Workloads of the serving benchmark: the graphs, the frozen traffic
// settings, and the deterministic request stream every run draws from.
//
// Everything the program under test receives is generated here: the graph
// from fixed seeds, and from the workload seed the sources, targets,
// request kinds and update batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "graph/graph.hpp"
#include "graph/update.hpp"
#include "parallel/rng.hpp"
#include "shortcut/shortcut.hpp"

namespace pb {

using rs::Dist;
using rs::Graph;
using rs::Vertex;

/// The four request kinds of the one traffic mix.
enum class Kind : std::uint8_t { kRoute, kMatrix, kPoi, kFull };
constexpr int kNumKinds = 4;
const char* kind_name(Kind kind);

/// Mix shares (route 50%, matrix 20%, poi 25%, full 5%) as slots of a
/// block of kMixBlock consecutive request ids: every block holds exactly
/// these counts in a seed-shuffled order, so a phase's shares do not
/// drift with the seed (a drawn mix moved the light median by a third).
constexpr std::uint64_t kMixBlock = 20;
constexpr std::uint64_t kRouteSlots = 10;
constexpr std::uint64_t kMatrixSlots = 4;
constexpr std::uint64_t kPoiSlots = 5;
constexpr std::size_t kMatrixTargets = 64;
constexpr std::uint32_t kPoiK = 16;

/// Shared engine settings: kFlat, rho = 32, k = 2, DP shortcuts.
rs::PreprocessOptions preprocess_options();

/// One workload's frozen settings. The rates and the latency limit were
/// set once from a calibration run on the reference machine (see
/// perfbench/README.md) and are constants from then on, so a faster
/// program is measured at the same offered load as its parent.
struct Workload {
  std::string name;
  bool web = false;           ///< web graph (else road lattice)
  bool dynamic = false;       ///< served through DynamicSsspService
  bool zipf_sources = false;  ///< Zipf(s=1) over a pool of 1024 sources
  bool cotenants = false;     ///< nproc/2 busy threads share the CPU
  double light_qps = 0;       ///< fixed light rate (~1/4 of capacity)
  double heavy_qps = 0;       ///< fixed heavy rate (~3/4 of capacity)
  double limit_ms = 0;        ///< p99 latency limit of the goodput ladder
  double ladder_start_qps = 0;  ///< rung the goodput search starts from
  /// Share of requests whose answers are checked against Dijkstra (the
  /// deterministic sample; 1 = every answer).
  double check_share = 1.0;
};

/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);
/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& all_workloads();

/// Size of the generated graphs: kFull is what the benchmark measures;
/// kTiny is the self-test's small stand-in.
enum class Size : std::uint8_t { kFull, kTiny };

/// The workload's graph: fixed topology, fixed weights in [1, 10^4].
Graph make_graph(const Workload& w, Size size);

/// Zipf source pool size of the hot workload.
constexpr std::size_t kZipfPool = 1024;

/// The request stream of one run: request `id` is a pure function of
/// (seed, id), so the untraced and the traced run replay the same inputs.
///
/// Uniform sources and route targets are stratified rather than drawn
/// independently: the j-th request of a kind takes the j-th point of a
/// 4-dimensional Kronecker sequence under a seed-random shift. On the road
/// lattice a point is a (row, column) pair for the source and one for the
/// target, elsewhere a vertex id each. Every seed then covers the graph
/// evenly, which keeps a phase's latency quantiles from moving with the
/// luck of a few hundred draws. Matrix targets and Zipf draws stay
/// independent; the Zipf pool itself is spread over the graph.
class RequestStream {
 public:
  RequestStream(const Workload& w, std::uint64_t seed, Vertex n);

  Kind kind(std::uint64_t id) const;
  rs::QueryRequest request(std::uint64_t id) const;
  /// The first request of `kind` at or after `id` (for per-kind replays).
  std::uint64_t next_of_kind(Kind kind, std::uint64_t id) const;

 private:
  static constexpr int kQmcDims = 4;
  /// Request `id`'s kind and its rank among requests of that kind.
  struct Slot {
    Kind kind = Kind::kRoute;
    std::uint64_t ordinal = 0;
  };
  Slot slot(std::uint64_t id) const;
  /// Coordinate `dim` of the slot's sequence point, in 64-bit fixed point.
  std::uint64_t qmc(const Slot& s, int dim) const;
  /// The vertex at fixed-point coordinates (u0, u1): a lattice (row,
  /// column) on a road graph, else the vertex id u0 * n.
  Vertex place(std::uint64_t u0, std::uint64_t u1) const;
  /// The vertex at the slot's coordinates `dim` and `dim` + 1.
  Vertex vertex(const Slot& s, int dim) const;
  Vertex source(std::uint64_t id, const Slot& s) const;

  rs::SplitRng rng_;
  Vertex n_;
  Vertex side_ = 0;  ///< lattice side of a road graph, else 0
  std::uint64_t qmc_step_[kQmcDims] = {};
  bool zipf_;
  std::vector<Vertex> pool_;
  std::vector<double> zipf_cdf_;
};

/// Update batches of the churn writer: `size` random re-weights of
/// existing edges of `g`, drawn from (seed, batch).
std::vector<rs::WeightUpdate> update_batch(const Graph& g, std::uint64_t seed,
                                           std::uint64_t batch,
                                           std::size_t size);

/// Batch size and cadence of the churn writer.
constexpr std::size_t kUpdateBatch = 32;

/// Request-id ranges: each phase of a run draws its own ids, so no two
/// phases send the same request.
constexpr std::uint64_t kPhaseStride = 1ull << 32;

}  // namespace pb
