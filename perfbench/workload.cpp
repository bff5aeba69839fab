#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "graph/weights.hpp"

namespace pb {

namespace {

// SplitRng stream ids: one per independent random decision.
enum Stream : std::uint64_t {
  kStreamKind = 1,
  kStreamTarget,
  kStreamPool,
  kStreamZipf,
  kStreamUpdateVertex,
  kStreamUpdateArc,
  kStreamUpdateWeight,
  kStreamQmc,
};

// Fixed graph seeds: the workload seed changes the traffic and the update
// batches, not the graph. With seed-drawn weights, set-up time and goodput
// followed the weight draw as much as the program (see README.md).
constexpr std::uint64_t kRoadTopology = 101;
constexpr std::uint64_t kWebTopology = 404;
constexpr std::uint64_t kWeightSeed = 7;

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  Workload road;
  road.name = "road-uniform";
  road.light_qps = 30;
  road.heavy_qps = 260;
  road.limit_ms = 150;
  road.ladder_start_qps = 450;
  road.check_share = 0.25;
  out.push_back(road);

  Workload web;
  web.name = "web-uniform";
  web.web = true;
  web.light_qps = 20;
  web.heavy_qps = 200;
  web.limit_ms = 300;
  web.ladder_start_qps = 340;
  web.check_share = 0.2;
  out.push_back(web);

  Workload hot = road;
  hot.name = "road-hot-churn";
  hot.dynamic = true;
  hot.zipf_sources = true;
  hot.heavy_qps = 300;
  hot.limit_ms = 300;
  hot.ladder_start_qps = 720;
  out.push_back(hot);

  Workload shared = road;
  shared.name = "road-shared";
  shared.cotenants = true;
  shared.light_qps = 25;
  shared.heavy_qps = 140;
  shared.limit_ms = 300;
  shared.ladder_start_qps = 330;
  out.push_back(shared);
  return out;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kRoute:
      return "route";
    case Kind::kMatrix:
      return "matrix";
    case Kind::kPoi:
      return "poi";
    case Kind::kFull:
      return "full";
  }
  return "unknown";
}

rs::PreprocessOptions preprocess_options() {
  rs::PreprocessOptions opts;
  opts.rho = 32;
  opts.k = 2;
  opts.heuristic = rs::ShortcutHeuristic::kDP;
  return opts;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Graph make_graph(const Workload& w, Size size) {
  const bool tiny = size == Size::kTiny;
  const Graph topology =
      w.web ? rs::gen::web_graph(tiny ? 2000 : 30000, 10, kWebTopology)
            : rs::gen::road_network(tiny ? 40 : 200, tiny ? 40 : 200,
                                    kRoadTopology);
  return rs::assign_uniform_weights(topology, kWeightSeed, 1,
                                   rs::kPaperMaxWeight);
}

RequestStream::RequestStream(const Workload& w, std::uint64_t seed, Vertex n)
    : rng_(seed), n_(n), zipf_(w.zipf_sources) {
  if (!w.web) {
    side_ = static_cast<Vertex>(std::lround(std::sqrt(static_cast<double>(n))));
    if (side_ * side_ != n) side_ = 0;
  }
  // Kronecker steps 1/phi^(j+1), phi the root of x^5 = x + 1, in 64-bit
  // fixed point so that the large ordinals of later phases stay exact.
  constexpr double kPhi4 = 1.1673039782614187;
  double alpha = 1.0;
  for (int j = 0; j < kQmcDims; ++j) {
    alpha /= kPhi4;
    qmc_step_[j] = static_cast<std::uint64_t>(std::ldexp(alpha, 64));
  }
  if (!zipf_) return;
  pool_.resize(kZipfPool);
  zipf_cdf_.resize(kZipfPool);
  double acc = 0.0;
  // The pool is stratified too (the 2-dimensional Kronecker sequence of
  // the plastic number): the few sources that carry most of the traffic
  // land spread over the graph for every seed.
  constexpr std::uint64_t kPoolStep[2] = {0xC13FA9A902A6328FULL,
                                          0x91E10DA5C79E7B1DULL};
  const std::uint64_t shift[2] = {rng_.get(kStreamPool, 0),
                                  rng_.get(kStreamPool, 1)};
  for (std::size_t j = 0; j < kZipfPool; ++j) {
    pool_[j] = place(shift[0] + j * kPoolStep[0], shift[1] + j * kPoolStep[1]);
    acc += 1.0 / static_cast<double>(j + 1);
    zipf_cdf_[j] = acc;
  }
  for (double& c : zipf_cdf_) c /= acc;
}

RequestStream::Slot RequestStream::slot(std::uint64_t id) const {
  // Fisher-Yates over the block's slots, seeded per block.
  const std::uint64_t block = id / kMixBlock;
  std::uint64_t slots[kMixBlock];
  for (std::uint64_t j = 0; j < kMixBlock; ++j) slots[j] = j;
  for (std::uint64_t j = kMixBlock - 1; j > 0; --j) {
    const std::uint64_t pick = rng_.bounded(kStreamKind, block * kMixBlock + j,
                                            j + 1);
    std::swap(slots[j], slots[pick]);
  }
  const auto kind_of = [](std::uint64_t s) {
    if (s < kRouteSlots) return Kind::kRoute;
    if (s < kRouteSlots + kMatrixSlots) return Kind::kMatrix;
    if (s < kRouteSlots + kMatrixSlots + kPoiSlots) return Kind::kPoi;
    return Kind::kFull;
  };
  const std::uint64_t pos = id % kMixBlock;
  Slot out;
  out.kind = kind_of(slots[pos]);
  std::uint64_t per_block = 0;
  std::uint64_t before = 0;
  for (std::uint64_t j = 0; j < kMixBlock; ++j) {
    if (kind_of(j) == out.kind) ++per_block;
    if (j < pos && kind_of(slots[j]) == out.kind) ++before;
  }
  out.ordinal = block * per_block + before;
  return out;
}

Kind RequestStream::kind(std::uint64_t id) const { return slot(id).kind; }

std::uint64_t RequestStream::qmc(const Slot& s, int dim) const {
  const auto stream =
      static_cast<std::uint64_t>(s.kind) * kQmcDims + static_cast<std::uint64_t>(dim);
  return rng_.get(kStreamQmc, stream) + s.ordinal * qmc_step_[dim];
}

Vertex RequestStream::place(std::uint64_t u0, std::uint64_t u1) const {
  const auto scale = [](std::uint64_t u, Vertex bound) {
    return static_cast<Vertex>(
        (static_cast<unsigned __int128>(u) * bound) >> 64);
  };
  if (side_ == 0) return scale(u0, n_);
  return scale(u0, side_) * side_ + scale(u1, side_);
}

Vertex RequestStream::vertex(const Slot& s, int dim) const {
  return place(qmc(s, dim), qmc(s, dim + 1));
}

Vertex RequestStream::source(std::uint64_t id, const Slot& s) const {
  if (!zipf_) return vertex(s, 0);
  // Independent draws: a stratified sequence would space repeats of a
  // source evenly and so change what the result cache sees.
  const double u = rng_.uniform(kStreamZipf, id);
  const auto j = static_cast<std::size_t>(
      std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  return pool_[std::min(j, kZipfPool - 1)];
}

rs::QueryRequest RequestStream::request(std::uint64_t id) const {
  const Slot s = slot(id);
  rs::QueryRequest req;
  req.source = source(id, s);
  req.engine = rs::QueryEngine::kFlat;
  const auto target = [&](std::uint64_t t) {
    return static_cast<Vertex>(
        rng_.bounded(kStreamTarget, id * kMatrixTargets + t, n_));
  };
  switch (s.kind) {
    case Kind::kRoute:
      req.targets = {vertex(s, 2)};
      req.want_paths = true;
      break;
    case Kind::kMatrix:
      req.targets.reserve(kMatrixTargets);
      for (std::uint64_t t = 0; t < kMatrixTargets; ++t) {
        req.targets.push_back(target(t));
      }
      break;
    case Kind::kPoi:
      req.kind = rs::RequestKind::kTopK;
      req.k = kPoiK;
      break;
    case Kind::kFull:
      req.want_full_distances = true;
      break;
  }
  return req;
}

std::uint64_t RequestStream::next_of_kind(Kind want, std::uint64_t id) const {
  while (kind(id) != want) ++id;
  return id;
}

std::vector<rs::WeightUpdate> update_batch(const Graph& g, std::uint64_t seed,
                                           std::uint64_t batch,
                                           std::size_t size) {
  const rs::SplitRng rng(seed);
  std::vector<rs::WeightUpdate> out;
  out.reserve(size);
  for (std::uint64_t i = 0; out.size() < size; ++i) {
    const std::uint64_t draw = batch * (1ull << 20) + i;
    const auto u = static_cast<Vertex>(
        rng.bounded(kStreamUpdateVertex, draw, g.num_vertices()));
    if (g.degree(u) == 0) continue;
    const rs::EdgeId arc =
        g.first_arc(u) + rng.bounded(kStreamUpdateArc, draw, g.degree(u));
    const auto w = static_cast<rs::Weight>(
        1 + rng.bounded(kStreamUpdateWeight, draw, rs::kPaperMaxWeight));
    out.push_back({u, g.arc_target(arc), w});
  }
  return out;
}

}  // namespace pb
