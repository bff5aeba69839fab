#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <queue>
#include <thread>
#include <tuple>
#include <utility>

#include "parallel/rng.hpp"

namespace pb {

namespace {

/// Dijkstra from `source`, stopping once every vertex in `needed` is
/// settled and at least `k` vertices are, with the whole distance class of
/// the k-th settled vertex included. `full` runs to exhaustion.
struct Reference {
  std::vector<Dist> dist;
  /// Settled (dist, vertex) pairs, in settle order.
  std::vector<std::pair<Dist, Vertex>> settled;
};

Reference dijkstra_until(const Graph& g, Vertex source,
                         std::vector<Vertex> needed, std::size_t k,
                         bool full) {
  const Vertex n = g.num_vertices();
  Reference ref;
  ref.dist.assign(n, rs::kInfDist);
  std::vector<char> done(n, 0);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  std::size_t needed_left = needed.size();
  std::vector<char> is_needed(n, 0);
  for (const Vertex v : needed) is_needed[v] = 1;

  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  ref.dist[source] = 0;
  heap.push({0, source});
  Dist kth = rs::kInfDist;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    if (!full && needed_left == 0 &&
        (k == 0 || (ref.settled.size() >= k && d > kth))) {
      break;
    }
    heap.pop();
    if (done[u] || d != ref.dist[u]) continue;
    done[u] = 1;
    ref.settled.push_back({d, u});
    if (ref.settled.size() == k) kth = d;
    if (is_needed[u]) --needed_left;
    for (rs::EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      const Dist nd = d + g.arc_weight(e);
      if (nd < ref.dist[v]) {
        ref.dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  // Entries that never settled are not final; only settled ones are read.
  for (Vertex v = 0; v < n; ++v) {
    if (!done[v]) ref.dist[v] = rs::kInfDist;
  }
  return ref;
}

/// Weight of the lightest arc u -> v, or kInfDist when there is none.
Dist arc_weight(const Graph& g, Vertex u, Vertex v) {
  Dist best = rs::kInfDist;
  for (rs::EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
    if (g.arc_target(e) == v) best = std::min<Dist>(best, g.arc_weight(e));
  }
  return best;
}

std::string describe(const Answer& a, const std::string& what) {
  return std::string(kind_name(a.kind)) + " request " + std::to_string(a.id) +
         " (source " + std::to_string(a.source) + ", epoch " +
         std::to_string(a.epoch) + "): " + what;
}

/// Empty when `a` agrees with the reference; otherwise the reason.
std::string verify(const Answer& a, const Graph& g, const Reference& ref,
                   Dist skew) {
  if (a.malformed) return describe(a, "response shape differs from request");
  const auto want = [&](Vertex v) {
    const Dist d = ref.dist[v];
    return d == rs::kInfDist ? d : d + skew;
  };
  switch (a.kind) {
    case Kind::kRoute:
    case Kind::kMatrix:
      for (std::size_t i = 0; i < a.targets.size(); ++i) {
        if (a.dists[i] != want(a.targets[i])) {
          return describe(a, "distance to " + std::to_string(a.targets[i]) +
                                 " is " + std::to_string(a.dists[i]) +
                                 ", Dijkstra says " +
                                 std::to_string(want(a.targets[i])));
        }
      }
      if (a.kind == Kind::kRoute && a.dists[0] != rs::kInfDist) {
        if (a.path.empty() || a.path.front() != a.source ||
            a.path.back() != a.targets[0]) {
          return describe(a, "path does not join source and target");
        }
        Dist sum = 0;
        for (std::size_t i = 1; i < a.path.size(); ++i) {
          const Dist w = arc_weight(g, a.path[i - 1], a.path[i]);
          if (w == rs::kInfDist) {
            return describe(a, "path uses a missing edge " +
                                   std::to_string(a.path[i - 1]) + "-" +
                                   std::to_string(a.path[i]));
          }
          sum += w;
        }
        if (sum + skew != a.dists[0]) {
          return describe(a, "path weighs " + std::to_string(sum) +
                                 ", answer says " + std::to_string(a.dists[0]));
        }
      }
      return {};
    case Kind::kPoi: {
      std::vector<std::pair<Dist, Vertex>> prefix = ref.settled;
      std::sort(prefix.begin(), prefix.end());
      prefix.resize(std::min<std::size_t>(prefix.size(), kPoiK));
      if (prefix.size() != a.targets.size()) {
        return describe(a, "top-k returned " +
                               std::to_string(a.targets.size()) +
                               " vertices, expected " +
                               std::to_string(prefix.size()));
      }
      for (std::size_t i = 0; i < prefix.size(); ++i) {
        if (a.targets[i] != prefix[i].second ||
            a.dists[i] != prefix[i].first + skew) {
          return describe(a, "top-k rank " + std::to_string(i) + " differs");
        }
      }
      return {};
    }
    case Kind::kFull: {
      std::vector<Dist> expect(ref.dist.size());
      for (std::size_t v = 0; v < expect.size(); ++v) {
        expect[v] = want(static_cast<Vertex>(v));
      }
      if (a.full_size != expect.size() ||
          a.full_hash != hash_distances(expect)) {
        return describe(a, "full distance vector differs");
      }
      return {};
    }
  }
  return describe(a, "unknown kind");
}

}  // namespace

std::uint64_t hash_distances(const std::vector<Dist>& dist) {
  std::uint64_t h = dist.size();
  for (const Dist d : dist) h = rs::hash64(h ^ d);
  return h;
}

bool in_check_sample(std::uint64_t id, double share) {
  if (share >= 1.0) return true;
  const double u =
      static_cast<double>(rs::hash64(id ^ 0x5eedc0ffeeull) >> 11) * 0x1.0p-53;
  return u < share;
}

Answer capture(std::uint64_t id, Kind kind, const rs::QueryRequest& req,
               const rs::QueryResponse& resp) {
  Answer a;
  a.id = id;
  a.kind = kind;
  a.source = req.source;
  a.epoch = resp.graph_epoch;
  switch (kind) {
    case Kind::kRoute:
    case Kind::kMatrix:
      a.targets = req.targets;
      a.malformed = resp.targets.size() != req.targets.size();
      for (std::size_t i = 0; !a.malformed && i < resp.targets.size(); ++i) {
        a.malformed = resp.targets[i].target != req.targets[i];
        a.dists.push_back(resp.targets[i].dist);
      }
      if (kind == Kind::kRoute && !a.malformed) a.path = resp.targets[0].path;
      break;
    case Kind::kPoi:
      for (const rs::TargetResult& t : resp.targets) {
        a.targets.push_back(t.target);
        a.dists.push_back(t.dist);
      }
      break;
    case Kind::kFull:
      a.full_hash = hash_distances(resp.dist);
      a.full_size = resp.dist.size();
      break;
  }
  return a;
}

void Checker::add_graph(std::uint64_t epoch,
                        std::shared_ptr<const Graph> graph) {
  const std::lock_guard<std::mutex> lock(mu_);
  graphs_[epoch] = std::move(graph);
}

void Checker::add(Answer answer) {
  const std::lock_guard<std::mutex> lock(mu_);
  answers_.push_back(std::move(answer));
}

Checker::Result Checker::run(int threads, Dist skew) {
  std::vector<Answer> answers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    answers.swap(answers_);
  }
  // One reference run serves every answer with the same (epoch, source).
  std::sort(answers.begin(), answers.end(),
            [](const Answer& x, const Answer& y) {
              return std::tie(x.epoch, x.source, x.id) <
                     std::tie(y.epoch, y.source, y.id);
            });
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < answers.size();) {
    std::size_t j = i;
    while (j < answers.size() && answers[j].epoch == answers[i].epoch &&
           answers[j].source == answers[i].source) {
      ++j;
    }
    groups.push_back({i, j});
    i = j;
  }

  Result result;
  result.checked = answers.size();
  std::mutex result_mu;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t gi; (gi = next.fetch_add(1)) < groups.size();) {
      const auto [lo, hi] = groups[gi];
      const Answer& first = answers[lo];
      std::vector<std::string> errors;
      const auto graph = graphs_.find(first.epoch);
      if (graph == graphs_.end()) {
        for (std::size_t i = lo; i < hi; ++i) {
          errors.push_back(describe(answers[i], "stamped with unknown epoch"));
        }
      } else {
        std::vector<Vertex> needed;
        std::size_t k = 0;
        bool full = false;
        for (std::size_t i = lo; i < hi; ++i) {
          const Answer& a = answers[i];
          if (a.kind == Kind::kFull) full = true;
          if (a.kind == Kind::kPoi) k = kPoiK;
          if (a.kind == Kind::kRoute || a.kind == Kind::kMatrix) {
            needed.insert(needed.end(), a.targets.begin(), a.targets.end());
          }
        }
        const Reference ref = dijkstra_until(*graph->second, first.source,
                                              std::move(needed), k, full);
        for (std::size_t i = lo; i < hi; ++i) {
          std::string why = verify(answers[i], *graph->second, ref, skew);
          if (!why.empty()) errors.push_back(std::move(why));
        }
      }
      if (!errors.empty()) {
        const std::lock_guard<std::mutex> lock(result_mu);
        result.mismatches += errors.size();
        for (std::string& e : errors) {
          if (result.examples.size() < 5) result.examples.push_back(e);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return result;
}

}  // namespace pb
