// Correctness gate: every checked answer is compared with Dijkstra on the
// original graph of the epoch the answer was stamped with.
//
//  * distances equal the reference;
//  * a top-k answer equals the sorted (dist, vertex) prefix;
//  * a route's path is walked edge by edge on the original graph, starts
//    at the source, ends at the target and sums to its distance;
//  * a full answer's distance vector equals the reference (compared by a
//    64-bit hash, so runs need not keep O(n) rows per request).
//
// The reference is the benchmark's own Dijkstra, independent of the
// library under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "workload.hpp"

namespace pb {

/// What the program answered, copied out of a QueryResponse.
struct Answer {
  std::uint64_t id = 0;
  Kind kind = Kind::kRoute;
  Vertex source = 0;
  std::uint64_t epoch = 0;
  /// Requested targets (route, matrix) or the ranked vertices (poi).
  std::vector<Vertex> targets;
  /// Distances parallel to `targets`.
  std::vector<Dist> dists;
  /// The route's path (route only).
  std::vector<Vertex> path;
  /// Hash and length of the full distance vector (full only).
  std::uint64_t full_hash = 0;
  std::size_t full_size = 0;
  /// The response did not have the request's shape.
  bool malformed = false;
};

/// Copies what the checks need out of one response to request `req`.
Answer capture(std::uint64_t id, Kind kind, const rs::QueryRequest& req,
               const rs::QueryResponse& resp);

/// Hash of a distance vector, as stored in Answer::full_hash.
std::uint64_t hash_distances(const std::vector<Dist>& dist);

/// The deterministic sample: true for request ids whose answers are
/// checked when only a share of them is.
bool in_check_sample(std::uint64_t id, double share);

/// Collects answers and the graph of each epoch, then checks them.
class Checker {
 public:
  /// Registers the original graph that epoch `epoch` serves.
  void add_graph(std::uint64_t epoch, std::shared_ptr<const Graph> graph);
  /// Queues one answer for checking. Thread-safe.
  void add(Answer answer);

  struct Result {
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> examples;  ///< first few mismatch reasons
  };
  /// Checks every queued answer on `threads` threads and clears the queue.
  /// `skew` is added to every reference distance: 0 for real runs, nonzero
  /// only in the self-test that proves the gate trips.
  Result run(int threads, Dist skew = 0);

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<const Graph>> graphs_;
  std::vector<Answer> answers_;
};

}  // namespace pb
