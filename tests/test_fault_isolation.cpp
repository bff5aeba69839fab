// One request that throws inside a serving team fails alone.
//
// The seam is the replaceable global allocator ([new.delete]): while a
// worker thread is armed, its first allocation of kFailBytes or more
// throws std::bad_alloc. A test RequestFeed decides which worker runs
// which request, and arms the worker that runs the faulty one. That
// request wants a path, so on a warm context the first large allocation
// is the path's growth in run_serve — after the engine run has written
// distances into the worker's pooled context. Pinned, per engine:
//  * the process survives, and only the faulty request reports an error;
//  * its team-mates are answered exactly (== Dijkstra);
//  * the next query on the same pooled context equals Dijkstra, because
//    run_serve's unwind guard restored the context's all-infinite
//    invariant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <new>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "test_util.hpp"

namespace {

// 16 path vertices: reached only by a path's growth on a warm context
// (a one-target response's `targets` array is smaller).
constexpr std::size_t kFailBytes = 64;
thread_local bool t_armed = false;

void* faulty_malloc(std::size_t size) {
  if (t_armed && size >= kFailBytes) {
    t_armed = false;  // one fault per arming
    throw std::bad_alloc();
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return faulty_malloc(size); }
void* operator new[](std::size_t size) { return faulty_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rs {
namespace {

constexpr int kWorkers = 3;

struct WorkerGuard {
  int before = num_workers();
  ~WorkerGuard() { set_num_workers(before); }
};

/// One planned request and what became of it.
struct Job {
  QueryRequest req;
  bool fault = false;  // arm the allocator fault for this run
  bool ran = false;
  QueryResponse resp;
  std::exception_ptr error;
};

/// Hands worker w exactly the jobs planned for it, in order, then null.
class PlannedFeed final : public RequestFeed {
 public:
  explicit PlannedFeed(std::vector<std::vector<Job>> plan)
      : RequestFeed(false), plan_(std::move(plan)), pos_(plan_.size(), 0) {}

  const QueryRequest* next(int worker) noexcept override {
    const auto w = static_cast<std::size_t>(worker);
    if (w >= plan_.size() || pos_[w] >= plan_[w].size()) return nullptr;
    Job& job = plan_[w][pos_[w]];
    t_armed = job.fault;
    return &job.req;
  }

  void done(int worker, QueryResponse& resp,
            std::exception_ptr error) noexcept override {
    t_armed = false;
    const auto w = static_cast<std::size_t>(worker);
    Job& job = plan_[w][pos_[w]++];
    job.ran = true;
    job.resp = std::move(resp);
    job.error = error;
  }

  const Job& job(int worker, std::size_t i) const {
    return plan_[static_cast<std::size_t>(worker)][i];
  }

 private:
  std::vector<std::vector<Job>> plan_;
  std::vector<std::size_t> pos_;
};

QueryRequest path_request(Vertex source, Vertex target, QueryEngine qe) {
  QueryRequest req;
  req.source = source;
  req.targets = {target};
  req.want_paths = true;
  req.engine = qe;
  return req;
}

/// Worker w runs a path request from source 3w to the far corner.
std::vector<std::vector<Job>> round_plan(Vertex n, QueryEngine qe,
                                         bool fault_worker0) {
  std::vector<std::vector<Job>> plan(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    Job job;
    job.req = path_request(static_cast<Vertex>(3 * w), n - 1, qe);
    job.fault = fault_worker0 && w == 0;
    plan[static_cast<std::size_t>(w)].push_back(std::move(job));
  }
  return plan;
}

TEST(FaultIsolation, ThrowInTeamFailsOnlyItsRequestAndResetsTheContext) {
  WorkerGuard guard;
  set_num_workers(kWorkers);
  const Graph g =
      assign_uniform_weights(gen::road_network(24, 24, 5), 9, 1, 100);
  const Vertex n = g.num_vertices();
  PreprocessOptions opts;
  opts.rho = 8;
  opts.k = 2;
  const SsspEngine engine(g, opts);
  const std::vector<Dist> far = dijkstra(g, n - 1);

  for (const QueryEngine qe : {QueryEngine::kFlat, QueryEngine::kBst}) {
    SCOPED_TRACE(qe == QueryEngine::kFlat ? "flat" : "bst");
    // Warm-up: every worker's pooled context runs the exact request it
    // will run again below, so that run allocates nothing in the engine.
    PlannedFeed warm(round_plan(n, qe, false));
    engine.serve_stream(warm);
    for (int w = 0; w < kWorkers; ++w) {
      ASSERT_TRUE(warm.job(w, 0).ran) << "the team ran narrower than "
                                      << kWorkers << " workers";
      ASSERT_EQ(warm.job(w, 0).error, nullptr);
      ASSERT_GE(warm.job(w, 0).resp.targets[0].path.size(), 17u)
          << "the path must outgrow kFailBytes";
    }

    PlannedFeed faulty(round_plan(n, qe, true));
    engine.serve_stream(faulty);
    const Job& bad = faulty.job(0, 0);
    ASSERT_TRUE(bad.ran);
    ASSERT_NE(bad.error, nullptr);
    EXPECT_THROW(std::rethrow_exception(bad.error), std::bad_alloc);
    for (int w = 1; w < kWorkers; ++w) {
      const Job& mate = faulty.job(w, 0);
      ASSERT_TRUE(mate.ran);
      ASSERT_EQ(mate.error, nullptr);
      EXPECT_EQ(mate.resp.targets[0].dist, far[mate.req.source]);
      EXPECT_EQ(mate.resp.targets[0].path.front(), mate.req.source);
    }

    // The context that threw serves the next query exactly.
    std::vector<std::vector<Job>> plan(1);
    plan[0].emplace_back().req = test::full_request(n / 2, qe);
    PlannedFeed after(std::move(plan));
    engine.serve_stream(after);
    ASSERT_TRUE(after.job(0, 0).ran);
    ASSERT_EQ(after.job(0, 0).error, nullptr);
    EXPECT_EQ(after.job(0, 0).resp.dist, dijkstra(g, n / 2));
  }
}

}  // namespace
}  // namespace rs
