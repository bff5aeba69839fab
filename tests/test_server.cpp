// The serving-daemon contract (serve/server.hpp + serve/request_queue.hpp
// + obs/histogram.hpp):
//
//  * lifecycle — start, drain with requests in flight, shutdown; counters
//    (accepted vs completed) reach equality and every promise is
//    fulfilled, including requests still queued when shutdown is called;
//  * admission control — a full queue rejects with kQueueFull (and only
//    the overflowing request), an out-of-range request with kInvalid
//    (validated at the edge, never coalesced into a batch), a stopped
//    server with kShuttingDown;
//  * teams — N requests queued within one budget are served by ONE team
//    (asserted via ServerStats.batches), max_batch bounds a team, teams
//    are invisible in the answers, each request is answered when its own
//    run ends, and a request that throws in a team fails alone;
//  * histogram — quantiles match a sorted-sample oracle within the
//    documented 1/32 relative error, across magnitudes;
//  * concurrency — many closed-loop clients against multiple batchers
//    produce exact answers and consistent counters;
//  * caching layer — repeats of a cache-eligible request are answered at
//    submit time from the result cache, a parked burst of identical
//    misses resolves to ONE owner plus single-flight waiters, and
//    swap_engine() re-keys cache and oracle for a next_epoch() successor.
//
// The pause/resume hook makes the queue-full and coalescing scenarios
// deterministic: with batchers parked, submissions buffer instead of
// racing the consumer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/radii.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "obs/histogram.hpp"
#include "parallel/primitives.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "shortcut/shortcut.hpp"
#include "test_util.hpp"

namespace rs {
namespace {

using serve::BoundedQueue;
using serve::ServerOptions;
using serve::ServerStats;
using serve::SsspServer;
using serve::SubmitStatus;

SsspEngine small_engine() {
  const Graph g =
      assign_uniform_weights(gen::road_network(12, 12, 3), 7, 1, 100);
  PreprocessOptions opts;
  opts.rho = 12;
  opts.k = 2;
  return SsspEngine(g, opts);
}

/// Restores the worker count a test changed.
struct WorkerGuard {
  int before = num_workers();
  ~WorkerGuard() { set_num_workers(before); }
};

/// A 250x250 weighted road graph served without shortcuts: large enough
/// that a full-distance run keeps a team busy for milliseconds.
Graph wide_road(std::uint64_t weight_seed) {
  return assign_uniform_weights(gen::road_network(250, 250, 4), weight_seed,
                                1, 100);
}
PreprocessResult no_shortcuts(const Graph& g) {
  PreprocessResult pre;
  pre.graph = g;
  pre.radius = constant_radii(g.num_vertices(), 25);
  pre.options.heuristic = ShortcutHeuristic::kNone;
  return pre;
}

/// Waits until `server` has opened `teams` teams (each counted after its
/// engine pin and before its first completion).
void await_teams(const SsspServer& server, std::uint64_t teams) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().batches < teams &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(server.stats().batches, teams);
}

QueryRequest p2p(const SsspEngine& engine, std::uint64_t i) {
  const Vertex n = engine.original_graph().num_vertices();
  QueryRequest req;
  req.source = static_cast<Vertex>((i * 37) % n);
  req.targets = {static_cast<Vertex>((i * 53 + 11) % n)};
  return req;
}

TEST(BoundedQueue, PushPopOrderCapacityAndClose) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full: backpressure, not blocking
  EXPECT_EQ(q.size(), 3u);

  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);  // FIFO
  EXPECT_TRUE(q.try_push(4));  // slot freed

  q.close();
  EXPECT_FALSE(q.try_push(5));  // closed rejects pushes...
  EXPECT_TRUE(q.pop(out));      // ...but buffered items still drain
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.pop(out));
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(q.pop(out));  // closed AND empty
}

TEST(BoundedQueue, TimedPopHonorsDeadline) {
  BoundedQueue<int> q(2);
  int out = 0;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.try_pop_until(
      out, t0 + std::chrono::milliseconds(20)));  // times out empty
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(15));
  ASSERT_TRUE(q.try_push(9));
  EXPECT_TRUE(q.try_pop_until(
      out, std::chrono::steady_clock::now()));  // past deadline, non-blocking
  EXPECT_EQ(out, 9);
}

TEST(BoundedQueue, TeamPopServesArrivalsUntilEveryMemberIsIdle) {
  const auto any = [](int) { return true; };
  BoundedQueue<int> q(8);
  // One seed, held by the test thread (member 0).
  BoundedQueue<int>::Team team(/*limit=*/8, /*held=*/1);
  std::atomic<int> served{0};
  std::thread member1([&] {  // holds nothing: waits for arrivals
    int item = 0;
    while (q.pop_for(team, item, any)) {
      served.fetch_add(1);
      q.finish(team);
    }
  });
  // While member 0 is busy, arrivals go to the idle member at once.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(int{i}));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (served.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(served.load(), 3);
  // Member 0 finishes its seed: the queue is empty and nobody is busy, so
  // the team is over for both members.
  q.finish(team);
  int item = 0;
  EXPECT_FALSE(q.pop_for(team, item, any));
  member1.join();
  EXPECT_EQ(served.load(), 3);

  // A team stops at its limit, leaving the rest queued.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(int{i}));
  BoundedQueue<int>::Team capped(/*limit=*/2, /*held=*/0);
  EXPECT_TRUE(q.pop_for(capped, item, any));
  EXPECT_TRUE(q.pop_for(capped, item, any));
  EXPECT_FALSE(q.pop_for(capped, item, any));
  EXPECT_EQ(q.size(), 3u);

  // A head that does not fit ends the team for good and stays queued for
  // the next consumer.
  BoundedQueue<int>::Team picky(/*limit=*/8, /*held=*/0);
  const auto below_four = [](int head) { return head < 4; };
  EXPECT_TRUE(q.pop_for(picky, item, below_four));
  EXPECT_EQ(item, 2);
  q.finish(picky);
  EXPECT_TRUE(q.pop_for(picky, item, below_four));
  EXPECT_EQ(item, 3);
  q.finish(picky);
  EXPECT_FALSE(q.pop_for(picky, item, below_four));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.pop_for(picky, item, any));  // over is sticky
  ASSERT_TRUE(q.pop(item));
  EXPECT_EQ(item, 4);
}

TEST(Server, DrainWithRequestsInFlightThenShutdown) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;  // everything below queues deterministically
  opts.max_batch = 4;
  SsspServer server(engine, opts);

  constexpr std::uint64_t kRequests = 10;
  std::vector<std::future<QueryResponse>> futures;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    std::future<QueryResponse> fut;
    ASSERT_EQ(server.submit(p2p(engine, i), fut), SubmitStatus::kAccepted);
    futures.push_back(std::move(fut));
  }
  EXPECT_EQ(server.stats().in_flight(), kRequests);

  server.resume();
  server.drain();  // blocks until every admitted request completed
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.in_flight(), 0u);
  EXPECT_EQ(server.latency().count(), kRequests);

  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const QueryResponse got = futures[i].get();
    const QueryResponse want = engine.serve(p2p(engine, i));
    ASSERT_EQ(got.targets.size(), 1u);
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist) << "request " << i;
  }

  server.shutdown();
  std::future<QueryResponse> fut;
  EXPECT_EQ(server.submit(p2p(engine, 0), fut),
            SubmitStatus::kShuttingDown);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

TEST(Server, ShutdownServesRequestsStillQueued) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  SsspServer server(engine, opts);

  std::vector<std::future<QueryResponse>> futures;
  for (std::uint64_t i = 0; i < 6; ++i) {
    std::future<QueryResponse> fut;
    ASSERT_EQ(server.submit(p2p(engine, i), fut), SubmitStatus::kAccepted);
    futures.push_back(std::move(fut));
  }
  // No resume: shutdown itself must unpark the batchers and drain the
  // buffered requests before joining — an accepted request is a promise.
  server.shutdown();
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    const QueryResponse got = futures[i].get();
    const QueryResponse want = engine.serve(p2p(engine, i));
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist) << "request " << i;
  }
  EXPECT_EQ(server.stats().in_flight(), 0u);
}

TEST(Server, FullQueueRejectsOnlyTheOverflow) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.queue_capacity = 4;
  opts.start_paused = true;  // nothing is consumed: capacity is exact
  SsspServer server(engine, opts);

  std::vector<std::future<QueryResponse>> futures(5);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(server.submit(p2p(engine, i), futures[i]),
              SubmitStatus::kAccepted);
  }
  EXPECT_EQ(server.submit(p2p(engine, 4), futures[4]),
            SubmitStatus::kQueueFull);
  EXPECT_EQ(server.stats().rejected_full, 1u);
  EXPECT_EQ(server.stats().accepted, 4u);

  server.resume();
  server.drain();
  for (std::uint64_t i = 0; i < 4; ++i) {  // admitted ones are unaffected
    const QueryResponse got = futures[i].get();
    const QueryResponse want = engine.serve(p2p(engine, i));
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist);
  }
}

TEST(Server, InvalidRequestRejectedAtAdmission) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  SsspServer server(engine, opts);

  QueryRequest bad;
  bad.source = engine.original_graph().num_vertices();  // out of range
  std::future<QueryResponse> fut;
  EXPECT_EQ(server.submit(std::move(bad), fut), SubmitStatus::kInvalid);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  EXPECT_EQ(server.stats().accepted, 0u);  // nothing entered the queue

  QueryRequest bad_target = p2p(engine, 1);
  bad_target.targets.push_back(engine.original_graph().num_vertices() + 7);
  EXPECT_EQ(server.submit(std::move(bad_target), fut),
            SubmitStatus::kInvalid);

  // A valid request after the rejects is served normally.
  ASSERT_EQ(server.submit(p2p(engine, 2), fut), SubmitStatus::kAccepted);
  server.resume();
  EXPECT_EQ(fut.get().targets[0].dist,
            engine.serve(p2p(engine, 2)).targets[0].dist);
}

TEST(Server, TinyRequestsWithinBudgetCoalesceIntoOneBatch) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  opts.max_batch = 32;
  // Zero budget: the batcher never waits — with everything queued before
  // resume, one team drains the whole buffer, deterministically.
  opts.batch_budget = std::chrono::microseconds(0);
  opts.batchers = 1;
  SsspServer server(engine, opts);

  constexpr std::uint64_t kRequests = 12;
  std::vector<std::future<QueryResponse>> futures(kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(server.submit(p2p(engine, i), futures[i]),
              SubmitStatus::kAccepted);
  }
  server.resume();
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u) << "coalescing failed: " << stats.batches
                               << " teams for " << kRequests
                               << " buffered requests";
  EXPECT_EQ(stats.max_batch, kRequests);
  EXPECT_DOUBLE_EQ(stats.mean_batch(), static_cast<double>(kRequests));
  for (std::uint64_t i = 0; i < kRequests; ++i) {  // coalescing is invisible
    EXPECT_EQ(futures[i].get().targets[0].dist,
              engine.serve(p2p(engine, i)).targets[0].dist);
  }
}

TEST(Server, MaxBatchBoundsCoalescing) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.start_paused = true;
  opts.max_batch = 4;
  opts.batch_budget = std::chrono::microseconds(0);
  opts.batchers = 1;
  SsspServer server(engine, opts);

  std::vector<std::future<QueryResponse>> futures(10);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(server.submit(p2p(engine, i), futures[i]),
              SubmitStatus::kAccepted);
  }
  server.resume();
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.batches, 3u);  // 4 + 4 + 2
}

TEST(Server, RequestFailingInATeamFailsAlone) {
  // A request admitted under one engine can become invalid under the
  // successor a swap publishes before its team pins: here an unweighted-
  // engine request meets a graph that has gained shortcuts. It must fail
  // its own future only; its team-mates are answered exactly.
  const Graph g = gen::road_network(12, 12, 3);  // unit weights
  PreprocessOptions plain;
  plain.heuristic = ShortcutHeuristic::kNone;
  auto first = std::make_shared<const SsspEngine>(g, plain);
  PreprocessOptions shortcuts;
  shortcuts.rho = 12;
  shortcuts.k = 2;
  auto second = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*first, g, preprocess(g, shortcuts)));

  QueryRequest unweighted = p2p(*first, 0);
  unweighted.engine = QueryEngine::kUnweighted;
  first->validate(unweighted);
  ASSERT_THROW(second->validate(unweighted), std::invalid_argument);

  ServerOptions opts;
  opts.start_paused = true;
  opts.batch_budget = std::chrono::microseconds(0);
  SsspServer server(first, opts);
  std::future<QueryResponse> bad;
  ASSERT_EQ(server.submit(unweighted, bad), SubmitStatus::kAccepted);
  std::vector<std::future<QueryResponse>> mates(5);
  for (std::uint64_t i = 0; i < mates.size(); ++i) {
    ASSERT_EQ(server.submit(p2p(*first, i + 1), mates[i]),
              SubmitStatus::kAccepted);
  }
  server.swap_engine(second);
  server.resume();
  server.drain();

  EXPECT_THROW(bad.get(), std::invalid_argument);
  for (std::uint64_t i = 0; i < mates.size(); ++i) {
    const QueryResponse got = mates[i].get();
    EXPECT_EQ(got.graph_epoch, 2u);
    EXPECT_EQ(got.targets[0].dist,
              second->serve(p2p(*first, i + 1)).targets[0].dist);
  }
  EXPECT_EQ(server.stats().completed, 1 + mates.size());
  EXPECT_EQ(server.stats().batches, 1u);
}

TEST(Server, RequestAdmittedAfterASwapNeverRunsOnTheOldEpoch) {
  // A team is open on epoch 1: two slow full-distance seeds keep two
  // workers busy while the third idles on the queue. A swap publishes
  // epoch 2, then a cacheable owner and a direct path request arrive. The
  // idle worker must not take them onto the old snapshot: both are
  // answered on epoch 2, and the row the owner publishes answers a later
  // cache hit with epoch 2's distances.
  WorkerGuard guard;
  set_num_workers(3);
  const Graph g1 = wide_road(5);
  const Graph g2 = wide_road(6);  // same roads, new weights
  auto first = std::make_shared<const SsspEngine>(g1, no_shortcuts(g1));
  auto second = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*first, g2, no_shortcuts(g2)));

  const Vertex n = g1.num_vertices();
  QueryRequest owner;  // cacheable: targets, no paths
  owner.source = n / 3;
  owner.targets = {n - 1};
  QueryRequest direct = owner;  // paths bypass the cache
  direct.source = n / 4;
  direct.want_paths = true;
  QueryRequest hit = owner;  // a later request on the owner's row
  hit.targets = {0, n / 2};
  ASSERT_NE(first->serve(owner).targets[0].dist,
            second->serve(owner).targets[0].dist);

  ServerOptions opts;
  opts.start_paused = true;
  opts.batch_budget = std::chrono::microseconds(0);
  opts.enable_cache = true;
  SsspServer server(first, opts);
  std::vector<std::future<QueryResponse>> slow(2);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    ASSERT_EQ(server.submit(test::full_request(static_cast<Vertex>(i)),
                            slow[i]),
              SubmitStatus::kAccepted);
  }
  server.resume();
  await_teams(server, 1);

  server.swap_engine(second);
  std::future<QueryResponse> owner_fut, direct_fut;
  ASSERT_EQ(server.submit(owner, owner_fut), SubmitStatus::kAccepted);
  ASSERT_EQ(server.submit(direct, direct_fut), SubmitStatus::kAccepted);
  server.drain();

  for (std::future<QueryResponse>& f : slow) {
    EXPECT_EQ(f.get().graph_epoch, 1u);  // pinned before the swap
  }
  const QueryResponse o = owner_fut.get();
  EXPECT_FALSE(o.served_from_cache);
  EXPECT_EQ(o.graph_epoch, 2u);
  EXPECT_EQ(o.targets[0].dist, second->serve(owner).targets[0].dist);
  const QueryResponse d = direct_fut.get();
  EXPECT_EQ(d.graph_epoch, 2u);
  EXPECT_EQ(d.targets[0].dist, second->serve(direct).targets[0].dist);
  EXPECT_EQ(d.targets[0].path, second->serve(direct).targets[0].path);

  const QueryResponse h = server.serve_sync(hit);
  EXPECT_TRUE(h.served_from_cache);
  const QueryResponse expect = second->serve(hit);
  ASSERT_EQ(h.targets.size(), expect.targets.size());
  for (std::size_t i = 0; i < h.targets.size(); ++i) {
    EXPECT_EQ(h.targets[i].dist, expect.targets[i].dist) << "target " << i;
  }
}

TEST(Server, PauseStopsARunningTeamTakingRequests) {
  // pause() while a team is open: the team finishes what it holds but
  // takes nothing more from the queue until resume().
  WorkerGuard guard;
  set_num_workers(3);
  const Graph g = wide_road(7);
  const SsspEngine engine(g, no_shortcuts(g));
  ServerOptions opts;
  opts.start_paused = true;
  opts.batch_budget = std::chrono::microseconds(0);
  SsspServer server(engine, opts);
  std::vector<std::future<QueryResponse>> slow(2);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    ASSERT_EQ(server.submit(test::full_request(static_cast<Vertex>(i)),
                            slow[i]),
              SubmitStatus::kAccepted);
  }
  server.resume();
  await_teams(server, 1);

  server.pause();
  std::future<QueryResponse> later;
  ASSERT_EQ(server.submit(p2p(engine, 1), later), SubmitStatus::kAccepted);
  for (std::future<QueryResponse>& f : slow) f.get();
  EXPECT_EQ(later.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "a paused server's team took a request";
  server.resume();
  EXPECT_EQ(later.get().targets[0].dist,
            engine.serve(p2p(engine, 1)).targets[0].dist);
  EXPECT_EQ(server.stats().batches, 2u);
}

TEST(Server, ServeSyncThrowsOnRejection) {
  const SsspEngine engine = small_engine();
  SsspServer server(engine, {});
  server.shutdown();
  EXPECT_THROW(server.serve_sync(p2p(engine, 0)), std::runtime_error);
}

TEST(Server, ConcurrentClientsAgainstMultipleBatchersStayExact) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.max_batch = 8;
  opts.batch_budget = std::chrono::microseconds(100);
  opts.batchers = 3;
  SsspServer server(engine, opts);

  constexpr int kClients = 8;
  constexpr std::uint64_t kPerClient = 25;
  // References computed up front: the client loops must not touch the
  // engine directly while the daemon is serving.
  std::vector<Dist> want(kClients * kPerClient);
  for (std::uint64_t i = 0; i < want.size(); ++i) {
    want[i] = engine.serve(p2p(engine, i)).targets[0].dist;
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * kPerClient + i;
        const QueryResponse got = server.serve_sync(p2p(engine, id));
        if (got.targets[0].dist != want[id]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();

  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(server.latency().count(), kClients * kPerClient);
  EXPECT_GE(stats.batches, 1u);
}

TEST(Server, CacheAnswersRepeatsAtSubmitTime) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);

  QueryRequest req = p2p(engine, 5);
  const QueryResponse first = server.serve_sync(req);
  EXPECT_FALSE(first.served_from_cache);
  const QueryResponse second = server.serve_sync(req);
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(second.targets[0].dist, first.targets[0].dist);
  EXPECT_EQ(second.graph_epoch, first.graph_epoch);

  // serve_sync returns on promise fulfillment, which can race ahead of
  // the completion counter by an instant; drain() closes the gap.
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 2u);  // hits still count as completions

  // Path requests bypass the cache entirely (expansion needs the engine).
  QueryRequest paths = req;
  paths.want_paths = true;
  const QueryResponse third = server.serve_sync(paths);
  EXPECT_FALSE(third.served_from_cache);
  EXPECT_EQ(third.targets[0].dist, first.targets[0].dist);
  const ServerStats after = server.stats();
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.cache_misses, 1u);
}

TEST(Server, CacheSingleFlightDeduplicatesABurstOfMisses) {
  // With the batchers parked, 8 identical requests are admitted before
  // any serving happens: the first must become the sole cache OWNER and
  // the other 7 single-flight WAITERS — one engine computation total.
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  opts.start_paused = true;
  SsspServer server(engine, opts);

  const QueryRequest req = p2p(engine, 11);
  const QueryResponse want = engine.serve(req);
  std::vector<std::future<QueryResponse>> futures(8);
  for (auto& fut : futures) {
    ASSERT_EQ(server.submit(req, fut), SubmitStatus::kAccepted);
  }
  const auto flight = server.cache_stats();
  EXPECT_EQ(flight.misses, 1u);
  EXPECT_EQ(flight.single_flight_waits, 7u);
  EXPECT_EQ(flight.hits, 0u);

  server.resume();
  for (auto& fut : futures) {
    const QueryResponse got = fut.get();
    EXPECT_EQ(got.targets[0].dist, want.targets[0].dist);
  }
  server.drain();
  EXPECT_EQ(server.stats().completed, 8u);

  // The row is resident now: a ninth request is a submit-time hit.
  const QueryResponse ninth = server.serve_sync(req);
  EXPECT_TRUE(ninth.served_from_cache);
  EXPECT_EQ(server.cache_stats().hits, 1u);
}

TEST(Server, OnGraphReplacedRefreshesCacheAndOracle) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 7, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  const SsspEngine engine(g1, popts);
  ServerOptions opts;
  opts.enable_cache = true;
  opts.enable_landmarks = true;
  SsspServer server(engine, opts);  // non-owning: the caller keeps engine
  ASSERT_NE(server.oracle(), nullptr);
  EXPECT_EQ(server.oracle()->graph_epoch(), 1u);

  const QueryRequest req = p2p(engine, 3);
  (void)server.serve_sync(req);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);

  // A server built over a borrowed engine takes an owned successor at a
  // quiescent point (paused and drained) just as it does mid-traffic.
  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 8, 1, 100);
  auto next = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(engine, g2, preprocess(g2, popts)));
  server.pause();
  server.drain();
  server.swap_engine(next);
  server.resume();
  EXPECT_EQ(server.oracle()->graph_epoch(), 2u);

  // The old row no longer matches: fresh compute, stamped with the new
  // epoch, equal to a direct engine serve on the new graph.
  const QueryResponse after = server.serve_sync(req);
  EXPECT_FALSE(after.served_from_cache);
  EXPECT_EQ(after.graph_epoch, 2u);
  EXPECT_EQ(after.targets[0].dist, next->serve(req).targets[0].dist);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);
  // The borrowed engine is untouched and still answers for the old graph.
  EXPECT_EQ(engine.serve(req).graph_epoch, 1u);
}

TEST(Server, FormatStatsLinePrintsEveryCounter) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);
  const QueryRequest req = p2p(engine, 2);
  (void)server.serve_sync(req);
  (void)server.serve_sync(req);  // submit-time cache hit
  server.drain();

  const std::string line = serve::format_stats_line(server);
  // Every ServerStats counter must appear as a name=value token — the
  // fixture test of the daemon's `stats` verb rides on this line too.
  for (const char* token :
       {"accepted=2", "completed=2", "shed=0", "invalid=0", "shutdown=0",
        "batches=", "mean_batch=", "max_batch=", "cache_hits=1",
        "cache_misses=1", "lower_bound_exits=", "epoch=1", "swaps=0",
        "in_flight=0", "p50_us=", "p99_us=", "p999_us="}) {
    EXPECT_NE(line.find(token), std::string::npos)
        << "missing " << token << " in: " << line;
  }
}

TEST(Server, SwapEngineRepublishesWithoutQuiescence) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 7, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  auto first = std::make_shared<const SsspEngine>(g1, popts);
  ServerOptions opts;
  opts.enable_cache = true;
  opts.enable_landmarks = true;
  SsspServer server(first, opts);
  ASSERT_NE(server.oracle(), nullptr);
  EXPECT_EQ(server.oracle()->graph_epoch(), 1u);

  const QueryRequest req = p2p(*first, 3);
  (void)server.serve_sync(req);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);
  EXPECT_EQ(server.stats().epoch, 1u);

  // Publish a successor mid-traffic: no pause, no drain.
  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 8, 1, 100);
  auto second = std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*first, g2, preprocess(g2, popts)));
  server.swap_engine(second);

  EXPECT_EQ(server.stats().epoch, 2u);
  EXPECT_EQ(server.stats().swaps, 1u);
  EXPECT_EQ(server.engine_snapshot()->graph_epoch(), 2u);
  EXPECT_EQ(server.oracle()->graph_epoch(), 2u);

  // The epoch-1 row cannot answer epoch-2 traffic; the fresh answer is
  // exact for the new graph and re-cacheable.
  const QueryResponse after = server.serve_sync(req);
  EXPECT_FALSE(after.served_from_cache);
  EXPECT_EQ(after.graph_epoch, 2u);
  EXPECT_EQ(after.targets[0].dist, second->serve(req).targets[0].dist);
  EXPECT_TRUE(server.serve_sync(req).served_from_cache);
}

TEST(Server, EngineSnapshotKeepsOldEpochAliveAcrossSwap) {
  const Graph g1 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 9, 1, 100);
  PreprocessOptions popts;
  popts.rho = 12;
  popts.k = 2;
  auto first = std::make_shared<const SsspEngine>(g1, popts);
  SsspServer server(first, {});
  const std::shared_ptr<const SsspEngine> pinned = server.engine_snapshot();
  first.reset();  // server + pin now hold the only references

  const Graph g2 =
      assign_uniform_weights(gen::road_network(12, 12, 3), 10, 1, 100);
  server.swap_engine(std::make_shared<const SsspEngine>(
      SsspEngine::next_epoch(*pinned, g2, preprocess(g2, popts))));

  // The pre-swap pin still serves the old epoch's answers.
  EXPECT_EQ(pinned->graph_epoch(), 1u);
  const QueryRequest req = p2p(*pinned, 5);
  EXPECT_EQ(pinned->serve(req).graph_epoch, 1u);
  EXPECT_EQ(server.engine_snapshot()->graph_epoch(), 2u);
}

TEST(LatencyHistogram, BucketRoundTripBoundsRelativeError) {
  // Every value lands in a bucket whose upper bound is >= the value and
  // within the documented 1/32 relative error of it.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 300; ++v) values.push_back(v);
  for (std::uint64_t v = 300; v < (1ull << 40); v = v * 3 + 1) {
    values.push_back(v);
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  for (const std::uint64_t v : values) {
    const std::size_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets) << v;
    const std::uint64_t upper = obs::Histogram::bucket_upper(idx);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v),
              static_cast<double>(v) / 32.0 + 1.0)
        << "value " << v << " bucket " << idx << " upper " << upper;
  }
}

TEST(LatencyHistogram, QuantilesMatchSortedSampleOracle) {
  // Record a deterministic skewed sample, then compare every quantile
  // against the exact order statistic from the sorted samples.
  obs::Histogram hist;
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Mostly small values with a long tail — the shape of a latency
    // distribution under micro-batching.
    const std::uint64_t v =
        (i % 10 == 0) ? 1000 + x % 100000 : 50 + x % 400;
    samples.push_back(v);
    hist.record(v);
  }
  ASSERT_EQ(hist.count(), samples.size());
  std::sort(samples.begin(), samples.end());

  const auto snap = hist.snapshot();
  for (const double q : {0.0, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const std::uint64_t rank_raw = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::uint64_t rank = rank_raw == 0 ? 1 : rank_raw;
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t est = snap.value_at_quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;  // bucket upper bound: never under
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) * (1.0 + 1.0 / 32.0) + 1.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, EmptyAndResetReportZero) {
  obs::Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.value_at_quantile(0.99), 0u);
  hist.record(123);
  const std::uint64_t bucket =
      obs::Histogram::bucket_upper(obs::Histogram::bucket_index(123));
  EXPECT_EQ(hist.value_at_quantile(0.5), bucket);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.value_at_quantile(0.5), 0u);
}

TEST(Observability, StatsRegistryAndExpositionReadTheSameCells) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  SsspServer server(engine, opts);
  const QueryRequest req = p2p(engine, 4);
  (void)server.serve_sync(req);
  (void)server.serve_sync(req);  // cache hit
  server.drain();

  // One source of truth: ServerStats, the raw registry handles, and the
  // Prometheus exposition must all report the same numbers.
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(
      server.metrics().counter("rs_requests_accepted_total").value(), 2u);
  EXPECT_EQ(server.metrics().counter("rs_cache_hits_total").value(),
            s.cache_hits);
  EXPECT_EQ(server.metrics().counter("rs_cache_misses_total").value(),
            s.cache_misses);

  const std::string text = server.export_metrics();
  EXPECT_NE(text.find("rs_requests_accepted_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("rs_requests_completed_total 2"), std::string::npos);
  EXPECT_NE(text.find("rs_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("rs_graph_epoch 1"), std::string::npos);
  EXPECT_NE(text.find("rs_in_flight 0"), std::string::npos);
  EXPECT_NE(text.find("rs_request_latency_us_count 2"), std::string::npos);

  const std::string json =
      server.export_metrics(serve::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"name\":\"rs_requests_accepted_total\""),
            std::string::npos);
}

TEST(Observability, TraceSampleOneSpansTileEndToEndLatency) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.trace_sample = 1;
  SsspServer server(engine, opts);

  const QueryResponse resp = server.serve_sync(p2p(engine, 6));
  server.drain();

  ASSERT_TRUE(resp.trace.enabled);
  ASSERT_GE(resp.trace.size, 5u);  // the five stations (+ engine detail)
  const obs::SpanId want[] = {obs::SpanId::kAdmission,
                              obs::SpanId::kQueueWait,
                              obs::SpanId::kBatchForm, obs::SpanId::kEngine,
                              obs::SpanId::kRespond};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(resp.trace.spans[i].id, want[i]) << i;
    EXPECT_EQ(resp.trace.spans[i].depth, 0u);
  }
  // Stations tile [admission, completion] contiguously.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(resp.trace.spans[i].start_ns,
              resp.trace.spans[i - 1].start_ns +
                  resp.trace.spans[i - 1].duration_ns);
  }
  // Any engine-phase detail is depth 1 and fits inside the engine span.
  for (std::size_t i = 5; i < resp.trace.size; ++i) {
    EXPECT_EQ(resp.trace.spans[i].depth, 1u);
  }

  // Acceptance: span durations sum to the e2e latency within 10%. The
  // histogram quantile is a bucket UPPER bound (<= 1/32 high), so compare
  // against it with that error plus 2us of truncation slack.
  const double spans_us =
      static_cast<double>(resp.trace.station_total_ns()) / 1000.0;
  const auto p100 =
      static_cast<double>(server.latency().value_at_quantile(1.0));
  EXPECT_LE(spans_us, p100 + 2.0);
  EXPECT_GE(spans_us, p100 / (1.0 + 1.0 / 32.0) - 2.0);
  EXPECT_EQ(server.stats().traced, 1u);
}

TEST(Observability, TeamAnswersEachRequestWhenItsOwnRunEnds) {
  // One team of two workers holds a full-distance request on a large
  // graph and a top-k request. The top-k answer must not wait for its
  // slow team-mate: it completes before the full run's engine span ends,
  // and its own engine span is the shorter one. Both are read from the
  // traces, so the check does not race the test thread; a few attempts
  // ride out a host that descheduled the fast worker.
  WorkerGuard guard;
  set_num_workers(2);
  const Graph g = wide_road(3);
  const SsspEngine engine(g, no_shortcuts(g));

  QueryRequest full;
  full.source = 0;
  full.want_full_distances = true;
  QueryRequest topk;
  topk.source = g.num_vertices() / 2;
  topk.kind = RequestKind::kTopK;
  topk.k = 4;

  const auto span = [](const QueryResponse& r, obs::SpanId id) {
    for (std::size_t i = 0; i < r.trace.size; ++i) {
      if (r.trace.spans[i].id == id) return r.trace.spans[i];
    }
    ADD_FAILURE() << "no span " << obs::to_string(id);
    return obs::TraceSpan{};
  };
  const auto end_ns = [](const QueryResponse& r, const obs::TraceSpan& s) {
    return r.trace.origin_ns + s.start_ns + s.duration_ns;
  };
  bool answered_early = false;
  for (int attempt = 0; attempt < 5 && !answered_early; ++attempt) {
    ServerOptions opts;
    opts.start_paused = true;
    opts.batch_budget = std::chrono::microseconds(0);
    opts.trace_sample = 1;
    SsspServer server(engine, opts);
    std::future<QueryResponse> full_fut, topk_fut;
    ASSERT_EQ(server.submit(full, full_fut), SubmitStatus::kAccepted);
    ASSERT_EQ(server.submit(topk, topk_fut), SubmitStatus::kAccepted);
    server.resume();
    const QueryResponse t = topk_fut.get();
    const QueryResponse f = full_fut.get();
    server.drain();
    ASSERT_EQ(server.stats().batches, 1u);  // one team held both
    ASSERT_EQ(t.targets.size(), 4u);
    ASSERT_EQ(f.dist.size(), g.num_vertices());
    const obs::TraceSpan t_engine = span(t, obs::SpanId::kEngine);
    const obs::TraceSpan f_engine = span(f, obs::SpanId::kEngine);
    answered_early =
        end_ns(t, span(t, obs::SpanId::kRespond)) < end_ns(f, f_engine) &&
        t_engine.duration_ns < f_engine.duration_ns;
  }
  EXPECT_TRUE(answered_early)
      << "the top-k answer waited for its team-mate's full run";
}

TEST(Observability, TraceSamplingSelectsEveryNthRequest) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.trace_sample = 2;
  SsspServer server(engine, opts);

  int traced = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    if (server.serve_sync(p2p(engine, i)).trace.enabled) ++traced;
  }
  server.drain();
  EXPECT_EQ(traced, 3);  // sequence 0, 2, 4
  EXPECT_EQ(server.stats().traced, 3u);

  // Untraced requests carry an empty, disabled buffer.
  SsspServer untraced(engine, {});
  const QueryResponse resp = untraced.serve_sync(p2p(engine, 1));
  EXPECT_FALSE(resp.trace.enabled);
  EXPECT_EQ(resp.trace.size, 0u);
  EXPECT_EQ(untraced.stats().traced, 0u);
}

TEST(Observability, CacheHitTraceIsOneSynchronousSpan) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.enable_cache = true;
  opts.trace_sample = 1;
  SsspServer server(engine, opts);

  const QueryRequest req = p2p(engine, 9);
  (void)server.serve_sync(req);  // owner: computes + caches
  const QueryResponse hit = server.serve_sync(req);
  server.drain();

  ASSERT_TRUE(hit.served_from_cache);
  ASSERT_TRUE(hit.trace.enabled);
  ASSERT_EQ(hit.trace.size, 1u);
  EXPECT_EQ(hit.trace.spans[0].id, obs::SpanId::kCacheHit);
  EXPECT_EQ(hit.trace.spans[0].depth, 0u);
}

TEST(Observability, SlowQueryThresholdCountsSlowRequests) {
  const SsspEngine engine = small_engine();
  ServerOptions opts;
  opts.slow_query_us = 1;  // everything is "slow": the counter must move
  SsspServer server(engine, opts);
  (void)server.serve_sync(p2p(engine, 3));
  server.drain();
  EXPECT_EQ(server.stats().slow_queries, 1u);
  EXPECT_NE(server.export_metrics().find("rs_slow_queries_total 1"),
            std::string::npos);

  // A sky-high threshold never fires.
  SsspServer quiet(engine, {});  // slow_query_us = 0: disabled
  (void)quiet.serve_sync(p2p(engine, 3));
  quiet.drain();
  EXPECT_EQ(quiet.stats().slow_queries, 0u);
}

}  // namespace
}  // namespace rs
