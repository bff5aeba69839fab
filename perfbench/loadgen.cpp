#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <utility>

#include "graph/update.hpp"

namespace pb {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double trimmed_mean(std::vector<double> values, double keep) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(keep * static_cast<double>(values.size())));
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += values[i];
  return sum / static_cast<double>(count);
}

std::size_t request_count(const PhaseSpec& spec) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(spec.rate * spec.seconds)));
}

namespace {

// How long after the sending window a request may still complete before it
// counts as failed (it missed the run's deadline).
constexpr auto kGrace = std::chrono::seconds(3);
// After that, how long the completion thread still waits for stragglers
// before declaring the server hung.
constexpr auto kHangLimit = std::chrono::seconds(30);

struct InFlight {
  std::uint64_t index = 0;
  Clock::time_point due;
  std::future<rs::QueryResponse> future;
};

}  // namespace

PhaseResult run_open_loop(rs::serve::SsspServer& server,
                          const RequestStream& stream, const PhaseSpec& spec,
                          Checker* checker, const ResponseHook& hook) {
  const std::size_t count = request_count(spec);
  std::vector<rs::QueryRequest> requests(count);
  std::vector<Kind> kinds(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i] = stream.request(spec.id_base + i);
    kinds[i] = stream.kind(spec.id_base + i);
  }
  const bool keep_requests = checker != nullptr;

  PhaseResult r;
  r.attempted = count;
  r.lateness_ms.reserve(count);
  r.latency_ms.reserve(count);
  const rs::serve::ServerStats before = server.stats();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool sending_done = false;
  std::atomic<std::uint64_t> completed{0};
  std::mutex result_mu;  // latency_ms and failure counts
  Clock::time_point last_completion;

  const auto record = [&](std::uint64_t index, Clock::time_point due,
                          std::future<rs::QueryResponse>& fut) {
    try {
      rs::QueryResponse resp = fut.get();
      const Clock::time_point done = Clock::now();
      const std::uint64_t id = spec.id_base + index;
      if (checker != nullptr && in_check_sample(id, spec.check_share)) {
        checker->add(capture(id, kinds[index], requests[index], resp));
      }
      if (hook) hook(id, resp);
      const std::lock_guard<std::mutex> lock(result_mu);
      r.latency_ms.push_back(ms_between(due, done));
      last_completion = std::max(last_completion, done);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                   static_cast<unsigned long long>(spec.id_base + index),
                   e.what());
      const std::lock_guard<std::mutex> lock(result_mu);
      ++r.errors;
    }
    completed.fetch_add(1, std::memory_order_relaxed);
  };

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.rate));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point deadline =
      t0 + interval * static_cast<long>(count) + kGrace;
  last_completion = t0;

  std::thread completion([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      if (item.future.wait_until(deadline) != std::future_status::ready) {
        {
          const std::lock_guard<std::mutex> lock(result_mu);
          ++r.late;
        }
        if (item.future.wait_for(kHangLimit) != std::future_status::ready) {
          std::fprintf(stderr, "perfbench: server hung; giving up\n");
          std::_Exit(3);
        }
        try {
          (void)item.future.get();
        } catch (const std::exception&) {
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      record(item.index, item.due, item.future);
    }
  });

  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point due = t0 + interval * static_cast<long>(i);
    std::this_thread::sleep_until(due);
    r.lateness_ms.push_back(ms_between(due, Clock::now()));
    std::future<rs::QueryResponse> fut;
    rs::QueryRequest req =
        keep_requests ? requests[i] : std::move(requests[i]);
    const rs::serve::SubmitStatus status = server.submit(std::move(req), fut);
    if (status != rs::serve::SubmitStatus::kAccepted) {
      ++r.rejected;
      completed.fetch_add(1, std::memory_order_relaxed);
    } else if (fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      record(i, due, fut);  // answered at submit time (cache hit)
    } else {
      const std::lock_guard<std::mutex> lock(mu);
      queue.push_back({i, due, std::move(fut)});
      cv.notify_one();
    }
    if (i + 1 == count / 2) {
      r.backlog_mid = i + 1 - completed.load(std::memory_order_relaxed);
    }
  }
  r.backlog_end = count - completed.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu);
    sending_done = true;
  }
  cv.notify_one();
  completion.join();

  const rs::serve::ServerStats after = server.stats();
  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t served =
      (after.completed - before.completed) - (after.cache_hits - before.cache_hits);
  r.mean_batch = batches == 0 ? 0.0
                              : static_cast<double>(served) /
                                    static_cast<double>(batches);
  const double window = seconds_between(t0, last_completion);
  r.achieved_qps =
      window > 0 ? static_cast<double>(r.latency_ms.size()) / window : 0.0;
  return r;
}

bool phase_passes(const PhaseResult& r, double rate, double limit_ms) {
  if (r.failed() != 0) return false;
  if (quantile(r.latency_ms, 0.99) > limit_ms) return false;
  // Little's law: with every request done within the limit, at most
  // rate * limit requests are outstanding; a queue that keeps growing
  // adds more than that between the middle and the end of the window.
  const double allowed = rate * limit_ms / 1000.0 + 64.0;
  return static_cast<double>(r.backlog_end) <=
         static_cast<double>(r.backlog_mid) + allowed;
}

CoTenants::CoTenants(int count) {
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] {
      volatile std::uint64_t sink = 0;
      while (!stop_.load(std::memory_order_relaxed)) sink = sink + 1;
    });
  }
}

CoTenants::~CoTenants() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

ChurnWriter::ChurnWriter(rs::serve::DynamicSsspService& service,
                         Graph initial, std::uint64_t seed,
                         std::chrono::milliseconds period, Checker& checker)
    : service_(service),
      current_(std::move(initial)),
      seed_(seed),
      period_(period),
      checker_(checker),
      thread_([this] { loop(); }) {}

ChurnWriter::~ChurnWriter() { stop(); }

void ChurnWriter::pause() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  cv_.wait(lock, [this] { return !busy_; });
}

void ChurnWriter::resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    next_ = Clock::now() + period_ / 2;
  }
  cv_.notify_all();
}

std::vector<double> ChurnWriter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return update_ms_;
}

void ChurnWriter::loop() {
  for (std::uint64_t batch = 0;; ++batch) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stop_) return;
        if (!paused_ && Clock::now() >= next_) break;
        if (paused_) {
          cv_.wait(lock);
        } else {
          cv_.wait_until(lock, next_);
        }
      }
      next_ += period_;
      busy_ = true;
    }
    const std::vector<rs::WeightUpdate> updates =
        update_batch(current_, seed_, batch, kUpdateBatch);
    Graph after = rs::apply_weight_updates(current_, updates).graph;
    try {
      const Clock::time_point t = Clock::now();
      const rs::serve::UpdateReport report = service_.apply_updates(updates);
      update_ms_.push_back(ms_between(t, Clock::now()));
      checker_.add_graph(report.epoch,
                         std::make_shared<const Graph>(after));
      current_ = std::move(after);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: apply_updates failed: %s\n", e.what());
      ++errors_;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
    cv_.notify_all();
  }
}

}  // namespace pb
