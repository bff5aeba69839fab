// Open-loop load generation against SsspServer::submit.
//
// One dispatcher (the calling thread) sends request i at t0 + i / rate,
// whatever the server is doing; one completion thread collects the
// futures. Latency is timed from when a request was DUE, so a stall also
// charges the requests it delayed, and the dispatcher's own lateness is
// recorded so a run whose generator fell behind can be refused.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "serve/dynamic.hpp"
#include "serve/server.hpp"
#include "workload.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds / milliseconds / microseconds between two instants.
double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);
double us_between(Clock::time_point a, Clock::time_point b);

/// Nearest-rank quantile of `values` (0 when empty).
double quantile(std::vector<double> values, double q);
/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Mean of the smallest `keep` share of `values` (0 when empty).
double trimmed_mean(std::vector<double> values, double keep);

/// One open-loop phase: a fixed rate for a fixed time.
struct PhaseSpec {
  double rate = 0;      ///< offered requests per second
  double seconds = 0;   ///< sending window
  std::uint64_t id_base = 0;  ///< first request id of the phase
  double check_share = 1.0;   ///< share of answers sent to the checker
};

/// Requests a phase sends: rate * seconds, at least one.
std::size_t request_count(const PhaseSpec& spec);

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;  ///< queue full, invalid or shutting down
  std::uint64_t errors = 0;    ///< the future held an exception
  std::uint64_t late = 0;      ///< not complete by the phase deadline
  std::vector<double> latency_ms;  ///< due -> completion, completed only
  std::vector<double> lateness_ms;  ///< dispatcher send time - due time
  double achieved_qps = 0;  ///< completed / (last completion - start)
  std::uint64_t backlog_mid = 0;  ///< outstanding at half the window
  std::uint64_t backlog_end = 0;  ///< outstanding when sending stopped
  double mean_batch = 0;  ///< server micro-batch width over the phase

  std::uint64_t failed() const { return rejected + errors + late; }
};

/// Called on the completion thread for every completed request.
using ResponseHook =
    std::function<void(std::uint64_t id, const rs::QueryResponse& resp)>;

/// Runs one open-loop phase. Sampled answers go to `checker` (if set).
PhaseResult run_open_loop(rs::serve::SsspServer& server,
                          const RequestStream& stream, const PhaseSpec& spec,
                          Checker* checker, const ResponseHook& hook = {});

/// True when a phase met the goodput conditions: no failure, p99 within
/// `limit_ms`, and a backlog that did not grow over the window.
bool phase_passes(const PhaseResult& r, double rate, double limit_ms);

/// `count` threads that spin until destroyed: the co-tenants of the
/// shared-CPU workload.
class CoTenants {
 public:
  explicit CoTenants(int count);
  ~CoTenants();
  CoTenants(const CoTenants&) = delete;
  CoTenants& operator=(const CoTenants&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Cadence of the churn writer.
constexpr std::chrono::milliseconds kChurnPeriod{1000};

/// The churn writer: while resumed, every `period` re-weights kUpdateBatch
/// random edges through DynamicSsspService::apply_updates and registers
/// the graph of the new epoch with the checker. It starts paused.
class ChurnWriter {
 public:
  ChurnWriter(rs::serve::DynamicSsspService& service, Graph initial,
              std::uint64_t seed, std::chrono::milliseconds period,
              Checker& checker);
  ~ChurnWriter();
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  /// Holds back further batches; returns once a batch in progress is done.
  void pause();
  /// Lets batches run again, the first half a period from now.
  void resume();
  /// Stops the writer and returns the apply_updates() wall times (ms).
  std::vector<double> stop();
  /// Errors thrown by apply_updates (each counts as a failed request).
  std::uint64_t errors() const { return errors_; }

 private:
  void loop();

  rs::serve::DynamicSsspService& service_;
  Graph current_;
  std::uint64_t seed_;
  std::chrono::milliseconds period_;
  Checker& checker_;
  std::mutex mu_;  // guards stop_, paused_, busy_ and next_
  std::condition_variable cv_;
  bool stop_ = false;
  bool paused_ = true;
  bool busy_ = false;  ///< a batch is being applied
  Clock::time_point next_;
  std::vector<double> update_ms_;
  std::uint64_t errors_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace pb
