/// \file
/// Epoch/RCU-style snapshot swap: readers pin, a writer publishes.
///
/// Dynamic weight updates must not stall serving: while a new graph (or a
/// whole new engine) is prepared, every in-flight query keeps running
/// against the old snapshot. SnapshotSwap<T> is the tiny synchronization
/// core that makes this safe without a reader-side lock:
///
///  * readers call pin() and get a shared_ptr that keeps THEIR snapshot
///    alive for as long as they hold it — a serving team pins once and
///    serves every request it takes from one consistent snapshot;
///  * the writer prepares the replacement off to the side, then publishes
///    it with a single atomic pointer store. Readers that pinned before
///    the publish finish on the old snapshot; readers that pin after get
///    the new one. Nobody ever observes a half-swapped state, and the old
///    snapshot is reclaimed when its last reader drops out (classic RCU
///    grace period via shared_ptr reference counting).
///
/// Implemented with the C++17 std::atomic_load/atomic_store overloads for
/// shared_ptr, so the swap is lock-free on mainstream implementations and
/// correct everywhere. The serving daemon instantiates this over
/// SsspEngine and LandmarkOracle (serve/server.hpp).
#pragma once

#include <atomic>
#include <memory>
#include <utility>

namespace rs {

/// Single-writer/multi-reader atomic snapshot holder (see file comment).
/// T is the immutable snapshot type (Graph, SsspEngine, ...). Concurrent
/// publish() calls are individually atomic; last writer wins.
template <typename T>
class SnapshotSwap {
 public:
  /// Starts empty: pin() returns null until the first publish().
  SnapshotSwap() = default;

  /// Starts with `initial` as the current snapshot.
  explicit SnapshotSwap(std::shared_ptr<const T> initial)
      : current_(std::move(initial)) {}

  SnapshotSwap(const SnapshotSwap&) = delete;
  SnapshotSwap& operator=(const SnapshotSwap&) = delete;

  /// Pins the current snapshot: the returned shared_ptr stays valid (and
  /// the snapshot alive) however many publish() calls race past. Null only
  /// when nothing has been published yet.
  std::shared_ptr<const T> pin() const {
    return std::atomic_load_explicit(&current_, std::memory_order_acquire);
  }

  /// Publishes `next` as the new current snapshot. Readers pinned to the
  /// old snapshot are unaffected; the old snapshot is destroyed when the
  /// last such pin is dropped.
  void publish(std::shared_ptr<const T> next) {
    std::atomic_store_explicit(&current_, std::move(next),
                               std::memory_order_release);
  }

 private:
  std::shared_ptr<const T> current_;
};

}  // namespace rs
