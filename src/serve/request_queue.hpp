// Bounded MPMC queue: the admission buffer between client threads and the
// daemon's batcher threads (serve/server.hpp).
//
// The capacity bound IS the backpressure mechanism: try_push never blocks
// and never grows the buffer — when the ring is full the push fails and
// the server surfaces SubmitStatus::kQueueFull to the caller, which is the
// behavior a saturated daemon wants (shed load at the edge with a cheap
// status instead of queueing unboundedly and blowing the tail latency of
// everything behind it).
//
// Consumers get three pops: a blocking pop() for the first request of a
// batch (nothing to do until work arrives), a deadline-bounded
// try_pop_until() for the batch budget (wait at most until it expires),
// and pop_for() for the members of a serving team, which pull requests
// one at a time until the team is over (see Team) or the request at the
// head does not fit the team. close() wakes everyone; pops drain whatever
// is still buffered before reporting closed, so shutdown never drops an
// accepted request.
//
// A mutex + condvar ring, not a lock-free queue, on purpose: the critical
// section is a handful of instructions, contention is bounded by the
// request rate (thousands/s, not millions/s — each item is a full SSSP
// query), and the batchers need the timed wait that a condvar gives for
// free. The ring storage is allocated once at construction; push/pop move
// items in and out without allocating.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace rs::serve {

template <typename T>
class BoundedQueue {
 public:
  /// Capacity is fixed for the queue's lifetime (minimum 1).
  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admits `item` unless the queue is full or closed. Never blocks.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || count_ == ring_.size()) return false;
      ring_[(head_ + count_) % ring_.size()] = std::move(item);
      ++count_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available (true) or the queue is closed and
  /// empty (false). Buffered items are always drained before reporting
  /// closure.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
    return pop_locked(out);
  }

  /// Like pop() but gives up at `deadline` (false, with `out` untouched).
  /// A deadline already in the past degrades to a non-blocking try-pop.
  template <typename Clock, typename Duration>
  bool try_pop_until(T& out,
                     const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait_until(lock, deadline,
                          [&] { return count_ > 0 || closed_; });
    return pop_locked(out);
  }

  /// Bookkeeping of one consumer team draining the queue together: the
  /// serving team of serve/server.hpp, whose members each pull their next
  /// item the moment they finish the last. Guarded by the queue's lock and
  /// touched only by pop_for() and finish(), which keep the rule for when
  /// a team is over.
  class Team {
   public:
    /// A team that may take `limit` items in all, whose members already
    /// hold `held` of them (seeds taken before the team opened; each is
    /// owed a finish()).
    Team(std::size_t limit, std::size_t held)
        : limit_(limit), taken_(held), busy_(held) {}

   private:
    friend class BoundedQueue;
    std::size_t limit_;        // items the team may take in all
    std::size_t taken_;        // items taken so far (seeds included)
    std::size_t busy_;         // items held by members, not yet finished
    std::size_t waiting_ = 0;  // members blocked in pop_for()
    bool over_ = false;        // sticky: no member takes another item
  };

  /// Team pop, called by a member of `team` that holds no item. Returns
  /// true with the next item (the member now holds it, until finish()),
  /// or false once the team is over: it has taken its limit, the item at
  /// the head does not `fit` (a predicate on the head, called under the
  /// lock; the item stays queued for the next consumer), or the queue is
  /// empty (or closed and drained) while no member holds an item. An idle
  /// member blocks while the queue is empty and a team-mate is still
  /// busy, since an arrival or that mate's end may come next.
  template <typename Fits>
  bool pop_for(Team& team, T& out, Fits&& fits) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++team.waiting_;
    not_empty_.wait(lock, [&] {
      return count_ > 0 || closed_ || team.busy_ == 0 || team.over_ ||
             team.taken_ >= team.limit_;
    });
    --team.waiting_;
    if (!team.over_ && team.taken_ < team.limit_ && count_ > 0 &&
        fits(static_cast<const T&>(ring_[head_]))) {
      pop_locked(out);
      ++team.taken_;
      ++team.busy_;
      return true;
    }
    team.over_ = true;
    // Idle mates must leave too, and a push whose wake-up this member
    // consumed must reach a consumer outside the team.
    const bool wake = team.waiting_ > 0 || count_ > 0;
    lock.unlock();
    if (wake) not_empty_.notify_all();
    return false;
  }

  /// A member of `team` has finished the item it held. When it was the
  /// last busy one, idle mates are woken to see whether the team is over.
  void finish(Team& team) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --team.busy_;
      if (team.busy_ != 0 || team.waiting_ == 0) return;
    }
    not_empty_.notify_all();
  }

  /// Rejects all future pushes and wakes every blocked pop. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

  std::size_t capacity() const { return ring_.size(); }

 private:
  bool pop_locked(T& out) {
    if (count_ == 0) return false;
    out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return true;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;
  std::size_t head_ = 0;   // index of the oldest item
  std::size_t count_ = 0;  // number of buffered items
  bool closed_ = false;
};

}  // namespace rs::serve
