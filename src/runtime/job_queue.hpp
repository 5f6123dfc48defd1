// Bounded multi-producer/multi-consumer job queue with overload policies.
//
// The runtime batch engine's backpressure primitive. What happens when a
// producer outruns the worker pool is a policy choice:
//
//   kBlock        — `push` blocks once `capacity` jobs are waiting, so the
//                   producer is throttled instead of growing an unbounded
//                   backlog (decode jobs carry whole LLR frames — thousands
//                   of floats each). The original behavior.
//   kRejectNewest — `push` on a full queue fails immediately with
//                   kRejected; the caller keeps the job (admission control:
//                   new work is turned away at the door).
//   kShedOldest   — `push` on a full queue evicts the oldest queued job to
//                   make room (load shedding: stale work is dropped in
//                   favor of fresh work — the right policy when jobs have
//                   deadlines and the oldest is the most likely to be dead
//                   on arrival anyway). The displaced job is handed back so
//                   the caller can complete it as shed.
//
// Idle consumers block in pop(); a busy consumer takes more work with
// try_pop(), which never takes an item an idle consumer is waiting for.
//
// Post-push queue depths are recorded into a RunningStats so the engine can
// report how full the queue actually ran; shed/reject events are counted.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace ldpc {

/// What a full queue does to an incoming push (see file comment).
enum class OverloadPolicy { kBlock, kRejectNewest, kShedOldest };

inline const char* to_string(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kBlock:        return "block";
    case OverloadPolicy::kRejectNewest: return "reject-newest";
    case OverloadPolicy::kShedOldest:   return "shed-oldest";
  }
  return "?";
}

template <typename T>
class BoundedJobQueue {
 public:
  /// Outcome of a policy-aware push.
  enum class PushResult {
    kAccepted,     ///< item enqueued
    kClosed,       ///< queue closed; item left unconsumed
    kRejected,     ///< full under kRejectNewest; item left unconsumed
    kAcceptedShed  ///< item enqueued, oldest job evicted (kShedOldest)
  };

  explicit BoundedJobQueue(std::size_t capacity,
                           OverloadPolicy policy = OverloadPolicy::kBlock)
      : capacity_(capacity), policy_(policy) {
    LDPC_CHECK_MSG(capacity >= 1, "queue capacity must be >= 1");
  }

  /// Policy-aware push. Under kBlock this waits while the queue is full
  /// (backpressure); under kRejectNewest / kShedOldest it never blocks.
  /// On kAcceptedShed the evicted job is moved into `*shed` when `shed` is
  /// non-null (callers that must complete every accepted job pass it);
  /// otherwise the evicted job is destroyed.
  PushResult push(T&& item, T* shed = nullptr) LDPC_EXCLUDES(mutex_) {
    PushResult result = PushResult::kClosed;
    {
      MutexLock lock(mutex_);
      if (policy_ == OverloadPolicy::kBlock) {
        while (!closed_ && items_.size() >= capacity_) lock.wait(not_full_);
        if (closed_) return PushResult::kClosed;
      } else if (!closed_ && items_.size() >= capacity_) {
        if (policy_ == OverloadPolicy::kRejectNewest) {
          ++rejected_;
          return PushResult::kRejected;
        }
        // kShedOldest: evict the head to make room for the tail.
        if (shed) *shed = std::move(items_.front());
        items_.pop_front();
        ++shed_;
        enqueue(std::move(item));
        result = PushResult::kAcceptedShed;
      }
      if (result == PushResult::kClosed) {
        if (closed_) return PushResult::kClosed;
        enqueue(std::move(item));
        result = PushResult::kAccepted;
      }
    }
    not_empty_.notify_one();
    return result;
  }

  /// Capacity-exempt push: enqueues even on a full queue (false only when
  /// closed). The escape hatch for *re*-submissions — a worker thread that
  /// retries a failed job must never block on queue space, or a full queue
  /// of retryable jobs deadlocks the pool. Bounded in practice because
  /// retries never exceed the number of in-flight jobs.
  bool push_forced(T&& item) LDPC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      enqueue(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed; `item` is moved from
  /// only on success. Policy-independent (never sheds).
  bool try_push(T& item) LDPC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      enqueue(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop: waits while empty. Returns false once the queue is
  /// closed *and* drained — the consumer-thread exit signal.
  bool pop(T& out) LDPC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.empty()) {
        ++idle_;
        lock.wait(not_empty_);
        --idle_;
      }
      if (items_.empty()) return false;  // closed and drained
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking pop for a consumer that is already busy: false when the
  /// queue is empty or another consumer waits idle in pop(). The idle
  /// consumer gets the item instead, so a lightly loaded pool still spreads
  /// work across its consumers.
  bool try_pop(T& out) LDPC_EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      if (items_.empty() || idle_ > 0) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  /// Close the queue: pending pushes fail, consumers drain what is left and
  /// then see pop() == false. Idempotent.
  void close() LDPC_EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }
  OverloadPolicy policy() const { return policy_; }

  std::size_t size() const LDPC_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return items_.size();
  }

  bool closed() const LDPC_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return closed_;
  }

  /// Jobs evicted under kShedOldest since construction.
  std::size_t shed_count() const LDPC_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return shed_;
  }

  /// Pushes refused under kRejectNewest since construction.
  std::size_t rejected_count() const LDPC_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return rejected_;
  }

  /// Snapshot of the post-push depth statistics (mean/max occupancy).
  RunningStats occupancy() const LDPC_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return occupancy_;
  }

 private:
  /// Append + depth accounting; callers notify not_empty_ after unlocking.
  void enqueue(T&& item) LDPC_REQUIRES(mutex_) {
    items_.push_back(std::move(item));
    occupancy_.add(static_cast<double>(items_.size()));
  }

  mutable Mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_ LDPC_GUARDED_BY(mutex_);
  std::size_t capacity_;
  OverloadPolicy policy_;
  bool closed_ LDPC_GUARDED_BY(mutex_) = false;
  std::size_t shed_ LDPC_GUARDED_BY(mutex_) = 0;
  std::size_t rejected_ LDPC_GUARDED_BY(mutex_) = 0;
  std::size_t idle_ LDPC_GUARDED_BY(mutex_) = 0;  ///< consumers blocked in pop
  RunningStats occupancy_ LDPC_GUARDED_BY(mutex_);
};

}  // namespace ldpc
