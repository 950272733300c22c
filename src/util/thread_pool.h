// A fixed-size FIFO thread pool and the latch its callers join on — the
// execution substrate of the concurrent layers (serve/'s shard threads,
// the cost::CostModel batch fan-out, test harnesses).
//
// Deliberately minimal: tasks are opaque std::function<void()>s executed in
// submission order by whichever worker frees up first. With one worker the
// pool is a strict FIFO executor, which is what serializes a shard's
// broker and model onto one thread; more workers trade that ordering for
// concurrency (callers opt in explicitly).
//
// Shutdown is graceful: the destructor lets workers drain every queued task
// before joining, so no submitted work is ever dropped.
//
// A task must not throw: an exception escaping into the worker loop
// terminates the process. Work whose failure belongs to a caller runs
// through a TaskLatch, which captures it and rethrows it on the thread
// that waits.
//
// Locking contract (compile-time checked under COMET_THREAD_SAFETY): the
// task queue and the stop flag are guarded by mutex_; workers_ is written
// only during construction and joined in the destructor, after every
// worker has observed stopping_, so it needs no lock.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace comet::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool() COMET_EXCLUDES(mutex_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; workers pick tasks up in FIFO order.
  void post(std::function<void()> task) COMET_EXCLUDES(mutex_);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() COMET_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;  // signalled on new work and on shutdown
  std::deque<std::function<void()>> tasks_ COMET_GUARDED_BY(mutex_);
  bool stopping_ COMET_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// Countdown latch over a known number of posted tasks. Each task body
/// runs through run(), which captures an exception instead of letting it
/// reach the worker loop; wait() returns once every task has run and then
/// rethrows the first captured exception on the waiting thread — the same
/// error contract as running the bodies inline.
class TaskLatch {
 public:
  explicit TaskLatch(std::size_t tasks) : pending_(tasks) {}

  TaskLatch(const TaskLatch&) = delete;
  TaskLatch& operator=(const TaskLatch&) = delete;

  /// Run one counted task body and count it down, even if it throws.
  template <typename Body>
  void run(Body&& body) COMET_EXCLUDES(mutex_) {
    std::exception_ptr body_error;
    try {
      std::forward<Body>(body)();
    } catch (...) {
      body_error = std::current_exception();
    }
    // Notify while holding the lock: the latch is usually a stack local of
    // the waiter, which may destroy it the moment it observes pending_ ==
    // 0 — an unlocked notify could touch a dead condition variable.
    MutexLock lock(mutex_);
    if (body_error != nullptr && error_ == nullptr) error_ = body_error;
    if (--pending_ == 0) cv_.notify_all();
  }

  /// Block until every counted task has run; rethrow the first error.
  void wait() COMET_EXCLUDES(mutex_) {
    std::exception_ptr error;
    {
      MutexLock lock(mutex_);
      // Every counted task is posted to a live pool and counts down even
      // when it throws, so the latch always opens.
      while (pending_ != 0) cv_.wait(lock);
      error = error_;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  std::size_t pending_ COMET_GUARDED_BY(mutex_);
  std::exception_ptr error_ COMET_GUARDED_BY(mutex_);
};

}  // namespace comet::util
