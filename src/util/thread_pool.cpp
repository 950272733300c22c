#include "util/thread_pool.h"

#include <utility>

namespace comet::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Worker parking loop; woken by post() or the destructor's stop
      // signal, both of which arrive.
      while (!stopping_ && tasks_.empty()) cv_.wait(lock);
      if (tasks_.empty()) return;  // stopping and fully drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace comet::util
