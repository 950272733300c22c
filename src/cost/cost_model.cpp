#include "cost/cost_model.h"

#include <algorithm>
#include <thread>

#include "util/contract.h"
#include "util/thread_pool.h"

namespace comet::cost {

namespace {

// One process-wide pool shared by every model with batch_threads >= 2.
// Lazily constructed on first parallel batch (sequential users never spawn
// a thread); sized to the hardware so several models can interleave chunks
// without oversubscribing. Function-local static => thread-safe init and
// graceful drain at exit.
util::ThreadPool& shared_batch_pool() {
  static util::ThreadPool pool(
      std::max(2u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace

void CostModel::predict_batch(std::span<const x86::BasicBlock> blocks,
                              std::span<double> out) const {
  COMET_CHECK_MSG(blocks.size() == out.size(),
                  "predict_batch: " << blocks.size() << " blocks but "
                                    << out.size() << " output slots");
  for_batch_chunks(blocks.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = predict(blocks[i]);
    }
  });
}

void CostModel::for_batch_chunks(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  const std::size_t tasks = std::min(batch_threads_, total);
  if (tasks <= 1) {
    fn(0, total);
    return;
  }
  util::ThreadPool& pool = shared_batch_pool();
  const std::size_t chunk = (total + tasks - 1) / tasks;
  // A throwing chunk keeps the sequential path's error contract: the latch
  // captures the first exception and rethrows it here, on the caller.
  util::TaskLatch join((total + chunk - 1) / chunk);
  for (std::size_t begin = 0; begin < total; begin += chunk) {
    const std::size_t end = std::min(total, begin + chunk);
    pool.post([&join, &fn, begin, end] { join.run([&] { fn(begin, end); }); });
  }
  join.wait();
}

}  // namespace comet::cost
