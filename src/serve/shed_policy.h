// Load shedding for the serving admission queue.
//
// A WatermarkShedPolicy decides, at admission time, whether the server
// should refuse a job outright instead of queueing it. The decision sees
// live queue depth against capacity plus the job's own traffic class
// (lane, deadline slack). A shed job is never a silent drop: the server
// delivers a typed Served result with ServeStatus::kShed and counts it
// per lane in the metrics registry.
//
// The policy is stateless, so should_shed() may be called under the
// server's admission lock from every producer thread.
#pragma once

#include <cstddef>
#include <cstdint>

namespace comet::serve {

/// Traffic class of a serving request. Interactive is the latency-
/// sensitive lane (dequeued first); batch is throughput traffic that
/// absorbs shedding and queueing delay when the server saturates.
enum class Lane : std::uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

inline const char* lane_name(Lane lane) {
  return lane == Lane::kInteractive ? "interactive" : "batch";
}

/// Everything the policy consults for one admission decision.
struct ShedContext {
  std::size_t queue_depth = 0;     ///< jobs queued across both lanes
  std::size_t queue_capacity = 0;  ///< admission-queue bound
  Lane lane = Lane::kInteractive;  ///< the candidate job's lane
  bool has_deadline = false;       ///< candidate carries a deadline
  /// Remaining budget (deadline - now) at admission; 0 without a
  /// deadline. Already-expired jobs never reach the policy — the server
  /// rejects those first with a typed deadline result.
  std::uint64_t deadline_slack_ns = 0;
};

/// Two watermarks over queue occupancy.
///
///   * Above `batch_watermark` (fraction of capacity), batch-lane jobs
///     are shed — interactive traffic keeps the remaining headroom.
///   * Above `saturation_watermark`, deadline-infeasible jobs (slack
///     below `min_slack_ns`) are shed from either lane: they would
///     expire in the queue anyway, so admitting them only burns queue
///     slots, and batch-lane jobs are shed regardless of slack.
///
/// Interactive jobs without a deadline are never shed — they fall back
/// to ordinary backpressure (submit blocks / try_submit rejects).
class WatermarkShedPolicy {
 public:
  struct Options {
    double batch_watermark = 0.5;
    double saturation_watermark = 0.875;
    std::uint64_t min_slack_ns = 0;  ///< 0 = no infeasibility shedding
  };

  WatermarkShedPolicy() = default;
  explicit WatermarkShedPolicy(Options options) : options_(options) {}

  /// True to refuse the job (the server delivers ServeStatus::kShed).
  bool should_shed(const ShedContext& context) const;

 private:
  Options options_;
};

}  // namespace comet::serve
