// Host speed probe: a fixed reference kernel, timed in between the measured
// work, that puts every reported time at one reference speed of the host.
//
// The benchmark runs on a few cores of a shared host whose speed drifts by
// a third and more over minutes (neighbours' load, power limits), so the
// same work timed on the wall clock swings from run to run. The probe is
// this file's own code, built with fixed flags and no library calls, so no
// change to the library moves it: when the host slows down, the probe and
// the measured work slow down together, and dividing a span by the probe's
// slowdown at that moment cancels the drift. A change to the library moves
// the measured work and not the probe, and shows.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace perfbench {

class Relay;

/// Probe times, in ns, in the order they were taken. Not thread-safe: one
/// thread probes, and spans are normalised after the run.
class SpeedLog {
 public:
  /// With `hand_offs`, every probe also makes a few round trips to a
  /// helper thread (a mutex and condition variable each way, as the
  /// serving stack's queue and shard session do). A host that is slow to
  /// run a woken thread slows a served request far more than it slows
  /// computation; this part of the probe is there to see that.
  explicit SpeedLog(bool hand_offs = false);
  ~SpeedLog();
  SpeedLog(const SpeedLog&) = delete;
  SpeedLog& operator=(const SpeedLog&) = delete;

  /// Run the reference kernel once (about 2 ms) and record its time.
  void probe();
  /// Run `n` probes back to back.
  void probe(int n);

  /// How much slower than the reference the host ran around `t_ns`: the
  /// median time of the kWindow probes nearest to `t_ns` over a probe's
  /// time on a quiet host, raised to the power the measured work was found
  /// to follow (host_speed.cpp). 1 when nothing was probed.
  double slowdown_at(std::uint64_t t_ns) const;

  /// The span [begin_ns, end_ns) in reference nanoseconds.
  double normalize(std::uint64_t begin_ns, std::uint64_t end_ns) const;

  /// Median slowdown over every probe taken (for the summary).
  double median_slowdown() const;

 private:
  std::unique_ptr<Relay> relay_;  ///< the helper thread, with hand_offs
  double reference_ns_;           ///< a probe's time on a quiet host
  double sensitivity_;  ///< power of the time ratio that is the slowdown
  std::vector<std::pair<std::uint64_t, std::uint64_t>> probes_;  // at, ns
};

}  // namespace perfbench
