// The three workloads and the record mode that regenerates the oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;      ///< explain-uica | explain-ithemal | serve-mixed
  std::uint64_t seed = 1;    ///< workload seed: order, arrivals
  double seconds = 20.0;     ///< measurement budget
  bool trace = false;        ///< per-layer run instead of end-to-end
  std::string fingerprints;  ///< committed reference fingerprints
  std::string workdir;       ///< scratch space for trained weights
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Median host slowdown the speed probes saw (see host_speed.h); times
  /// in `metrics` are already divided by it, span by span.
  double host_slowdown = 1.0;
};

/// Set up, measure and check one workload. Throws on a setup failure (bad
/// arguments, missing oracle); an explanation that fails or mismatches its
/// fingerprint is counted in Result::failed instead.
Result run_workload(const RunConfig& config);

/// Explain every catalog entry sequentially and write the fingerprints.
void record_fingerprints(const std::string& path, const std::string& workdir);

}  // namespace perfbench
