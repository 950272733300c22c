// obs::MetricsRegistry: the serving stack's always-on instrumentation
// surface — named counters, gauges, and log-bucketed latency histograms,
// with two exporters (Prometheus-style text exposition and a JSON
// snapshot).
//
// Design rules, in the order they were decided:
//
//   * Observation never perturbs results. Metrics record wall-clock and
//     traffic facts about a computation whose outputs are pinned
//     bit-identical to the sequential path (tests/test_obs.cpp asserts
//     served == sequential on the steady and a mocked clock). Clock
//     readings enter through obs::Clock only and never feed the search.
//   * Handles are stable. counter()/gauge()/histogram() return references
//     that live as long as the registry, so hot paths resolve a name once
//     and then increment through the handle — no map lookup per event.
//   * Everything merges. HistogramSnapshot is plain data with operator+=,
//     exactly like cost::QueryStats, so per-worker / per-server
//     observations aggregate into one ledger.
//   * Locking is the PR 6 contract: every mutable member is
//     COMET_GUARDED_BY an util::Mutex and checked by the Clang
//     thread-safety analysis. One mutex per instrument (not per registry)
//     keeps concurrent workers off each other's cache lines and off the
//     registry map.
//
// Histogram shape: log-linear buckets, 8 linear sub-buckets per octave.
// Values 0..7 get one exact bucket each; every octave [2^k, 2^(k+1)) with
// k >= 3 splits into 8 buckets of width 2^(k-3), up to the top of the
// uint64 range (no overflow bucket). Quantiles are estimated by linear
// interpolation inside the bucket containing the rank and clamped to the
// observed [min, max], so a constant series reports its exact value at
// every percentile. An estimate and the true quantile share a bucket whose
// width is at most 1/8 of its lower bound, so the relative error is below
// 12.5%.
//
// Label convention: a fully-qualified metric name may carry Prometheus
// labels inline — `serve_run_ns{model_key="crude-hsw"}` — built with
// MetricsRegistry::labeled(). The exporters split the base name from the
// label body so text exposition stays well-formed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace comet::obs {

/// Monotonic event counter.
class Counter {
 public:
  void increment(std::uint64_t n = 1) COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    value_ += n;
  }
  std::uint64_t value() const COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return value_;
  }

 private:
  mutable util::Mutex mutex_;
  std::uint64_t value_ COMET_GUARDED_BY(mutex_) = 0;
};

/// Point-in-time level (queue depth, outstanding jobs, hit rates).
class Gauge {
 public:
  void set(double v) COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    value_ = v;
  }
  void add(double delta) COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    value_ += delta;
  }
  double value() const COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return value_;
  }

 private:
  mutable util::Mutex mutex_;
  double value_ COMET_GUARDED_BY(mutex_) = 0.0;
};

/// Plain-data histogram state: log-linear buckets + count/sum/min/max.
/// Mergeable with operator+= (per-worker and per-server ledgers aggregate
/// the same way QueryStats does).
struct HistogramSnapshot {
  static constexpr std::size_t kSubBuckets = 8;  ///< per octave
  /// 8 exact buckets for 0..7, then 8 per octave for k = 3..63.
  static constexpr std::size_t kBuckets = kSubBuckets * 62;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;  ///< meaningful only when count > 0

  /// Index of the bucket `value` falls into.
  static std::size_t bucket_of(std::uint64_t value);
  /// Smallest / largest value bucket `i` holds (both inclusive).
  static double bucket_lower(std::size_t i);
  static double bucket_upper(std::size_t i);

  void record(std::uint64_t value);

  /// Quantile estimate in [min, max]; q in [0, 1] (0.5 = median). Linear
  /// interpolation within the rank's bucket; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  HistogramSnapshot& operator+=(const HistogramSnapshot& other);
  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;

  /// One-line summary: "count=12 p50=3.0us p95=8.1us p99=9.9us".
  std::string to_string() const;
};

/// Thread-safe histogram instrument over HistogramSnapshot.
class Histogram {
 public:
  void record(std::uint64_t value) COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    state_.record(value);
  }
  HistogramSnapshot snapshot() const COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return state_;
  }

 private:
  mutable util::Mutex mutex_;
  HistogramSnapshot state_ COMET_GUARDED_BY(mutex_);
};

/// Named instruments, stable handles, mergeable/exportable snapshots.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by fully-qualified name. The returned reference is
  /// valid for the registry's lifetime; resolve once, record many times.
  Counter& counter(const std::string& name) COMET_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) COMET_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name) COMET_EXCLUDES(mutex_);

  /// `base{key="value"}` — the inline-label naming convention. Backslash,
  /// double quote and newline in `value` are escaped as `\\`, `\"`, `\n`.
  static std::string labeled(const std::string& base, const std::string& key,
                             const std::string& value);

  /// Point-in-time copy of every instrument, sorted by name (deterministic
  /// export order).
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  Snapshot snapshot() const COMET_EXCLUDES(mutex_);

  /// Prometheus text exposition (scrape body): `# TYPE` lines, cumulative
  /// `_bucket{le=...}` series, `_sum`/`_count` per histogram.
  std::string to_prometheus() const COMET_EXCLUDES(mutex_);

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p95, p99}}}.
  std::string to_json() const COMET_EXCLUDES(mutex_);

 private:
  // Instruments are heap-allocated so handles stay stable across rehashes;
  // the maps only grow (no instrument is ever removed).
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      COMET_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      COMET_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      COMET_GUARDED_BY(mutex_);
};

}  // namespace comet::obs
