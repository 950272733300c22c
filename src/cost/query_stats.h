// Query-traffic counters maintained by the QueryBroker and carried on every
// explanation. Split from query_broker.h so the widely-included result type
// (core::ExplanationOf, for both ISAs) doesn't pull in the broker template
// machinery.
//
// The counters are plain sums, so stats from independent brokers (one per
// served request) merge with operator+= into a single load-accounting
// ledger.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "util/str.h"

namespace comet::cost {

/// Query-traffic counters, all maintained by QueryBroker.
struct QueryStats {
  std::size_t requested = 0;    ///< predictions asked of the broker
  std::size_t evaluated = 0;    ///< predictions actually run by the model
  std::size_t cache_hits = 0;   ///< predictions served from the memo table
  std::size_t batch_calls = 0;  ///< predict_batch() calls issued downstream

  /// Merge another broker's ledger into this one (per-request aggregation
  /// in the explanation server).
  QueryStats& operator+=(const QueryStats& other) {
    requested += other.requested;
    evaluated += other.evaluated;
    cache_hits += other.cache_hits;
    batch_calls += other.batch_calls;
    return *this;
  }

  friend QueryStats operator+(QueryStats lhs, const QueryStats& rhs) {
    lhs += rhs;
    return lhs;
  }

  friend bool operator==(const QueryStats&, const QueryStats&) = default;

  /// Fraction of requested predictions served from the memo table
  /// (cache_hits / requested); 0 when nothing was requested.
  double hit_rate() const {
    return requested ? static_cast<double>(cache_hits) /
                           static_cast<double>(requested)
                     : 0.0;
  }

  /// Mean predictions evaluated per predict_batch round-trip — the batch
  /// width a remote backend actually sees (every evaluation is batched);
  /// 0 when no batch call was issued.
  double batch_fill() const {
    return batch_calls ? static_cast<double>(evaluated) /
                             static_cast<double>(batch_calls)
                       : 0.0;
  }

  /// One-line human-readable form for bench output and server drain
  /// reports.
  std::string to_string() const {
    return "requested=" + std::to_string(requested) +
           " evaluated=" + std::to_string(evaluated) +
           " cache_hits=" + std::to_string(cache_hits) +
           " batch_calls=" + std::to_string(batch_calls) +
           " hit_rate=" + util::format_fixed(hit_rate(), 3) +
           " batch_fill=" + util::format_fixed(batch_fill(), 1);
  }
};

/// The drain-report body: one "  key: <ledger>" line per model key, over
/// serve::ExplanationServer::stats_by_model(). The one formatting point of
/// every bench and demo drain report.
inline std::string format_stats_report(
    const std::map<std::string, QueryStats>& by_key) {
  std::string out;
  for (const auto& [key, stats] : by_key) {
    out += "  " + key + ": " + stats.to_string() + "\n";
  }
  return out;
}

}  // namespace comet::cost
