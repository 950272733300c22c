#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/str.h"

namespace comet::obs {

namespace {

// Escapes a string for use inside a JSON string literal (metric names carry
// label quotes: serve_run_ns{model_key="crude-hsw"}).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Doubles in exports: fixed 6 decimals covers sub-microsecond latencies in
// ns units without scientific notation (which Prometheus parses but humans
// scan poorly).
std::string fmt_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::string s = util::format_fixed(v, 6);
  // Trim trailing zeros but keep at least one decimal ("3.0" not "3.").
  while (s.size() > 1 && s.back() == '0' &&
         s[s.size() - 2] != '.') {
    s.pop_back();
  }
  return s;
}

// Splits `name{label="x"}` into base and label body ("" when unlabeled).
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const auto brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

// Re-joins a label body with one extra label appended.
std::string with_label(const std::string& body, const std::string& extra) {
  return body.empty() ? extra : body + "," + extra;
}

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot

// Values 0..7 map to themselves; a value in octave k >= 3, [2^k, 2^(k+1)),
// maps to (k - 2) * 8 plus the 3 bits below its top bit.
std::size_t HistogramSnapshot::bucket_of(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int shift = static_cast<int>(std::bit_width(value)) - 4;  // k - 3
  return static_cast<std::size_t>(shift + 1) * kSubBuckets +
         static_cast<std::size_t>((value >> shift) - kSubBuckets);
}

double HistogramSnapshot::bucket_lower(std::size_t i) {
  if (i < kSubBuckets) return static_cast<double>(i);
  const int shift = static_cast<int>(i / kSubBuckets) - 1;
  return std::ldexp(static_cast<double>(kSubBuckets + i % kSubBuckets),
                    shift);
}

double HistogramSnapshot::bucket_upper(std::size_t i) {
  if (i < kSubBuckets) return static_cast<double>(i);
  const int shift = static_cast<int>(i / kSubBuckets) - 1;
  return bucket_lower(i) + (std::ldexp(1.0, shift) - 1.0);
}

void HistogramSnapshot::record(std::uint64_t value) {
  ++buckets[bucket_of(value)];
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets[i]);
    if (static_cast<double>(cum) + in_bucket >= rank) {
      const double pos =
          std::clamp((rank - static_cast<double>(cum)) / in_bucket, 0.0, 1.0);
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double v = lo + (hi - lo) * pos;
      // Clamp to the observed range: a constant series reports its exact
      // value at every percentile.
      return std::clamp(v, static_cast<double>(min),
                        static_cast<double>(max));
    }
    cum += buckets[i];
  }
  return static_cast<double>(max);
}

HistogramSnapshot& HistogramSnapshot::operator+=(
    const HistogramSnapshot& other) {
  if (other.count == 0) return *this;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  return *this;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::labeled(const std::string& base,
                                     const std::string& key,
                                     const std::string& value) {
  // The text exposition format escapes backslash, double quote and newline
  // in a label value; any other byte stands for itself.
  std::string out = base + "{" + key + "=\"";
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out + "\"}";
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  // Copy the instrument pointers under the registry lock, then read each
  // instrument through its own lock (instruments are never removed, so the
  // pointers stay valid without holding mutex_).
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    util::MutexLock lock(mutex_);
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g.get());
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
  }
  Snapshot out;
  for (const auto& [name, c] : counters) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  const Snapshot snap = snapshot();
  std::string out;
  std::string last_typed;  // one # TYPE line per base name
  const auto type_line = [&](const std::string& base,
                             const std::string& kind) {
    if (base == last_typed) return;
    out += "# TYPE " + base + " " + kind + "\n";
    last_typed = base;
  };
  for (const auto& [name, value] : snap.counters) {
    const auto [base, labels] = split_labels(name);
    type_line(base, "counter");
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const auto [base, labels] = split_labels(name);
    type_line(base, "gauge");
    out += name + " " + fmt_double(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const auto [base, labels] = split_labels(name);
    type_line(base, "histogram");
    // Cumulative le-buckets; empty buckets are elided (their cumulative
    // count is carried by the next populated bound and by +Inf).
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cum += h.buckets[i];
      const std::string le =
          "le=\"" + fmt_double(HistogramSnapshot::bucket_upper(i)) + "\"";
      out += base + "_bucket{" + with_label(labels, le) + "} " +
             std::to_string(cum) + "\n";
    }
    out += base + "_bucket{" + with_label(labels, "le=\"+Inf\"") + "} " +
           std::to_string(h.count) + "\n";
    const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    out += base + "_sum" + suffix + " " + std::to_string(h.sum) + "\n";
    out += base + "_count" + suffix + " " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + fmt_double(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"min\": " + std::to_string(h.count ? h.min : 0) +
           ", \"max\": " + std::to_string(h.count ? h.max : 0) +
           ", \"mean\": " + fmt_double(h.mean()) +
           ", \"p50\": " + fmt_double(h.p50()) +
           ", \"p95\": " + fmt_double(h.p95()) +
           ", \"p99\": " + fmt_double(h.p99()) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

}  // namespace comet::obs
