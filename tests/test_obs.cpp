// Tests for the observability layer (src/obs/) and its serve-layer wiring:
// histogram bucket/percentile/merge math, registry handle stability and
// exporters, the clock seam, counter/histogram thread-safety (meaningful
// under TSan — scripts/check.sh --tsan builds this file), label escaping
// in the scrape, and the non-negotiable contract of the whole layer:
// explanations served on the steady clock or a mocked one are bit-identical
// to the sequential path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bhive/paper_blocks.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/isa_servers.h"
#include "util/rng.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace co = comet::obs;
namespace cs = comet::serve;
namespace cx = comet::x86;

namespace {

cc::CometOptions light_options(std::uint64_t seed) {
  cc::CometOptions opt;
  opt.epsilon = 0.25;
  opt.coverage_samples = 150;
  opt.max_pulls_per_level = 40;
  opt.batch_size = 8;
  opt.final_precision_samples = 60;
  opt.seed = seed;
  return opt;
}

// Is `line` a `# TYPE` line or `name{key="value",...} value` (labels
// optional), with `\`, `"` and newline escaped inside each label value?
bool well_formed_exposition_line(const std::string& line) {
  if (line.rfind("# TYPE ", 0) == 0) return true;
  std::size_t i = 0;
  const auto word = [&](bool colons) {  // a metric (colons) or label name
    const std::size_t start = i;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          !(colons && c == ':')) {
        break;
      }
    }
    return i > start;
  };
  if (!word(true)) return false;
  if (i < line.size() && line[i] == '{') {
    do {
      ++i;  // past '{' or ','
      if (!word(false) || line.compare(i, 2, "=\"") != 0) return false;
      for (i += 2; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] != '\\') continue;
        if (++i == line.size() || std::string("\\\"n").find(line[i]) ==
                                      std::string::npos) {
          return false;
        }
      }
      if (i++ == line.size()) return false;  // unterminated value
    } while (i < line.size() && line[i] == ',');
    if (i == line.size() || line[i++] != '}') return false;
  }
  return i < line.size() && line[i] == ' ' &&
         line.find(' ', i + 1) == std::string::npos && i + 1 < line.size();
}

void expect_identical(const cc::Explanation& a, const cc::Explanation& b) {
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.met_threshold, b.met_threshold);
  EXPECT_EQ(a.model_queries, b.model_queries);
}

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSnapshot: bucket math

TEST(HistogramBuckets, ExactBelowEightThenEightPerOctave) {
  using H = co::HistogramSnapshot;
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(v, H::bucket_of(v));  // one exact bucket per small value
  }
  // [8, 16): eight width-1 buckets; [16, 32): eight width-2 buckets.
  EXPECT_EQ(8u, H::bucket_of(8));
  EXPECT_EQ(15u, H::bucket_of(15));
  EXPECT_EQ(16u, H::bucket_of(16));
  EXPECT_EQ(16u, H::bucket_of(17));
  EXPECT_EQ(17u, H::bucket_of(18));
  EXPECT_EQ(23u, H::bucket_of(31));
  EXPECT_EQ(24u, H::bucket_of(32));
  // 1024 = 2^10 opens octave 10; 1152 = 1024 + 128 is its second bucket.
  EXPECT_EQ(64u, H::bucket_of(1024));
  EXPECT_EQ(64u, H::bucket_of(1151));
  EXPECT_EQ(65u, H::bucket_of(1152));
  // The top octave reaches the end of the uint64 range: no overflow.
  EXPECT_EQ(H::kBuckets - 8, H::bucket_of(std::uint64_t{1} << 63));
  EXPECT_EQ(H::kBuckets - 1, H::bucket_of(~std::uint64_t{0}));
}

TEST(HistogramBuckets, BoundsBracketEveryValueAndTile) {
  using H = co::HistogramSnapshot;
  for (const std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 7, 8, 9, 100, 4095, 4096, 1'000'000'007,
           std::uint64_t{1} << 40}) {
    const std::size_t i = H::bucket_of(v);
    EXPECT_LE(H::bucket_lower(i), static_cast<double>(v)) << v;
    EXPECT_LE(static_cast<double>(v), H::bucket_upper(i)) << v;
  }
  // Consecutive buckets tile the integers, and no bucket is wider than an
  // eighth of its lower bound (the 12.5% error bound).
  for (std::size_t i = 0; i + 1 < 8 * 40; ++i) {
    EXPECT_EQ(H::bucket_upper(i) + 1.0, H::bucket_lower(i + 1)) << i;
    EXPECT_LE(8.0 * (H::bucket_upper(i) - H::bucket_lower(i)),
              H::bucket_lower(i))
        << i;
  }
}

// ---------------------------------------------------------------------------
// HistogramSnapshot: percentiles

TEST(HistogramPercentiles, EmptyIsZero) {
  co::HistogramSnapshot h;
  EXPECT_EQ(0.0, h.p50());
  EXPECT_EQ(0.0, h.p99());
  EXPECT_EQ(0.0, h.mean());
}

TEST(HistogramPercentiles, ConstantSeriesIsExactEverywhere) {
  // The [min, max] clamp makes a constant series report its exact value at
  // every percentile, regardless of the bucket's nominal width.
  co::HistogramSnapshot h;
  for (int i = 0; i < 10; ++i) h.record(5000);
  EXPECT_EQ(5000.0, h.p50());
  EXPECT_EQ(5000.0, h.p95());
  EXPECT_EQ(5000.0, h.p99());
  EXPECT_EQ(5000.0, h.mean());
  EXPECT_EQ(5000u, h.min);
  EXPECT_EQ(5000u, h.max);
}

TEST(HistogramPercentiles, OrderedAndBracketedByMinMax) {
  co::HistogramSnapshot h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(1000u, h.count);
  EXPECT_EQ(1000u * 1001u / 2u, h.sum);
  const double p50 = h.p50(), p95 = h.p95(), p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Within 12.5% of the exact ranks (500, 950, 990).
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.125);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.125);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.125);
}

// Seeded log-uniform latencies from 1 ns to 10 s: every reported quantile
// stays within 12.5% of the exact nearest-rank quantile of the samples.
TEST(HistogramPercentiles, QuantilesWithinEighthOfExact) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    comet::util::Rng rng(seed);
    co::HistogramSnapshot h;
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 5000; ++i) {
      const auto v = static_cast<std::uint64_t>(
          std::pow(10.0, 10.0 * rng.uniform()));  // [1, 1e10) ns
      samples.push_back(v);
      h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.50, 0.90, 0.95, 0.99}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(samples.size())));
      const double exact = static_cast<double>(samples[rank - 1]);
      EXPECT_NEAR(h.quantile(q), exact, exact * 0.125)
          << "seed " << seed << " q " << q;
    }
  }
}

TEST(HistogramPercentiles, MergeEqualsRecordingIntoOne) {
  co::HistogramSnapshot all, left, right;
  for (std::uint64_t v = 0; v < 500; ++v) {
    all.record(v * 7);
    (v % 2 == 0 ? left : right).record(v * 7);
  }
  left += right;
  EXPECT_EQ(all, left);  // buckets, count, sum, min, max — all of it
  co::HistogramSnapshot empty;
  left += empty;
  EXPECT_EQ(all, left);  // merging empty changes nothing (incl. min/max)
  empty += all;
  EXPECT_EQ(all, empty);  // merging into empty adopts min/max
}

// ---------------------------------------------------------------------------
// Instruments under concurrency (run under TSan via check.sh --tsan)

TEST(InstrumentConcurrency, CountersGaugesHistogramsAreThreadSafe) {
  co::MetricsRegistry registry;
  co::Counter& counter = registry.counter("events");
  co::Gauge& gauge = registry.gauge("level");
  co::Histogram& hist = registry.histogram("lat_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.increment();
        gauge.set(static_cast<double>(t));
        hist.record(static_cast<std::uint64_t>(i));
        // Concurrent find-or-create against the same names must also be
        // safe (workers resolve labeled histograms on the fly).
        registry.counter("events").increment(0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(kThreads * kPerThread, counter.value());
  EXPECT_EQ(static_cast<std::uint64_t>(kThreads) * kPerThread,
            hist.snapshot().count);
  const double g = gauge.value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, static_cast<double>(kThreads));
}

// ---------------------------------------------------------------------------
// Registry: handles, labels, exporters

TEST(MetricsRegistry, HandlesAreStableAndFindOrCreate) {
  co::MetricsRegistry registry;
  co::Counter& a = registry.counter("reqs");
  a.increment(3);
  // Same name — same instrument, even after other instruments are created.
  for (int i = 0; i < 100; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    registry.histogram(name);
  }
  EXPECT_EQ(&a, &registry.counter("reqs"));
  EXPECT_EQ(3u, registry.counter("reqs").value());
}

TEST(MetricsRegistry, LabeledNameConvention) {
  EXPECT_EQ("serve_run_ns{model_key=\"crude-hsw\"}",
            co::MetricsRegistry::labeled("serve_run_ns", "model_key",
                                         "crude-hsw"));
  // The text exposition format escapes \, " and newline in label values.
  EXPECT_EQ("m{k=\"a\\\"b\\\\c\\nd\"}",
            co::MetricsRegistry::labeled("m", "k", "a\"b\\c\nd"));
}

TEST(MetricsRegistry, PrometheusExposition) {
  co::MetricsRegistry registry;
  registry.counter("reqs").increment(3);
  registry.gauge("depth").set(2.5);
  registry.histogram("lat_ns").record(5);   // exact bucket [5, 5]
  registry.histogram("lat_ns").record(5);
  registry.histogram("lat_ns").record(20);  // bucket [20, 21]
  registry
      .histogram(co::MetricsRegistry::labeled("lat_ns", "key", "a"))
      .record(1);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(std::string::npos, text.find("# TYPE reqs counter"));
  EXPECT_NE(std::string::npos, text.find("reqs 3\n"));
  EXPECT_NE(std::string::npos, text.find("# TYPE depth gauge"));
  EXPECT_NE(std::string::npos, text.find("depth 2.5\n"));
  EXPECT_NE(std::string::npos, text.find("# TYPE lat_ns histogram"));
  // Cumulative buckets: both 5s land in le="5", the 20 in le="21"; +Inf
  // carries the total. Empty buckets in between are elided.
  EXPECT_NE(std::string::npos, text.find("lat_ns_bucket{le=\"5.0\"} 2\n"
                                         "lat_ns_bucket{le=\"21.0\"} 3\n"
                                         "lat_ns_bucket{le=\"+Inf\"} 3\n"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_sum 30"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_count 3"));
  // The labeled sibling keeps its label on every series.
  EXPECT_NE(std::string::npos,
            text.find("lat_ns_bucket{key=\"a\",le=\"+Inf\"} 1"));
  EXPECT_NE(std::string::npos, text.find("lat_ns_sum{key=\"a\"} 1"));
  // Exactly one # TYPE line for the shared base name.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE lat_ns ", pos)) != std::string::npos) {
    ++type_lines;
    ++pos;
  }
  EXPECT_EQ(1u, type_lines);
}

TEST(MetricsRegistry, JsonSnapshot) {
  co::MetricsRegistry registry;
  registry.counter("reqs").increment(7);
  registry.gauge("depth").set(1.0);
  for (int i = 0; i < 4; ++i) registry.histogram("lat_ns").record(1000);
  const std::string json = registry.to_json();
  EXPECT_NE(std::string::npos, json.find("\"counters\""));
  EXPECT_NE(std::string::npos, json.find("\"reqs\": 7"));
  EXPECT_NE(std::string::npos, json.find("\"gauges\""));
  EXPECT_NE(std::string::npos, json.find("\"histograms\""));
  EXPECT_NE(std::string::npos, json.find("\"count\": 4"));
  EXPECT_NE(std::string::npos, json.find("\"p99\": 1000.0"));
  // Empty registry still renders a complete object.
  co::MetricsRegistry empty;
  const std::string none = empty.to_json();
  EXPECT_NE(std::string::npos, none.find("\"counters\": {}"));
  EXPECT_NE(std::string::npos, none.find("\"histograms\": {}"));
}

// ---------------------------------------------------------------------------
// Clock seam

TEST(ClockSeam, ManualClockAdvancesOnlyByHand) {
  co::ManualClock clock(100);
  EXPECT_EQ(100u, clock.now_ns());
  EXPECT_EQ(100u, clock.now_ns());  // reading does not advance
  clock.advance_ns(50);
  EXPECT_EQ(150u, clock.now_ns());
  clock.set_ns(7);
  EXPECT_EQ(7u, clock.now_ns());
  const co::Clock& as_base = clock;
  EXPECT_EQ(7u, as_base.now_ns());
}

TEST(ClockSeam, SteadyClockIsMonotonic) {
  const co::Clock& clock = co::steady_clock();
  const std::uint64_t a = clock.now_ns();
  const std::uint64_t b = clock.now_ns();
  EXPECT_LE(a, b);
}

// ---------------------------------------------------------------------------
// Serving-layer metrics + the parity contract

TEST(ServeMetrics, ManualClockSteadyClockAndSequentialAreBitIdentical) {
  auto model =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  const std::vector<cx::BasicBlock> blocks = {
      cb::listing1_motivating(), cb::listing2_case_study1(),
      cb::listing3_case_study2()};

  std::vector<cc::Explanation> reference;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    reference.push_back(
        cc::CometExplainer(*model, light_options(30 + i)).explain(blocks[i]));
  }

  co::ManualClock clock(1000);
  const auto run_server = [&](const co::Clock* clk) {
    cs::X86ExplanationServer server(
        {.workers = 3, .queue_capacity = 8, .clock = clk});
    server.register_model("crude", model);
    std::vector<std::uint64_t> tickets;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      tickets.push_back(server.submit("crude", blocks[i], light_options(30 + i)));
    }
    std::vector<cs::X86ExplanationServer::Served> by_ticket(blocks.size());
    for (const auto& served : server.drain()) {
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        if (tickets[i] == served.id) by_ticket[i] = served;
      }
    }
    return by_ticket;
  };

  const auto manual = run_server(&clock);
  const auto steady = run_server(nullptr);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    expect_identical(reference[i], manual[i].explanation);
    expect_identical(reference[i], steady[i].explanation);
    // A frozen manual clock: every lifecycle stamp is the clock's exact
    // value — deterministic, not merely plausible.
    EXPECT_EQ(1000u, manual[i].trace.admit_ns);
    EXPECT_EQ(1000u, manual[i].trace.deliver_ns);
    EXPECT_EQ(0u, manual[i].trace.queue_wait_ns());
    EXPECT_EQ(0u, manual[i].trace.run_ns());
    // The steady clock stamps a monotone lifecycle.
    const auto& trace = steady[i].trace;
    EXPECT_GT(trace.admit_ns, 0u);
    EXPECT_LE(trace.admit_ns, trace.start_ns);
    EXPECT_LE(trace.start_ns, trace.done_ns);
    EXPECT_LE(trace.done_ns, trace.deliver_ns);
  }
}

TEST(ServeMetrics, LifecycleCountersAndHistogramsFill) {
  auto model =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  co::ManualClock clock(5);
  cs::X86ExplanationServer server(
      {.workers = 2, .queue_capacity = 8, .clock = &clock});
  server.register_model("crude", model);
  const std::vector<cx::BasicBlock> blocks = {cb::listing1_motivating(),
                                              cb::listing2_case_study1()};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    server.submit("crude", blocks[i], light_options(50 + i));
  }
  const auto results = server.drain();
  ASSERT_EQ(blocks.size(), results.size());

  const auto snap = server.metrics().snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(blocks.size(), counter("serve_submitted"));
  EXPECT_EQ(blocks.size(), counter("serve_completed"));
  EXPECT_EQ(0u, counter("serve_submit_blocked"));

  std::uint64_t run_count = 0, queue_count = 0, deliver_count = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("serve_run_ns", 0) == 0) run_count += h.count;
    if (name.rfind("serve_queue_wait_ns", 0) == 0) queue_count += h.count;
    if (name == "serve_deliver_wait_ns") deliver_count = h.count;
  }
  EXPECT_EQ(blocks.size(), run_count);
  EXPECT_EQ(blocks.size(), queue_count);
  EXPECT_EQ(blocks.size(), deliver_count);

  // After the drain nothing is queued or outstanding.
  for (const auto& [name, v] : snap.gauges) {
    if (name == "serve_queue_depth" || name == "serve_outstanding") {
      EXPECT_EQ(0.0, v) << name;
    }
  }

  // Both exporters include the per-model-key histograms.
  EXPECT_NE(std::string::npos, server.metrics_text().find(
                                   "serve_run_ns_count{model_key=\"crude\"}"));
  EXPECT_NE(std::string::npos,
            server.metrics_json().find("serve_run_ns{model_key=\\\"crude\\\"}"));
}

TEST(ServeMetrics, ModelKeyWithQuoteBackslashNewlineScrapesWellFormed) {
  auto model =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  const std::string key = "a\"b\\c\nd";
  cs::X86ExplanationServer server({.workers = 1, .queue_capacity = 4});
  server.register_model(key, model);
  server.submit(key, cb::listing1_motivating(), light_options(7));
  ASSERT_EQ(1u, server.drain().size());

  const std::string text = server.metrics_text();
  std::istringstream lines(text);
  std::size_t n = 0;
  for (std::string line; std::getline(lines, line); ++n) {
    EXPECT_TRUE(well_formed_exposition_line(line)) << line;
  }
  EXPECT_GT(n, 0u);
  EXPECT_NE(std::string::npos,
            text.find(R"(serve_run_ns_count{model_key="a\"b\\c\nd"} 1)"))
      << text;
}
