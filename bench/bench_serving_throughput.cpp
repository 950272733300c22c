// Serving-throughput bench: requests/sec of the concurrent explanation
// server vs. the sequential path, at 1/2/4/8 workers, on the real crude
// and oracle models; then an open-loop overload test of load shedding.
//
// Every served explanation is verified bit-identical to its sequentially
// computed twin. Acceptance gate printed explicitly: >= 2x throughput at 4
// workers vs. sequential, with bit-identical results. The speed gate is
// print-only, since it depends on the host; the bench exits 1 when a served
// explanation differs from its twin or an offered request is unaccounted.
//
// One untimed served pass runs before anything is timed: on a small
// multi-core VM, multi-threaded runs shorter than about a second read
// ~1.0x whatever the worker count until the threads and cores are warm.
//
// The overload section is open loop: seeded Poisson arrivals at 2x the
// saturation rate measured by the sweep, half of them interactive, with
// latency measured from each request's intended arrival, so the time a
// producer spends blocked in submit() counts (no coordinated omission).
// It prints interactive p50/p99 with shedding off and with
// ServeOptions::shed_batch_lane on.
//
// Overrides for CI fast smoke (env wins over argv):
//   COMET_SERVE_WORKERS=2,4   (or argv[1])  worker counts to sweep
//   COMET_SERVE_JOBS=4        (or argv[2])  number of requests to submit
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "bhive/paper_blocks.h"
#include "cost/crude_model.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/isa_servers.h"
#include "sim/models.h"
#include "util/rng.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace cs = comet::serve;
namespace cx = comet::x86;
using comet::bench::print_header;
using comet::bench::scaled;
using comet::util::Table;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Request {
  std::string key;
  cx::BasicBlock block;
  cc::CometOptions options;
};

cc::CometOptions serving_options(std::uint64_t seed) {
  cc::CometOptions opt;
  opt.epsilon = 0.25;
  opt.coverage_samples = scaled(200);
  opt.batch_size = 8;
  opt.max_pulls_per_level = 48;
  opt.final_precision_samples = 64;
  opt.seed = seed;
  return opt;
}

bool identical(const cc::Explanation& a, const cc::Explanation& b) {
  return a.features == b.features && a.precision == b.precision &&
         a.coverage == b.coverage && a.met_threshold == b.met_threshold &&
         a.model_queries == b.model_queries;
}

// Parses a csv/whitespace list of unsigned integers ("2,4" -> {2, 4}).
std::vector<std::size_t> parse_counts(const char* s) {
  std::vector<std::size_t> out;
  std::size_t cur = 0;
  bool have = false;
  for (; s != nullptr && *s != '\0'; ++s) {
    if (*s >= '0' && *s <= '9') {
      cur = cur * 10 + static_cast<std::size_t>(*s - '0');
      have = true;
    } else if (have) {
      out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have) out.push_back(cur);
  return out;
}

// Merges every histogram whose name starts with `prefix` (i.e. all
// model_key labels of one base metric) into a single snapshot.
comet::obs::HistogramSnapshot merged_hist(
    const comet::obs::MetricsRegistry::Snapshot& snap,
    const std::string& prefix) {
  comet::obs::HistogramSnapshot out;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind(prefix, 0) == 0) out += h;
  }
  return out;
}

std::string ns_to_ms(double ns) { return Table::fmt(ns / 1e6, 2); }

// Nearest-rank percentile of an ascending sample; 0 when empty.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  if (const char* env = std::getenv("COMET_SERVE_WORKERS")) {
    worker_counts = parse_counts(env);
  } else if (argc > 1) {
    worker_counts = parse_counts(argv[1]);
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4, 8};
  std::size_t job_count = 200;
  if (const char* env = std::getenv("COMET_SERVE_JOBS")) {
    const auto parsed = parse_counts(env);
    if (!parsed.empty() && parsed[0] != 0) job_count = parsed[0];
  } else if (argc > 2) {
    const auto parsed = parse_counts(argv[2]);
    if (!parsed.empty() && parsed[0] != 0) job_count = parsed[0];
  }

  auto crude =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  auto oracle =
      std::make_shared<const comet::sim::HardwareOracle>(ck::MicroArch::Haswell);

  const std::vector<cx::BasicBlock> blocks = {
      cb::listing1_motivating(),    cb::listing2_case_study1(),
      cb::listing3_case_study2(),   cb::listing4_appendixF_beta1(),
      cb::listing5_appendixF_beta2(),
  };
  // Alternates crude/oracle over the paper blocks; distinct seeds, so no
  // two requests are the same search.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < job_count; ++i) {
    requests.push_back({i % 2 == 0 ? "crude-hsw" : "oracle-hsw",
                        blocks[(i / 2) % blocks.size()],
                        serving_options(100 + i)});
  }

  print_header(
      "Serving throughput: concurrent explanation server vs. sequential",
      std::to_string(requests.size()) + " requests (crude + oracle, " +
          std::to_string(blocks.size()) + " paper blocks)");

  const auto model_for = [&](const std::string& key) {
    return key == "crude-hsw"
               ? std::static_pointer_cast<const ck::CostModel>(crude)
               : std::static_pointer_cast<const ck::CostModel>(oracle);
  };
  const auto serve_all = [&](std::size_t workers,
                             std::vector<std::uint64_t>* tickets) {
    auto server = std::make_unique<cs::X86ExplanationServer>(
        cs::ServeOptions{.workers = workers,
                         .queue_capacity = requests.size()});
    server->register_model("crude-hsw", crude);
    server->register_model("oracle-hsw", oracle);
    for (const auto& r : requests) {
      const std::uint64_t ticket = server->submit(r.key, r.block, r.options);
      if (tickets != nullptr) tickets->push_back(ticket);
    }
    return server;
  };

  // ---- untimed warm-up, at the widest sweep point ----
  serve_all(*std::max_element(worker_counts.begin(), worker_counts.end()),
            nullptr)
      ->drain();

  // ---- sequential baseline (and the parity reference) ----
  std::vector<cc::Explanation> reference;
  const auto seq_start = Clock::now();
  for (const auto& r : requests) {
    reference.push_back(
        cc::CometExplainer(*model_for(r.key), r.options).explain(r.block));
  }
  const double seq_ms = ms_since(seq_start);

  // ---- served at 1/2/4/8 workers ----
  Table table({"workers", "wall ms", "req/s", "speedup", "bit-identical"});
  table.add_row({"sequential", Table::fmt(seq_ms, 1),
                 Table::fmt(1000.0 * requests.size() / seq_ms, 2), "1.00x",
                 "-"});
  double speedup_at_4 = 0.0;
  bool swept_4 = false;
  bool all_identical = true;
  // Saturation rate (req/s) of the overload section's worker count.
  const std::size_t ov_workers = std::find(worker_counts.begin(),
                                           worker_counts.end(),
                                           4) != worker_counts.end()
                                     ? 4
                                     : worker_counts.back();
  double saturation_per_s = 0.0;
  Table latency({"workers", "queue p50", "queue p95", "queue p99", "run p50",
                 "run p95", "run p99"});
  std::string last_report;
  for (const std::size_t workers : worker_counts) {
    std::vector<std::uint64_t> tickets;
    const auto start = Clock::now();
    const auto server = serve_all(workers, &tickets);
    const auto results = server->drain();
    const double wall_ms = ms_since(start);

    std::unordered_map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < tickets.size(); ++i) index_of[tickets[i]] = i;
    bool ok = results.size() == requests.size();
    for (const auto& served : results) {
      ok = ok && served.status == cs::ServeStatus::kOk &&
           identical(served.explanation, reference[index_of.at(served.id)]);
    }
    all_identical = all_identical && ok;
    const double speedup = seq_ms / wall_ms;
    const double per_s = 1000.0 * requests.size() / wall_ms;
    if (workers == 4) {
      speedup_at_4 = speedup;
      swept_4 = true;
    }
    if (workers == ov_workers) saturation_per_s = per_s;
    table.add_row({std::to_string(workers), Table::fmt(wall_ms, 1),
                   Table::fmt(per_s, 2), Table::fmt(speedup, 2) + "x",
                   ok ? "yes" : "NO"});

    // Request-lifecycle latencies, merged across model keys (the server
    // keeps one histogram per model_key label).
    const auto snap = server->metrics().snapshot();
    const auto queue = merged_hist(snap, "serve_queue_wait_ns");
    const auto run = merged_hist(snap, "serve_run_ns");
    latency.add_row({std::to_string(workers), ns_to_ms(queue.p50()),
                     ns_to_ms(queue.p95()), ns_to_ms(queue.p99()),
                     ns_to_ms(run.p50()), ns_to_ms(run.p95()),
                     ns_to_ms(run.p99())});
    last_report = ck::format_stats_report(server->stats_by_model());
  }
  std::printf("%s\n", table.to_string().c_str());
  print_header("Request-lifecycle latency percentiles (ms)",
               "queue-wait = admit -> worker pickup; run = worker service");
  std::printf("%s\n", latency.to_string().c_str());
  std::printf("query traffic at %zu workers:\n%s\n", worker_counts.back(),
              last_report.c_str());
  if (swept_4) {
    std::printf("speedup at 4 workers = %.2fx (target >= 2x): %s\n",
                speedup_at_4,
                speedup_at_4 >= 2.0 && all_identical ? "PASS" : "FAIL");
  } else {
    std::printf("gate skipped (4 workers not swept); bit-identical: %s\n",
                all_identical ? "yes" : "NO");
  }

  // ---- overload: open-loop Poisson arrivals at 2x saturation ----
  // Each seed draws one arrival schedule, alternating interactive/batch;
  // the same schedule runs with shedding off and on. A producer thread
  // submits every request at its intended time (or as soon as submit()
  // unblocks, when the bounded queue is full), and latency runs from the
  // intended arrival to the worker's completion stamp, so backpressure
  // shows up in the latency instead of silently slowing the arrivals.
  // With the watermark policy on, batch work is shed above half queue
  // occupancy (a typed refusal, never a silent drop: ok + shed always
  // equals offered). Goodput counts completed explanations only.
  const std::size_t ov_capacity = 2 * ov_workers;
  const double offered_per_s = 2.0 * saturation_per_s;
  print_header(
      "Overload: open-loop Poisson arrivals at 2x saturation, shedding off "
      "vs on",
      std::to_string(requests.size()) + " requests per run at " +
          Table::fmt(offered_per_s, 1) + " req/s (saturation " +
          Table::fmt(saturation_per_s, 1) + " req/s at " +
          std::to_string(ov_workers) + " workers), queue capacity " +
          std::to_string(ov_capacity) +
          ", interactive/batch alternating; latency from intended arrival");
  Table overload({"seed", "shedding", "ok", "shed", "goodput req/s",
                  "interactive p50 ms", "interactive p99 ms"});
  bool accounted = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    comet::util::Rng rng(seed);
    std::vector<std::uint64_t> arrival_ns(requests.size());
    double t_ns = 0.0;
    for (auto& at : arrival_ns) {
      t_ns += -std::log(1.0 - rng.uniform()) / offered_per_s * 1e9;
      at = static_cast<std::uint64_t>(t_ns);
    }
    for (const bool shed_on : {false, true}) {
      cs::ServeOptions serve_options;
      serve_options.workers = ov_workers;
      serve_options.queue_capacity = ov_capacity;
      serve_options.shed_batch_lane = shed_on;
      cs::X86ExplanationServer server(serve_options);
      server.register_model("crude-hsw", crude);
      server.register_model("oracle-hsw", oracle);

      const comet::obs::Clock& clock = comet::obs::steady_clock();
      std::unordered_map<std::uint64_t, std::size_t> index_of;
      const std::uint64_t origin_ns = clock.now_ns();
      const auto start = Clock::now();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::uint64_t due = origin_ns + arrival_ns[i];
        const std::uint64_t now = clock.now_ns();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        const Request& r = requests[i];
        cs::RequestOptions request;
        request.lane = i % 2 == 0 ? cs::Lane::kInteractive : cs::Lane::kBatch;
        index_of[server.submit(r.key, r.block, r.options, request)] = i;
      }
      const auto results = server.drain();
      const double wall_ms = ms_since(start);

      std::size_t ok = 0;
      std::size_t shed = 0;
      std::vector<double> interactive_ms;
      for (const auto& served : results) {
        if (cs::has_explanation(served.status)) {
          ++ok;
          if (served.lane == cs::Lane::kInteractive) {
            const std::uint64_t intended =
                origin_ns + arrival_ns[index_of.at(served.id)];
            interactive_ms.push_back(
                static_cast<double>(served.trace.done_ns - intended) / 1e6);
          }
        } else if (served.status == cs::ServeStatus::kShed) {
          ++shed;
        }
      }
      accounted = accounted && ok + shed == requests.size();
      std::sort(interactive_ms.begin(), interactive_ms.end());
      overload.add_row(
          {std::to_string(seed), shed_on ? "watermark" : "off",
           std::to_string(ok), std::to_string(shed),
           Table::fmt(1000.0 * static_cast<double>(ok) / wall_ms, 2),
           Table::fmt(percentile(interactive_ms, 0.50), 2),
           Table::fmt(percentile(interactive_ms, 0.99), 2)});
    }
  }
  std::printf("%s\n", overload.to_string().c_str());
  std::printf("every offered request accounted (ok + shed == offered): %s\n",
              accounted ? "yes" : "NO");

  return all_identical && accounted ? 0 : 1;
}
