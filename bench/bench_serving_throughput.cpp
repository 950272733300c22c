// Serving-throughput bench: requests/sec of the concurrent explanation
// server vs. the sequential path, at 1/2/4/8 workers.
//
// The regime that motivates the serve/ subsystem (sharded and remote
// serving) is a model backend whose per-query latency is not this
// process's CPU — a remote inference service, a simulator farm, a
// measurement rig. serve::RemoteStandInModel reproduces that regime
// portably (including on single-core CI runners) by charging a fixed
// round-trip per predict_batch call on top of the real crude/oracle
// models; predictions are untouched, so every served explanation is
// verified bit-identical to its sequentially computed twin.
//
// Acceptance gate printed explicitly: >= 2x throughput at 4 workers vs.
// sequential, with bit-identical results.
//
// Overrides for CI fast smoke (env wins over argv):
//   COMET_SERVE_WORKERS=2,4   (or argv[1])  worker counts to sweep
//   COMET_SERVE_JOBS=4        (or argv[2])  number of requests to submit
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bhive/paper_blocks.h"
#include "cost/crude_model.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/isa_servers.h"
#include "serve/remote_model.h"
#include "serve/shed_policy.h"
#include "sim/models.h"

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

}  // namespace

int main(int argc, char** argv) {
  constexpr auto kRoundTrip = std::chrono::microseconds(3000);

  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  if (const char* env = std::getenv("COMET_SERVE_WORKERS")) {
    worker_counts = parse_counts(env);
  } else if (argc > 1) {
    worker_counts = parse_counts(argv[1]);
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4, 8};
  std::size_t jobs_override = 0;  // 0 = default request set
  if (const char* env = std::getenv("COMET_SERVE_JOBS")) {
    const auto parsed = parse_counts(env);
    if (!parsed.empty()) jobs_override = parsed[0];
  } else if (argc > 2) {
    const auto parsed = parse_counts(argv[2]);
    if (!parsed.empty()) jobs_override = parsed[0];
  }

  auto crude =
      std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  auto oracle =
      std::make_shared<const comet::sim::HardwareOracle>(ck::MicroArch::Haswell);
  auto remote_crude =
      std::make_shared<const cs::RemoteStandInModel>(crude, kRoundTrip);
  auto remote_oracle =
      std::make_shared<const cs::RemoteStandInModel>(oracle, kRoundTrip);

  const std::vector<cx::BasicBlock> blocks = {
      cb::listing1_motivating(),    cb::listing2_case_study1(),
      cb::listing3_case_study2(),   cb::listing4_appendixF_beta1(),
      cb::listing5_appendixF_beta2(),
  };
  std::vector<Request> requests;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    requests.push_back({"crude-hsw", blocks[i], serving_options(10 + i)});
    requests.push_back({"oracle-hsw", blocks[i], serving_options(20 + i)});
  }
  if (jobs_override != 0) {
    std::vector<Request> cycled;
    for (std::size_t i = 0; i < jobs_override; ++i) {
      Request r = requests[i % requests.size()];
      r.options.seed = 100 + i;  // distinct seeds: no hidden dedup
      cycled.push_back(std::move(r));
    }
    requests = std::move(cycled);
  }

  print_header(
      "Serving throughput: concurrent explanation server vs. sequential",
      "remote-backend stand-in, round-trip = " +
          std::to_string(kRoundTrip.count()) + " us/batch, " +
          std::to_string(requests.size()) + " requests (crude + oracle, " +
          std::to_string(blocks.size()) + " paper blocks)");

  const auto model_for = [&](const std::string& key) {
    return key == "crude-hsw"
               ? std::static_pointer_cast<const ck::CostModel>(remote_crude)
               : std::static_pointer_cast<const ck::CostModel>(remote_oracle);
  };

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
  Table latency({"workers", "queue p50", "queue p95", "queue p99", "run p50",
                 "run p95", "run p99"});
  std::string last_report;
  for (const std::size_t workers : worker_counts) {
    cs::X86ExplanationServer server(
        {.workers = workers, .queue_capacity = requests.size()});
    server.register_model("crude-hsw", remote_crude);
    server.register_model("oracle-hsw", remote_oracle);
    const auto start = Clock::now();
    std::vector<std::uint64_t> tickets;
    for (const auto& r : requests) {
      tickets.push_back(server.submit(r.key, r.block, r.options));
    }
    const auto results = server.drain();
    const double wall_ms = ms_since(start);

    bool ok = results.size() == requests.size();
    for (const auto& served : results) {
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        if (tickets[i] == served.id) {
          ok = ok && identical(served.explanation, reference[i]);
        }
      }
    }
    all_identical = all_identical && ok;
    const double speedup = seq_ms / wall_ms;
    if (workers == 4) {
      speedup_at_4 = speedup;
      swept_4 = true;
    }
    table.add_row({std::to_string(workers), Table::fmt(wall_ms, 1),
                   Table::fmt(1000.0 * requests.size() / wall_ms, 2),
                   Table::fmt(speedup, 2) + "x", ok ? "yes" : "NO"});

    // Request-lifecycle latencies, merged across model keys (the server
    // keeps one histogram per model_key label).
    const auto snap = server.metrics().snapshot();
    const auto queue = merged_hist(snap, "serve_queue_wait_ns");
    const auto run = merged_hist(snap, "serve_run_ns");
    latency.add_row({std::to_string(workers), ns_to_ms(queue.p50()),
                     ns_to_ms(queue.p95()), ns_to_ms(queue.p99()),
                     ns_to_ms(run.p50()), ns_to_ms(run.p95()),
                     ns_to_ms(run.p99())});
    last_report = server.report();
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

  // ---- overload: priority lanes and load shedding under 2x load ----
  // Offered load is 2x what the admission queue + workers hold at once,
  // alternating interactive/batch. With shedding off, the whole backlog
  // queues behind the bounded queue (backpressure) and interactive tail
  // latency pays for every batch job ahead of it; with the watermark
  // policy on, batch work is shed early (a typed refusal, never a silent
  // drop — ok + shed always equals offered) and the interactive tail
  // tightens. Goodput counts completed explanations only. Honors the
  // same COMET_SERVE_WORKERS (last entry) / COMET_SERVE_JOBS overrides.
  const std::size_t ov_workers = worker_counts.back();
  const std::size_t ov_capacity = 2 * ov_workers;
  const std::size_t ov_offered =
      jobs_override != 0 ? jobs_override : 2 * (ov_capacity + ov_workers);
  print_header("Overload: 2x offered load, shedding off vs on",
               std::to_string(ov_offered) + " requests at " +
                   std::to_string(ov_workers) + " workers, queue capacity " +
                   std::to_string(ov_capacity) +
                   ", interactive/batch alternating");
  Table overload({"shedding", "wall ms", "ok", "shed", "goodput req/s",
                  "interactive p50 ms", "interactive p99 ms"});
  bool accounted = true;
  for (const bool shed_on : {false, true}) {
    cs::ServeOptions serve_options;
    serve_options.workers = ov_workers;
    serve_options.queue_capacity = ov_capacity;
    if (shed_on) {
      serve_options.shed_policy =
          std::make_shared<const cs::WatermarkShedPolicy>();
    }
    cs::X86ExplanationServer server(serve_options);
    server.register_model("crude-hsw", remote_crude);
    server.register_model("oracle-hsw", remote_oracle);

    const auto start = Clock::now();
    for (std::size_t i = 0; i < ov_offered; ++i) {
      const Request& r = requests[i % requests.size()];
      cs::RequestOptions request;
      request.lane = i % 2 == 0 ? cs::Lane::kInteractive : cs::Lane::kBatch;
      if (request.lane == cs::Lane::kInteractive) {
        // Generous enough that feasible work never expires; the deadline
        // is what lets the saturation watermark judge feasibility.
        request.deadline_ns =
            comet::obs::steady_clock().now_ns() + 60ull * 1'000'000'000;
      }
      cc::CometOptions job = r.options;
      job.seed = 1000 + i;  // distinct seeds: no hidden dedup
      server.submit(r.key, r.block, job, request);
    }
    const auto results = server.drain();
    const double wall_ms = ms_since(start);

    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t other = 0;
    std::vector<double> interactive_ms;
    for (const auto& served : results) {
      if (cs::has_explanation(served.status)) {
        ++ok;
        if (served.lane == cs::Lane::kInteractive) {
          interactive_ms.push_back(
              static_cast<double>(served.trace.done_ns -
                                  served.trace.admit_ns) /
              1e6);
        }
      } else if (served.status == cs::ServeStatus::kShed) {
        ++shed;
      } else {
        ++other;
      }
    }
    accounted = accounted && other == 0 && ok + shed == ov_offered;
    std::sort(interactive_ms.begin(), interactive_ms.end());
    const auto pct = [&interactive_ms](double p) {
      if (interactive_ms.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(interactive_ms.size() - 1) + 0.5);
      return interactive_ms[std::min(idx, interactive_ms.size() - 1)];
    };
    overload.add_row({shed_on ? "watermark" : "off", Table::fmt(wall_ms, 1),
                      std::to_string(ok), std::to_string(shed),
                      Table::fmt(1000.0 * static_cast<double>(ok) / wall_ms,
                                 2),
                      Table::fmt(pct(0.50), 2), Table::fmt(pct(0.99), 2)});
  }
  std::printf("%s\n", overload.to_string().c_str());
  std::printf("every offered request accounted (ok + shed == offered): %s\n",
              accounted ? "yes" : "NO");

  return 0;
}
