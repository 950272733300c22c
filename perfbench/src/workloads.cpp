#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "bhive/dataset.h"
#include "catalog.h"
#include "cost/ithemal_model.h"
#include "host_speed.h"
#include "layers.h"
#include "net/sim_transport.h"
#include "serve/explanation_server.h"
#include "serve/remote_shard.h"
#include "sim/models.h"

namespace perfbench {

namespace bhive = comet::bhive;
namespace net = comet::net;
namespace serve = comet::serve;
namespace sim = comet::sim;

namespace {

using PlainTraits = core::X86AnchorTraits;
using Model = std::shared_ptr<const cost::CostModel>;

constexpr cost::MicroArch kUarch = cost::MicroArch::Haswell;

/// Set-up repetitions per run; setup_s is their median. Training Ithemal
/// takes ~5 s, so workloads that train it set up twice.
constexpr int kSweepSetups = 5;
constexpr int kIthemalSetups = 2;

/// serve-mixed: open-loop arrival rate (requests per reference second)
/// and worker count. 2 workers saturate at about 19 requests/s on this mix
/// (4-vCPU x86 VM, GCC 12). At 9/s, half of that, queueing made the
/// latency percentiles swing by a third from seed to seed; 6/s still
/// queues and keeps them steadier. With the generator thread and the shard
/// session that is 4 threads.
constexpr double kServeRate = 6.0;
constexpr std::size_t kServeWorkers = 2;

/// The generator probes the host's speed only when the next arrival is at
/// least this far off, so a probe never makes it late; it checks whether
/// the server is idle at this interval.
constexpr std::uint64_t kProbeGapNs = 10'000'000;

/// Work per sweep run is fixed, not time-boxed: a run makes whole passes
/// over the catalog, so every seed explains the same multiset of entries
/// and only their order differs (a partial pass would make the timing
/// depend on which entries it happened to cover). The pass count is sized
/// from this nominal rate (explanations per second of either model on a
/// 4-vCPU x86 VM, GCC 12) so that a run lasts about --seconds.
constexpr double kSweepRate = 9.0;

// ------------------------------------------------------------ helpers ----

double ms(double ns) { return ns / 1e6; }

/// Linear-interpolated quantile of `v` (0 <= q <= 1); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so under a launcher it would report the
/// launcher's peak when that is larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

Model make_uica() { return std::make_shared<sim::UiCASimModel>(kUarch); }

/// Train the Ithemal LSTM from scratch into `dir`: the dataset and
/// configuration of core::make_model, so the weights are the repository's
/// canonical ones (training is deterministic).
Model train_ithemal(const std::filesystem::path& dir) {
  bhive::DatasetOptions data;
  data.size = 3000;
  data.seed = 2024;
  const bhive::Dataset dataset = bhive::generate_dataset(data);
  auto model = std::make_shared<cost::IthemalModel>(kUarch);
  std::filesystem::remove_all(dir);
  model->train_or_load(dir / "ithemal_hsw.bin", dataset.block_views(),
                       dataset.label_views(kUarch));
  return model;
}

template <typename Traits>
typename Traits::Options options_for(const Item& item, PerturbLedger* ledger) {
  if constexpr (std::is_same_v<Traits, TracedTraits>) {
    TracedOptions options;
    static_cast<core::CometOptions&>(options) = explain_options(item.seed);
    options.ledger = ledger;
    return options;
  } else {
    (void)ledger;
    return explain_options(item.seed);
  }
}

template <typename Traits>
core::Explanation explain(const cost::CostModel& model, const Item& item,
                          PerturbLedger* ledger) {
  const typename Traits::Options options = options_for<Traits>(item, ledger);
  return core::AnchorEngine<Traits>(model, options).explain(item.block);
}

/// Probes of the host's speed taken around each set-up, before and after.
constexpr int kSetupProbes = 4;

/// Median of `repeats` timed set-ups, in reference seconds (probes around
/// each one go to `speed`); `setup` returns the rig, the last one is kept.
template <typename Rig, typename Fn>
Rig timed_setups(int repeats, Fn setup, SpeedLog& speed, double* median_s) {
  std::vector<double> seconds;
  Rig rig;
  for (int k = 0; k < repeats; ++k) {
    rig = Rig{};  // tear the previous set-up down outside the timed span
    speed.probe(kSetupProbes);
    const std::uint64_t t0 = now_ns();
    rig = setup(k);
    const std::uint64_t t1 = now_ns();
    speed.probe(kSetupProbes);
    seconds.push_back(speed.normalize(t0, t1) / 1e9);
  }
  *median_s = quantile(seconds, 0.5);
  return rig;
}

/// Tracing overhead: each of `n` explanations runs untraced (`plain(i)`)
/// and traced (`traced(i)`), alternating which goes first so that slow
/// drift of the machine cancels. Returns traced time / untraced time - 1.
template <typename Plain, typename Traced>
double paired_overhead(std::size_t n, Plain plain, Traced traced) {
  std::uint64_t plain_ns = 0;
  std::uint64_t traced_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 2; ++k) {
      const bool run_traced = (k == 0) == (i % 2 == 1);
      const std::uint64_t t0 = now_ns();
      if (run_traced) {
        traced(i);
      } else {
        plain(i);
      }
      (run_traced ? traced_ns : plain_ns) += now_ns() - t0;
    }
  }
  return ratio(static_cast<double>(traced_ns),
               static_cast<double>(plain_ns)) -
         1.0;
}

// --------------------------------------------------------- per-layer ----

/// Everything the per-layer metrics are computed from.
struct LayerTotals {
  std::uint64_t explanations = 0;
  std::uint64_t wall_ns = 0;  ///< traced explanation time, summed
  cost::QueryStats queries;
  std::uint64_t model_blocks = 0;  ///< blocks the cost models predicted
  std::uint64_t model_ns = 0;      ///< time inside the cost models
  std::uint64_t remote_explanations = 0;
  std::uint64_t round_trips = 0;
  std::uint64_t round_trip_ns = 0;  ///< client side, wire included
  std::uint64_t server_ns = 0;      ///< shard server's model time
  std::uint64_t failovers = 0;
  std::uint64_t wire_errors = 0;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  double submit_lag_ms_max = 0.0;
  double queue_depth_max = 0.0;
  double overhead = 0.0;  ///< traced / untraced time of the same work - 1
};

std::vector<Metric> layer_metrics(const PerturbLedger& l,
                                  const LayerTotals& t) {
  const auto wall = static_cast<double>(t.wall_ns);
  const auto n = static_cast<double>(t.explanations);
  const auto samples = static_cast<double>(l.sample.count());
  const double remote_ns =
      static_cast<double>(t.round_trip_ns) - static_cast<double>(t.server_ns);
  const double timed = static_cast<double>(l.sample.total_ns()) +
                       static_cast<double>(l.contains.total_ns()) +
                       static_cast<double>(l.setup.total_ns()) +
                       static_cast<double>(l.features.total_ns()) +
                       static_cast<double>(t.model_ns) + remote_ns;
  const auto per_call_us = [](const Tally& tally) {
    return ratio(static_cast<double>(tally.total_ns()) / 1e3,
                 static_cast<double>(tally.count()));
  };
  const cost::QueryStats& q = t.queries;
  const auto remote_n = static_cast<double>(t.remote_explanations);
  const auto trips = static_cast<double>(t.round_trips);
  return {
      {"perturb.sample_calls", ratio(samples, n), "count"},
      {"perturb.sample_us", per_call_us(l.sample), "us"},
      {"perturb.sample_share",
       ratio(static_cast<double>(l.sample.total_ns()), wall), "ratio"},
      {"perturb.contains_share",
       ratio(static_cast<double>(l.contains.total_ns()), wall), "ratio"},
      {"perturb.empty_frac", ratio(static_cast<double>(l.empty), samples),
       "ratio"},
      {"perturb.unsound_frac", ratio(static_cast<double>(l.unsound), samples),
       "ratio"},
      {"perturb.setup_us", per_call_us(l.setup), "us"},
      {"graph.features_us", per_call_us(l.features), "us"},
      {"broker.requested", ratio(static_cast<double>(q.requested), n),
       "count"},
      {"broker.evaluated", ratio(static_cast<double>(q.evaluated), n),
       "count"},
      {"broker.hit_rate", q.hit_rate(), "ratio"},
      {"broker.batch_calls", ratio(static_cast<double>(q.batch_calls), n),
       "count"},
      {"broker.batch_fill", q.batch_fill(), "count"},
      {"model.blocks", ratio(static_cast<double>(t.model_blocks), n),
       "count"},
      {"model.us_per_block",
       ratio(static_cast<double>(t.model_ns) / 1e3,
             static_cast<double>(t.model_blocks)),
       "us"},
      {"model.predict_share", ratio(static_cast<double>(t.model_ns), wall),
       "ratio"},
      {"engine.other_share", wall > 0.0 ? 1.0 - timed / wall : 0.0, "ratio"},
      {"serve.queue_wait_ms_p50", quantile(t.queue_wait_ms, 0.5), "ms"},
      {"serve.queue_wait_ms_p90", quantile(t.queue_wait_ms, 0.9), "ms"},
      {"serve.run_ms_p50", quantile(t.run_ms, 0.5), "ms"},
      {"serve.run_ms_p90", quantile(t.run_ms, 0.9), "ms"},
      {"serve.submit_lag_ms_max", t.submit_lag_ms_max, "ms"},
      {"serve.queue_depth_max", t.queue_depth_max, "count"},
      {"remote.round_trips", ratio(trips, remote_n), "count"},
      {"remote.round_trip_us",
       ratio(static_cast<double>(t.round_trip_ns) / 1e3, trips), "us"},
      {"remote.server_predict_us",
       ratio(static_cast<double>(t.server_ns) / 1e3, trips), "us"},
      {"remote.overhead_share",
       ratio(remote_ns, static_cast<double>(t.round_trip_ns)), "ratio"},
      {"remote.failovers", static_cast<double>(t.failovers), "count"},
      {"remote.wire_errors", static_cast<double>(t.wire_errors), "count"},
      {"trace.overhead", t.overhead, "ratio"},
  };
}

std::vector<Metric> end_to_end(double throughput,
                               const std::vector<double>& latency_ms,
                               double setup_s) {
  return {
      {"throughput_per_s", throughput, "1/s"},
      {"latency_ms_p50", quantile(latency_ms, 0.5), "ms"},
      {"latency_ms_p90", quantile(latency_ms, 0.9), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// ------------------------------------------------------------ sweeps ----

struct Sweep {
  Model model;
  std::vector<Item> items;
  std::vector<std::size_t> order;
  const Item& at(std::size_t i) const {
    return items[order[i % order.size()]];
  }
};

Result run_sweep(ModelId id, const RunConfig& config, const Oracle& oracle) {
  Result result;
  Outcome outcome;
  const auto setup = [&](int k) {
    Sweep sweep;
    sweep.model = id == ModelId::UiCA
                      ? make_uica()
                      : train_ithemal(std::filesystem::path(config.workdir) /
                                      ("setup-" + std::to_string(k)));
    sweep.items = sweep_catalog(id);
    sweep.order = seeded_order(sweep.items.size(), config.seed);
    // Warm-up: one checked explanation before any timing, of the same
    // entry whatever the seed, so set-up time does not depend on it.
    const Item& first = sweep.items[0];
    if (!oracle.check(first, explain<PlainTraits>(*sweep.model, first,
                                                  nullptr))) {
      result.correct = false;
    }
    return sweep;
  };
  const int repeats = config.trace ? 1
                      : id == ModelId::UiCA ? kSweepSetups
                                            : kIthemalSetups;
  SpeedLog speed;
  double setup_s = 0.0;
  const Sweep sweep = timed_setups<Sweep>(repeats, setup, speed, &setup_s);

  const auto checked = [&](const Item& item, const core::Explanation& e) {
    outcome.record(oracle.check(item, e));
  };

  if (!config.trace) {
    // Closed loop: the next explanation starts when the last one is done.
    // A probe of the host's speed precedes each one; each explanation's
    // time is divided by the slowdown around it.
    const auto passes = static_cast<std::size_t>(std::max(
        1.0, std::round(config.seconds * kSweepRate /
                        static_cast<double>(sweep.items.size()))));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    for (std::size_t i = 0; i < passes * sweep.items.size(); ++i) {
      const Item& item = sweep.at(i);
      speed.probe();
      const std::uint64_t t0 = now_ns();
      const core::Explanation e =
          explain<PlainTraits>(*sweep.model, item, nullptr);
      spans.emplace_back(t0, now_ns());
      checked(item, e);
    }
    speed.probe(kSetupProbes);
    std::vector<double> latency_ms;
    double busy_ms = 0.0;
    for (const auto& [t0, t1] : spans) {
      latency_ms.push_back(ms(speed.normalize(t0, t1)));
      busy_ms += latency_ms.back();
    }
    result.metrics = end_to_end(
        1e3 * ratio(static_cast<double>(latency_ms.size()), busy_ms),
        latency_ms, setup_s);
  } else {
    // Half a run's work, explained twice: untraced and traced. Counts
    // repeat exactly for a given seed and --seconds.
    const auto count = static_cast<std::size_t>(
        std::max(1.0, std::round(config.seconds * kSweepRate / 2.0)));
    PerturbLedger ledger;
    const TimedModel timed(sweep.model);
    LayerTotals totals;
    totals.overhead = paired_overhead(
        count,
        [&](std::size_t i) {
          checked(sweep.at(i),
                  explain<PlainTraits>(*sweep.model, sweep.at(i), nullptr));
        },
        [&](std::size_t i) {
          const std::uint64_t t0 = now_ns();
          const core::Explanation e =
              explain<TracedTraits>(timed, sweep.at(i), &ledger);
          totals.wall_ns += now_ns() - t0;
          totals.queries += e.query_stats;
          checked(sweep.at(i), e);
        });
    totals.explanations = count;
    totals.model_blocks = timed.blocks();
    totals.model_ns = timed.busy_ns();
    result.metrics = layer_metrics(ledger, totals);
  }
  result.host_slowdown = speed.median_slowdown();
  result.attempted = outcome.attempted;
  result.failed = outcome.failed;
  result.correct = result.correct && outcome.failed == 0;
  return result;
}

// ------------------------------------------------------- serve-mixed ----

/// The serving stack: an ExplanationServer with a local uiCA model and
/// Ithemal behind RemoteShardClient -> sim transport -> RemoteShardServer,
/// one connection. With `timed`, TimedModel decorators sit in front of
/// uiCA, of the client, and of the model behind the shard server. Members
/// are destroyed bottom-up: the server joins its workers first, then the
/// shard server stops its session.
template <typename Traits>
struct ServeRig {
  std::shared_ptr<TimedModel> timed_uica;
  std::shared_ptr<TimedModel> timed_client;
  std::shared_ptr<TimedModel> timed_server;
  std::unique_ptr<serve::RemoteShardServer> shard;
  std::shared_ptr<serve::RemoteShardClient> client;
  std::unique_ptr<serve::ExplanationServer<Traits>> server;
};

template <typename Traits>
std::unique_ptr<ServeRig<Traits>> make_rig(const Model& uica,
                                           const Model& ithemal, bool timed,
                                           std::size_t queue_capacity) {
  auto rig = std::make_unique<ServeRig<Traits>>();
  Model shard_model = ithemal;
  if (timed) {
    rig->timed_server = std::make_shared<TimedModel>(ithemal);
    shard_model = rig->timed_server;
  }
  rig->shard = std::make_unique<serve::RemoteShardServer>(shard_model);
  serve::RemoteShardServer* shard = rig->shard.get();
  serve::RemoteShardOptions remote;
  remote.request_timeout_ns = 30'000'000'000ULL;
  remote.fallback = ithemal;  // a failover is counted as a failure
  rig->client = std::make_shared<serve::RemoteShardClient>(
      [shard]() -> std::unique_ptr<net::Transport> {
        auto [client_end, server_end] = net::make_sim_pair();
        shard->start(std::move(server_end));
        return std::move(client_end);
      },
      remote);
  Model uica_key = uica;
  Model ithemal_key = rig->client;
  if (timed) {
    rig->timed_uica = std::make_shared<TimedModel>(uica);
    rig->timed_client = std::make_shared<TimedModel>(rig->client);
    uica_key = rig->timed_uica;
    ithemal_key = rig->timed_client;
  }
  serve::ServeOptions options;
  options.workers = kServeWorkers;
  options.queue_capacity = queue_capacity;  // submit() never blocks
  rig->server = std::make_unique<serve::ExplanationServer<Traits>>(options);
  rig->server->register_model(model_name(ModelId::UiCA), uica_key);
  rig->server->register_model(model_name(ModelId::Ithemal), ithemal_key);
  return rig;
}

struct Arrival {
  const Item* item = nullptr;
  std::uint64_t at_ns = 0;  ///< intended arrival, from the loop's start
};

/// `count` Poisson arrivals at kServeRate, conditioned on their number
/// (sorted uniform times over count / kServeRate seconds), so every seed
/// offers the same load. Requests alternate uiCA / Ithemal and take each
/// model's catalog entries in a seeded order: a run of whole passes over
/// the catalog serves the same multiset of requests whatever the seed, and
/// no seed repeats within a pass.
std::vector<Arrival> arrival_schedule(const std::vector<Item>& catalog,
                                      std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed ^ 0x5e7e'0000ULL);
  const double window_ns = static_cast<double>(count) / kServeRate * 1e9;
  std::vector<std::uint64_t> times(count);
  for (auto& t : times) {
    t = static_cast<std::uint64_t>(rng.uniform() * window_ns);
  }
  std::sort(times.begin(), times.end());
  std::vector<const Item*> by_model[2];
  for (const Item& item : catalog) {
    by_model[item.model == ModelId::UiCA ? 0 : 1].push_back(&item);
  }
  rng.shuffle(by_model[0]);
  rng.shuffle(by_model[1]);
  std::vector<Arrival> schedule(count);
  for (std::size_t r = 0; r < count; ++r) {
    const auto& list = by_model[r % 2];
    schedule[r] = {list[(r / 2) % list.size()], times[r]};
  }
  return schedule;
}

struct LoopStats {
  std::vector<double> latency_ms;  ///< intended arrival -> done
  double throughput = 0.0;
  std::uint64_t run_ns = 0;  ///< summed engine time on the workers
  LayerTotals layers;        ///< the serve.* and broker inputs
};

/// Open loop: submit each request at its intended time, whatever the
/// server is doing, then collect everything. The queue is sized so
/// submit() never blocks; a late generator shows as submit lag.
///
/// With `speed`, the schedule runs on the reference clock: the generator
/// probes the host's speed while the server is idle and stretches each
/// gap between arrivals by the slowdown it last saw, so the load offered
/// relative to the host's speed stays the same when the host slows down
/// (queueing would otherwise amplify a slow spell many times over), and
/// latencies and throughput are in reference time.
template <typename Traits>
LoopStats run_open_loop(ServeRig<Traits>& rig,
                        const std::vector<Arrival>& schedule,
                        const Oracle& oracle, PerturbLedger* ledger,
                        SpeedLog* speed, Outcome& outcome) {
  auto& server = *rig.server;
  LoopStats stats;
  std::map<std::uint64_t, std::size_t> request_of;  // ticket -> schedule
  std::vector<std::uint64_t> due_at(schedule.size());
  if (speed != nullptr) speed->probe(kSetupProbes);
  const std::uint64_t start = now_ns() + 2'000'000;
  std::uint64_t due = start;
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    const std::uint64_t gap =
        schedule[r].at_ns - (r == 0 ? 0 : schedule[r - 1].at_ns);
    due += static_cast<std::uint64_t>(
        static_cast<double>(gap) *
        (speed != nullptr ? speed->slowdown_at(now_ns()) : 1.0));
    due_at[r] = due;
    // Probe only while the server is idle, so the probe neither competes
    // with the workers nor reads their contention as the host's speed.
    while (speed != nullptr) {
      const std::uint64_t now = now_ns();
      if (now + kProbeGapNs >= due) break;
      if (server.outstanding() == 0) speed->probe();
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min(kProbeGapNs, due - kProbeGapNs - now)));
    }
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::uint64_t now = now_ns();
    stats.layers.submit_lag_ms_max =
        std::max(stats.layers.submit_lag_ms_max,
                 ms(static_cast<double>(now > due ? now - due : 0)));
    const Item& item = *schedule[r].item;
    request_of[server.submit(model_name(item.model), item.block,
                             options_for<Traits>(item, ledger))] = r;
  }
  const auto all_served = server.drain();
  if (speed != nullptr) speed->probe(kSetupProbes);
  std::uint64_t last_done = start;
  std::vector<std::pair<std::uint64_t, int>> depth_events;
  for (const auto& served : all_served) {
    const std::size_t r = request_of.at(served.id);
    const Item& item = *schedule[r].item;
    const bool ran = served.status == serve::ServeStatus::kOk;
    outcome.record(ran && oracle.check(item, served.explanation));
    if (!ran) continue;  // a refusal carries no timings
    const serve::RequestTrace& t = served.trace;
    last_done = std::max(last_done, t.done_ns);
    stats.latency_ms.push_back(
        ms(speed != nullptr
               ? speed->normalize(due_at[r], t.done_ns)
               : static_cast<double>(t.done_ns - due_at[r])));
    stats.layers.queue_wait_ms.push_back(
        ms(static_cast<double>(t.queue_wait_ns())));
    stats.layers.run_ms.push_back(ms(static_cast<double>(t.run_ns())));
    stats.run_ns += t.run_ns();
    stats.layers.queries += served.explanation.query_stats;
    if (item.model == ModelId::Ithemal) ++stats.layers.remote_explanations;
    depth_events.emplace_back(t.admit_ns, +1);
    depth_events.emplace_back(t.start_ns, -1);
  }
  // Queue depth over time: admitted and not yet started.
  std::sort(depth_events.begin(), depth_events.end());
  int depth = 0;
  for (const auto& [at, delta] : depth_events) {
    depth += delta;
    stats.layers.queue_depth_max =
        std::max(stats.layers.queue_depth_max, static_cast<double>(depth));
  }
  stats.layers.explanations = schedule.size();
  // On the reference clock the arrivals span the schedule's own length;
  // the tail after the last one is normalised like any other span.
  const std::uint64_t last_due = due_at.back();
  const std::uint64_t tail_end = std::max(last_done, last_due);
  stats.throughput = ratio(
      static_cast<double>(schedule.size()),
      (speed != nullptr ? static_cast<double>(schedule.back().at_ns) +
                              speed->normalize(last_due, tail_end)
                        : static_cast<double>(tail_end - start)) /
          1e9);
  return stats;
}

template <typename Traits>
void warm_up(ServeRig<Traits>& rig, const std::vector<Item>& catalog,
             const Oracle& oracle, PerturbLedger* ledger, bool* correct) {
  // One request per route: opens the shard connection, touches both models.
  std::map<std::uint64_t, const Item*> item_of;
  for (const Item* item : {&catalog[0], &catalog[1]}) {
    item_of[rig.server->submit(model_name(item->model), item->block,
                               options_for<Traits>(*item, ledger))] = item;
  }
  for (const auto& served : rig.server->drain()) {
    if (served.status != serve::ServeStatus::kOk ||
        !oracle.check(*item_of.at(served.id), served.explanation)) {
      *correct = false;
    }
  }
}

Result run_serve(const RunConfig& config, const Oracle& oracle) {
  Result result;
  Outcome outcome;
  const std::vector<Item> catalog = serve_catalog();
  // Whole passes over the catalog (see arrival_schedule); a traced run
  // serves the first half of one pass.
  const auto passes = static_cast<std::size_t>(std::max(
      1.0, std::round(kServeRate * config.seconds /
                      static_cast<double>(catalog.size()))));
  const std::vector<Arrival> schedule = arrival_schedule(
      catalog, config.seed,
      config.trace ? catalog.size() / 2 : passes * catalog.size());
  const std::size_t capacity = schedule.size() + 8;

  struct Rig {
    Model uica;
    Model ithemal;
    std::unique_ptr<ServeRig<PlainTraits>> plain;
  };
  const auto setup = [&](int k) {
    Rig rig;
    rig.ithemal = train_ithemal(std::filesystem::path(config.workdir) /
                                ("setup-" + std::to_string(k)));
    rig.uica = make_uica();
    rig.plain = make_rig<PlainTraits>(rig.uica, rig.ithemal, false, capacity);
    warm_up(*rig.plain, catalog, oracle, nullptr, &result.correct);
    return rig;
  };
  SpeedLog speed(/*hand_offs=*/true);
  double setup_s = 0.0;
  Rig rig = timed_setups<Rig>(config.trace ? 1 : kIthemalSetups, setup,
                              speed, &setup_s);

  // Remote failovers and wire errors count as failed operations.
  std::uint64_t transport_failures = 0;
  const auto add_transport_failures = [&](const serve::RemoteShardClient& c) {
    const auto counters = c.counters();
    transport_failures += counters.failovers + counters.wire_errors;
  };
  if (!config.trace) {
    const LoopStats plain =
        run_open_loop(*rig.plain, schedule, oracle, nullptr, &speed, outcome);
    result.metrics = end_to_end(plain.throughput, plain.latency_ms, setup_s);
  } else {
    // The same models behind a traced stack.
    auto traced_rig =
        make_rig<TracedTraits>(rig.uica, rig.ithemal, true, capacity);
    PerturbLedger warm_ledger;
    warm_up(*traced_rig, catalog, oracle, &warm_ledger, &result.correct);
    const TimedModel& uica = *traced_rig->timed_uica;
    const TimedModel& client = *traced_rig->timed_client;
    const TimedModel& shard = *traced_rig->timed_server;
    const std::uint64_t uica_ns0 = uica.busy_ns();
    const std::uint64_t uica_blocks0 = uica.blocks();
    const std::uint64_t client_ns0 = client.busy_ns();
    const std::uint64_t shard_ns0 = shard.busy_ns();
    const std::uint64_t shard_blocks0 = shard.blocks();
    const auto counters0 = traced_rig->client->counters();

    PerturbLedger ledger;
    LoopStats traced =
        run_open_loop(*traced_rig, schedule, oracle, &ledger, nullptr, outcome);
    const auto counters = traced_rig->client->counters();
    LayerTotals& t = traced.layers;
    t.wall_ns = traced.run_ns;
    t.model_blocks =
        uica.blocks() - uica_blocks0 + shard.blocks() - shard_blocks0;
    t.model_ns = uica.busy_ns() - uica_ns0 + shard.busy_ns() - shard_ns0;
    t.round_trips = counters.requests - counters0.requests;
    t.round_trip_ns = client.busy_ns() - client_ns0;
    t.server_ns = shard.busy_ns() - shard_ns0;
    t.failovers = counters.failovers - counters0.failovers;
    t.wire_errors = counters.wire_errors - counters0.wire_errors;

    // Overhead: the same requests replayed one at a time on this thread,
    // untraced (the plain stack's models) and traced (the decorated ones).
    // Open-loop timings swing too much with arrival luck to compare.
    PerturbLedger replay_ledger;
    t.overhead = paired_overhead(
        schedule.size(),
        [&](std::size_t i) {
          const Item& item = *schedule[i].item;
          const cost::CostModel& model = item.model == ModelId::UiCA
                                             ? *rig.uica
                                             : *rig.plain->client;
          outcome.record(oracle.check(
              item, explain<PlainTraits>(model, item, nullptr)));
        },
        [&](std::size_t i) {
          const Item& item = *schedule[i].item;
          const cost::CostModel& model =
              item.model == ModelId::UiCA ? uica : client;
          outcome.record(oracle.check(
              item, explain<TracedTraits>(model, item, &replay_ledger)));
        });
    add_transport_failures(*traced_rig->client);
    result.metrics = layer_metrics(ledger, t);
  }
  add_transport_failures(*rig.plain->client);
  outcome.failed += transport_failures;
  result.host_slowdown = speed.median_slowdown();
  result.attempted = outcome.attempted;
  result.failed = outcome.failed;
  result.correct = result.correct && outcome.failed == 0;
  return result;
}

}  // namespace

Result run_workload(const RunConfig& config) {
  const Oracle oracle = Oracle::load(config.fingerprints);
  if (config.workload == "explain-uica") {
    return run_sweep(ModelId::UiCA, config, oracle);
  }
  if (config.workload == "explain-ithemal") {
    return run_sweep(ModelId::Ithemal, config, oracle);
  }
  if (config.workload == "serve-mixed") return run_serve(config, oracle);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

void record_fingerprints(const std::string& path, const std::string& workdir) {
  const Model uica = make_uica();
  const Model ithemal =
      train_ithemal(std::filesystem::path(workdir) / "record");
  std::map<std::string, Fingerprint> table;
  std::vector<Item> items = sweep_catalog(ModelId::UiCA);
  for (Item& item : sweep_catalog(ModelId::Ithemal)) items.push_back(item);
  for (Item& item : serve_catalog()) items.push_back(item);
  for (const Item& item : items) {
    const cost::CostModel& model =
        item.model == ModelId::UiCA ? *uica : *ithemal;
    table[item_key(item)] =
        fingerprint_of(explain<PlainTraits>(model, item, nullptr));
  }
  Oracle::save(path, table);
}

}  // namespace perfbench
