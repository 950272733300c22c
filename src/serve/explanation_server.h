// ExplanationServer: the request scheduler at the top of the serving stack
//
//     scheduler  →  registered models (local, or a RemoteShardClient)
//
// It accepts a stream of (block, model-key, options) jobs, multiplexes them
// over a fixed set of worker threads (one AnchorEngine run per job), and
// delivers explanations in completion order. Model keys name registered
// model instances — typically one per (model kind, µarch) pair — each a
// const-thread-safe model shared by all workers. A remote backend is one
// serve::RemoteShardClient, whose RemoteShardOptions::fallback is the one
// failover path.
//
// Flow control: submit() is the one admission call. It goes through a
// bounded queue and blocks until space frees up, so backpressure
// propagates to the producer. Shutdown is a graceful drain — every
// accepted job is explained before the workers join, and drain() lets
// callers wait for exactly that without destroying the server.
//
// Traffic controls: every submission carries a RequestOptions — a lane
// (interactive vs. batch) and an optional absolute deadline on the
// server's clock. The admission queue is two-lane and deadline-aware:
// work that is already expired is rejected at admit time, queued work
// whose deadline passes before a worker picks it up is expired without
// running, and both cases surface as typed Served results
// (ServeStatus::kDeadlineExceeded*) — never a silent drop. Workers
// dequeue interactive-lane work first; an anti-starvation credit hands
// the batch lane one dequeue in every kBatchCreditEvery.
// With ServeOptions::shed_batch_lane set, a batch-lane job is refused at
// admission (ServeStatus::kShed) once the queue is at least half full;
// interactive work is never shed. Sheds are counted per lane in the
// metrics registry. Deadlines gate *whether* a job runs,
// never how it runs: an explanation that completes — even one finishing
// past its deadline, delivered as ServeStatus::kLate — is bit-identical
// to the sequential path. Deadline checks are the one scheduling-side
// clock use, and they read the same injectable obs::Clock as the
// metrics, so tests drive them with an obs::ManualClock.
//
// Model errors: an exception thrown out of a job's engine run (say a
// RemoteShardClient with no fallback timing out) fails that job only. It
// is delivered as ServeStatus::kFailed carrying the error's what() text,
// counted in serve_failed{model_key=...}, and the worker goes on serving.
//
// Determinism: each job's engine owns its RNG, seeded from the job's
// options and block (see AnchorEngine::explain), and each job's broker is
// private to the worker running it, so a served explanation is
// bit-identical to one computed sequentially with the same (block, model,
// options) — regardless of worker count or completion order. Tests assert
// this.
//
// Observability: the server carries an obs::MetricsRegistry and traces
// every request's lifecycle — admit (accepted into the queue) → start (a
// worker dequeued it) → done (engine finished) → deliver (handed to the
// consumer). A refusal (shed or expired at admission) is stamped admit =
// start = done, so its queue-wait and run spans are zero. Exported per
// model key: queue-wait and service-latency histograms (p50/p95/p99);
// globally: live queue-depth and outstanding gauges, submitted/completed
// counters, and the backpressure counter (submit had to block). Scrape via
// metrics().to_prometheus() (text exposition) or metrics().to_json(). All
// clock reads go through obs::Clock (ServeOptions::clock, steady by
// default) and only ever land in metrics and trace fields — never in
// scheduling or the search — so served explanations remain bit-identical
// to sequential runs on the steady clock or a mocked one
// (tests/test_obs.cpp).
//
// The server is templated over the same ISA traits as the engine, so the
// one scheduler serves both instantiations: x86 (core::X86AnchorTraits)
// and RISC-V (riscv::RvAnchorTraits). See serve/isa_servers.h for the
// ready-made aliases.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/anchor_engine.h"
#include "cost/query_stats.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "util/sync.h"

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

struct ServeOptions {
  std::size_t workers = 2;         ///< concurrent explanation sessions
  std::size_t queue_capacity = 32; ///< admission-queue bound (backpressure)
  /// Time source for metrics, traces, and deadline checks; nullptr =
  /// obs::steady_clock(). Tests inject an obs::ManualClock for
  /// deterministic latency and expiry assertions. Must outlive the
  /// server.
  const obs::Clock* clock = nullptr;
  /// Admission-time load shedding: refuse batch-lane jobs (typed kShed)
  /// while the queue is at least half full, keeping the headroom for
  /// interactive work. Off = bounded-queue backpressure only.
  bool shed_batch_lane = false;
};

/// Anti-starvation: with both lanes non-empty, one dequeue in every
/// kBatchCreditEvery goes to the batch lane (the rest are
/// interactive-first), so the batch lane can never starve outright.
constexpr std::size_t kBatchCreditEvery = 4;

/// How a submission left the server. Only kOk and kLate carry a valid
/// explanation; the other statuses are typed refusals (the job never
/// ran) or a typed model failure, delivered through the same
/// next()/drain() stream so no accepted ticket is ever silently dropped.
enum class ServeStatus : std::uint8_t {
  kOk = 0,                    ///< ran to completion (within deadline, if any)
  kLate = 1,                  ///< ran to completion but past its deadline
  kDeadlineExceededAtAdmit = 2,  ///< already expired when submitted
  kDeadlineExceededInQueue = 3,  ///< expired while queued; never ran
  kShed = 4,                  ///< batch job shed at admission
  kFailed = 5,                ///< the model threw; Served::error says why
};

/// True when a Served with this status carries a usable explanation.
constexpr bool has_explanation(ServeStatus status) {
  return status == ServeStatus::kOk || status == ServeStatus::kLate;
}

inline const char* serve_status_name(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kLate: return "late";
    case ServeStatus::kDeadlineExceededAtAdmit: return "expired_at_admit";
    case ServeStatus::kDeadlineExceededInQueue: return "expired_in_queue";
    case ServeStatus::kShed: return "shed";
    case ServeStatus::kFailed: return "failed";
  }
  return "unknown";
}

/// Per-request traffic class, passed alongside the block and engine
/// options at submission.
struct RequestOptions {
  Lane lane = Lane::kInteractive;
  /// Absolute deadline on the server's clock (ServeOptions::clock), in
  /// ns; 0 = none. Advisory for scheduling only — it never changes the
  /// bits of an explanation that completes.
  std::uint64_t deadline_ns = 0;
};

/// Request-lifecycle timestamps (obs::Clock readings, ns).
struct RequestTrace {
  std::uint64_t admit_ns = 0;    ///< accepted into the admission queue
  std::uint64_t start_ns = 0;    ///< dequeued by a worker; run begins
  std::uint64_t done_ns = 0;     ///< explanation finished
  std::uint64_t deliver_ns = 0;  ///< handed to the consumer (next/drain)

  std::uint64_t queue_wait_ns() const { return start_ns - admit_ns; }
  std::uint64_t run_ns() const { return done_ns - start_ns; }
  std::uint64_t total_ns() const { return deliver_ns - admit_ns; }
};

template <typename Traits>
class ExplanationServer {
 public:
  using Block = typename Traits::Block;
  using Model = typename Traits::Model;
  using Options = typename Traits::Options;
  using Explanation = typename Traits::Explanation;
  using Engine = core::AnchorEngine<Traits>;

  /// One delivered result. Check `status` first: only
  /// has_explanation(status) results carry a valid explanation.
  struct Served {
    std::uint64_t id = 0;     ///< submission ticket
    std::string model_key;    ///< which registered model served it
    Explanation explanation;  ///< bit-identical to the sequential path
    RequestTrace trace;       ///< lifecycle timestamps
    ServeStatus status = ServeStatus::kOk;
    Lane lane = Lane::kInteractive;
    std::uint64_t deadline_ns = 0;  ///< echo of the request's deadline
    std::string error;  ///< kFailed only: the model error's what() text
  };

  explicit ExplanationServer(ServeOptions options = {})
      : options_(options),
        clock_(options.clock != nullptr ? *options.clock
                                        : obs::steady_clock()) {
    if (options_.workers == 0) options_.workers = 1;
    if (options_.queue_capacity == 0) options_.queue_capacity = 1;
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Graceful drain: every accepted job completes before the workers join.
  ~ExplanationServer() COMET_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  ExplanationServer(const ExplanationServer&) = delete;
  ExplanationServer& operator=(const ExplanationServer&) = delete;

  /// Register a model under `key`. The instance must be const-thread-safe
  /// (all models in this repository are, RemoteShardClient included); it
  /// is shared by every job submitted under the key.
  void register_model(const std::string& key,
                      std::shared_ptr<const Model> model)
      COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    models_[key] = std::move(model);
  }

  /// Blocking submit: waits for queue space (backpressure), returns the
  /// job's ticket. Throws std::out_of_range for an unregistered key.
  /// Expired or shed work is *accepted* (a ticket is issued) but resolves
  /// instantly to a typed Served result instead of queueing.
  std::uint64_t submit(const std::string& model_key, Block block,
                       Options options, RequestOptions request = {})
      COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    std::shared_ptr<const Model> model = lookup(model_key);
    if (const auto verdict = admission_verdict(request)) {
      return finish_rejected(model_key, request, *verdict);
    }
    if (queued() >= options_.queue_capacity) {
      submit_blocked_.increment();  // producer is about to feel backpressure
    }
    // Backpressure is deliberately unbounded: the producer asked to
    // block until the queue has room.
    // comet-lint: allow(unbounded-wait)
    while (queued() >= options_.queue_capacity) cv_space_.wait(lock);
    // The deadline may have passed while this producer was parked.
    if (request.deadline_ns != 0 && clock_.now_ns() >= request.deadline_ns) {
      return finish_rejected(model_key, request,
                             ServeStatus::kDeadlineExceededAtAdmit);
    }
    return enqueue(model_key, std::move(model), std::move(block),
                   std::move(options), request);
  }

  /// Next completed explanation, in completion order. Blocks while
  /// accepted jobs are outstanding; returns nullopt once every accepted
  /// job has been delivered.
  std::optional<Served> next() COMET_EXCLUDES(mutex_) {
    std::optional<Served> served;
    {
      util::MutexLock lock(mutex_);
      // Graceful-drain contract: every accepted job completes, so this
      // wait always terminates.
      // comet-lint: allow(unbounded-wait)
      while (completed_.empty() && outstanding_ != 0) cv_done_.wait(lock);
      if (completed_.empty()) return std::nullopt;
      served = std::move(completed_.front());
      completed_.pop_front();
    }
    stamp_delivery(*served);
    return served;
  }

  /// Wait for every accepted job, then return all undelivered results in
  /// completion order.
  std::vector<Served> drain() COMET_EXCLUDES(mutex_) {
    std::vector<Served> out;
    {
      util::MutexLock lock(mutex_);
      // Graceful-drain contract: every accepted job completes, so this
      // wait always terminates.
      // comet-lint: allow(unbounded-wait)
      while (outstanding_ != 0) cv_done_.wait(lock);
      out.reserve(completed_.size());
      for (auto& served : completed_) out.push_back(std::move(served));
      completed_.clear();
    }
    for (auto& served : out) stamp_delivery(served);
    return out;
  }

  /// Accepted jobs not yet completed (queued + running).
  std::size_t outstanding() const COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return outstanding_;
  }

  /// Per-key merged query ledgers of everything served so far; the drain
  /// report is cost::format_stats_report(stats_by_model()).
  std::map<std::string, cost::QueryStats> stats_by_model() const
      COMET_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return stats_;
  }

  /// The server's metrics registry: serve_submitted / serve_completed /
  /// serve_submit_blocked counters, live
  /// serve_queue_depth / serve_outstanding gauges (plus per-lane
  /// serve_lane_depth{lane=...}), the serve_deliver_wait_ns histogram,
  /// per-model-key serve_queue_wait_ns{model_key=...} /
  /// serve_run_ns{model_key=...} latency histograms, and the traffic-
  /// control counters: serve_deadline_expired{stage="admit"|"queue"},
  /// serve_deadline_late, and serve_shed{lane="interactive"|"batch"};
  /// and serve_failed{model_key=...} for jobs whose model threw.
  /// Scrape it with metrics().to_prometheus() (text exposition) or
  /// metrics().to_json() (histogram summaries with p50/p95/p99).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Request {
    std::uint64_t id = 0;
    std::string model_key;
    std::shared_ptr<const Model> model;
    Block block;
    Options options;
    std::uint64_t admit_ns = 0;  ///< obs::Clock stamp at admission
    Lane lane = Lane::kInteractive;
    std::uint64_t deadline_ns = 0;  ///< absolute, server clock; 0 = none
  };

  // Resolves the model at admission time so workers never touch the
  // registry (the REQUIRES makes "caller holds mutex_" a compile-time
  // contract).
  std::shared_ptr<const Model> lookup(const std::string& key) const
      COMET_REQUIRES(mutex_) {
    const auto it = models_.find(key);
    if (it == models_.end()) {
      throw std::out_of_range("ExplanationServer: unregistered model key '" +
                              key + "'");
    }
    return it->second;
  }

  std::size_t queued() const COMET_REQUIRES(mutex_) {
    return lanes_[0].size() + lanes_[1].size();
  }

  std::deque<Request>& lane_queue(Lane lane) COMET_REQUIRES(mutex_) {
    return lanes_[static_cast<std::size_t>(lane)];
  }

  // Instant admission refusals: already expired, or a batch-lane job shed
  // at half occupancy. nullopt = admit normally. The clock is read only
  // when the request actually carries a deadline.
  std::optional<ServeStatus> admission_verdict(const RequestOptions& request)
      COMET_REQUIRES(mutex_) {
    if (request.deadline_ns != 0 && clock_.now_ns() >= request.deadline_ns) {
      return ServeStatus::kDeadlineExceededAtAdmit;
    }
    if (options_.shed_batch_lane && request.lane == Lane::kBatch &&
        2 * queued() >= options_.queue_capacity) {
      return ServeStatus::kShed;
    }
    return std::nullopt;
  }

  // A refusal still gets a ticket and a typed Served result on the
  // completion stream — never a silent drop — and counts as submitted and
  // completed, so the lifecycle counters balance after drain(). The job
  // never touches outstanding_ (it was never queued), but cv_done_ wakes
  // consumers parked in next()/drain().
  std::uint64_t finish_rejected(const std::string& model_key,
                                const RequestOptions& request,
                                ServeStatus status) COMET_REQUIRES(mutex_) {
    const std::uint64_t ticket = next_id_++;
    Served served;
    served.id = ticket;
    served.model_key = model_key;
    served.status = status;
    served.lane = request.lane;
    served.deadline_ns = request.deadline_ns;
    // Never queued, never run: admit = start = done, like a queue expiry.
    served.trace.admit_ns = clock_.now_ns();
    served.trace.start_ns = served.trace.admit_ns;
    served.trace.done_ns = served.trace.admit_ns;
    submitted_.increment();
    completed_count_.increment();
    if (status == ServeStatus::kShed) {
      metrics_
          .counter(obs::MetricsRegistry::labeled("serve_shed", "lane",
                                                 lane_name(request.lane)))
          .increment();
    } else {
      metrics_
          .counter(obs::MetricsRegistry::labeled("serve_deadline_expired",
                                                 "stage", "admit"))
          .increment();
    }
    completed_.push_back(std::move(served));
    cv_done_.notify_all();
    return ticket;
  }

  // Caller has verified queue space (and, per the annotation, holds mutex_).
  std::uint64_t enqueue(const std::string& model_key,
                        std::shared_ptr<const Model> model, Block block,
                        Options options, const RequestOptions& request_options)
      COMET_REQUIRES(mutex_) {
    const std::uint64_t ticket = next_id_++;
    Request request;
    request.id = ticket;
    request.model_key = model_key;
    request.model = std::move(model);
    request.block = std::move(block);
    request.options = std::move(options);
    request.lane = request_options.lane;
    request.deadline_ns = request_options.deadline_ns;
    request.admit_ns = clock_.now_ns();
    submitted_.increment();
    lane_queue(request.lane).push_back(std::move(request));
    ++outstanding_;
    queue_depth_.set(static_cast<double>(queued()));
    lane_depth(request_options.lane)
        .set(static_cast<double>(lane_queue(request_options.lane).size()));
    outstanding_gauge_.set(static_cast<double>(outstanding_));
    cv_work_.notify_one();
    return ticket;
  }

  // Which lane the next free worker should serve. Interactive first;
  // with both lanes waiting, one dequeue in every kBatchCreditEvery is
  // batch (anti-starvation). A batch dequeue resets the credit either
  // way, so an idle period can't bank more than one batch turn.
  Lane pick_lane() COMET_REQUIRES(mutex_) {
    const bool interactive = !lane_queue(Lane::kInteractive).empty();
    const bool batch = !lane_queue(Lane::kBatch).empty();
    if (interactive && batch) {
      if (batch_credit_ + 1 >= kBatchCreditEvery) {
        batch_credit_ = 0;
        return Lane::kBatch;
      }
      ++batch_credit_;
      return Lane::kInteractive;
    }
    if (batch) {
      batch_credit_ = 0;
      return Lane::kBatch;
    }
    return Lane::kInteractive;
  }

  // Delivery stamp: the last lifecycle timestamp, taken as the result
  // leaves next()/drain(). deliver - done is how long a finished result
  // waited for its consumer.
  void stamp_delivery(Served& served) {
    served.trace.deliver_ns = clock_.now_ns();
    deliver_wait_ns_.record(served.trace.deliver_ns - served.trace.done_ns);
  }

  void worker_loop() COMET_EXCLUDES(mutex_) {
    for (;;) {
      Request request;
      {
        util::MutexLock lock(mutex_);
        // Worker parking loop; woken by new work or shutdown, both of
        // which always arrive.
        // comet-lint: allow(unbounded-wait)
        while (!stopping_ && queued() == 0) cv_work_.wait(lock);
        if (queued() == 0) return;  // stopping and fully drained
        const Lane lane = pick_lane();
        request = std::move(lane_queue(lane).front());
        lane_queue(lane).pop_front();
        queue_depth_.set(static_cast<double>(queued()));
        lane_depth(lane).set(static_cast<double>(lane_queue(lane).size()));
        cv_space_.notify_one();
      }
      Served served;
      served.id = request.id;
      served.model_key = std::move(request.model_key);
      served.lane = request.lane;
      served.deadline_ns = request.deadline_ns;
      served.trace.admit_ns = request.admit_ns;
      served.trace.start_ns = clock_.now_ns();
      // Queue expiry: the deadline passed while the job waited for a
      // worker. Typed result, no engine run.
      if (request.deadline_ns != 0 &&
          served.trace.start_ns >= request.deadline_ns) {
        served.status = ServeStatus::kDeadlineExceededInQueue;
        served.trace.done_ns = served.trace.start_ns;
        completed_count_.increment();
        metrics_
            .counter(obs::MetricsRegistry::labeled("serve_deadline_expired",
                                                   "stage", "queue"))
            .increment();
        finish(std::move(served), /*ran=*/false);
        continue;
      }
      bool ran = true;
      try {
        // The engine references the request's model for the duration of
        // the run (it lives in `request` on this stack frame) and takes
        // over the request's options.
        Engine engine(*request.model, std::move(request.options));
        served.explanation = engine.explain(request.block);
      } catch (const std::exception& error) {
        served.status = ServeStatus::kFailed;
        served.error = error.what();
        ran = false;
      }
      served.trace.done_ns = clock_.now_ns();
      // Run expiry is only a label: the explanation completed, so it is
      // delivered (bit-identical to sequential) — just marked late.
      if (ran && request.deadline_ns != 0 &&
          served.trace.done_ns >= request.deadline_ns) {
        served.status = ServeStatus::kLate;
        deadline_late_.increment();
      }
      completed_count_.increment();
      // Per-model-key instruments; resolved by name per completion (an
      // engine run dwarfs one map lookup).
      if (ran) {
        metrics_
            .histogram(obs::MetricsRegistry::labeled(
                "serve_queue_wait_ns", "model_key", served.model_key))
            .record(served.trace.queue_wait_ns());
        metrics_
            .histogram(obs::MetricsRegistry::labeled(
                "serve_run_ns", "model_key", served.model_key))
            .record(served.trace.run_ns());
      } else {
        metrics_
            .counter(obs::MetricsRegistry::labeled(
                "serve_failed", "model_key", served.model_key))
            .increment();
      }
      finish(std::move(served), ran);
    }
  }

  // Completion-side bookkeeping shared by the ran, failed and
  // expired-in-queue paths: publish the result, retire the ticket, wake
  // consumers.
  void finish(Served served, bool ran) COMET_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      if (ran) stats_[served.model_key] += served.explanation.query_stats;
      completed_.push_back(std::move(served));
      --outstanding_;
      outstanding_gauge_.set(static_cast<double>(outstanding_));
    }
    cv_done_.notify_all();
  }

  ServeOptions options_;     // immutable after construction
  const obs::Clock& clock_;  // stateless or internally synchronized
  // Instruments are internally synchronized (one util::Mutex each) and the
  // registry map is lock-protected, so none of this needs mutex_. The
  // handles below are resolved once; hot paths increment through them.
  obs::MetricsRegistry metrics_;
  obs::Counter& submitted_ = metrics_.counter("serve_submitted");
  obs::Counter& completed_count_ = metrics_.counter("serve_completed");
  obs::Counter& submit_blocked_ = metrics_.counter("serve_submit_blocked");
  obs::Gauge& queue_depth_ = metrics_.gauge("serve_queue_depth");
  obs::Gauge& outstanding_gauge_ = metrics_.gauge("serve_outstanding");
  obs::Histogram& deliver_wait_ns_ =
      metrics_.histogram("serve_deliver_wait_ns");
  obs::Counter& deadline_late_ = metrics_.counter("serve_deadline_late");
  obs::Gauge& interactive_depth_ = metrics_.gauge(
      obs::MetricsRegistry::labeled("serve_lane_depth", "lane", "interactive"));
  obs::Gauge& batch_depth_ = metrics_.gauge(
      obs::MetricsRegistry::labeled("serve_lane_depth", "lane", "batch"));

  obs::Gauge& lane_depth(Lane lane) {
    return lane == Lane::kInteractive ? interactive_depth_ : batch_depth_;
  }

  mutable util::Mutex mutex_;
  util::CondVar cv_work_;   // queue gained work / stopping
  util::CondVar cv_space_;  // queue gained space
  util::CondVar cv_done_;   // a job completed
  std::map<std::string, std::shared_ptr<const Model>> models_
      COMET_GUARDED_BY(mutex_);
  /// Two-lane admission queue, indexed by Lane; queue_capacity bounds the
  /// lanes' combined size.
  std::array<std::deque<Request>, 2> lanes_ COMET_GUARDED_BY(mutex_);
  std::size_t batch_credit_ COMET_GUARDED_BY(mutex_) = 0;
  std::deque<Served> completed_ COMET_GUARDED_BY(mutex_);
  std::map<std::string, cost::QueryStats> stats_ COMET_GUARDED_BY(mutex_);
  std::size_t outstanding_ COMET_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_id_ COMET_GUARDED_BY(mutex_) = 1;
  bool stopping_ COMET_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;  // written only in the constructor
};

}  // namespace comet::serve
