// Tests for the serving-layer traffic controls (PR 10): per-request
// deadlines with typed expiry at admission, in queue, and after a late
// run; the two-lane admission queue (interactive-first dequeue with the
// batch anti-starvation credit); batch-lane load shedding at half queue
// occupancy with per-lane accounting; and the determinism contract — none of the scheduling
// machinery changes the bits of an explanation that completes.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/comet.h"
#include "cost/crude_model.h"
#include "obs/clock.h"
#include "serve/isa_servers.h"
#include "x86/parser.h"

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

cx::BasicBlock small_block() {
  return cx::parse_block(R"(
    mov rax, 5
    div rcx
    add rsi, rdi
  )");
}

// Blocks every query until the test opens the gate; pins the server's
// single worker so queue contents are under test control.
class GateModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock&) const override {
    wait_open();
    return 1.0;
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    wait_open();
    for (std::size_t i = 0; i < blocks.size(); ++i) out[i] = 1.0;
  }
  std::string name() const override { return "gate"; }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void await_entered() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }

 private:
  void wait_open() const {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool open_ = false;
};

// Moves the manual clock forward on every query, so a run provably takes
// (virtual) time and a run-stage deadline can expire mid-explanation.
// Predictions delegate to a real model: advancing a clock must never
// change the bits.
class ClockAdvancingModel final : public ck::CostModel {
 public:
  ClockAdvancingModel(std::shared_ptr<const ck::CostModel> inner,
                      co::ManualClock& clock, std::uint64_t step_ns)
      : inner_(std::move(inner)), clock_(clock), step_ns_(step_ns) {}

  double predict(const cx::BasicBlock& block) const override {
    clock_.advance_ns(step_ns_);
    return inner_->predict(block);
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    clock_.advance_ns(step_ns_);
    inner_->predict_batch(blocks, out);
  }
  std::string name() const override { return "clock-advancing"; }

 private:
  std::shared_ptr<const ck::CostModel> inner_;
  co::ManualClock& clock_;
  std::uint64_t step_ns_;
};

void expect_identical(const cc::Explanation& a, const cc::Explanation& b) {
  EXPECT_EQ(a.features, b.features)
      << a.features.to_string() << " vs " << b.features.to_string();
  EXPECT_DOUBLE_EQ(a.precision, b.precision);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.met_threshold, b.met_threshold);
  EXPECT_EQ(a.model_queries, b.model_queries);
}

std::uint64_t counter_value(const cs::X86ExplanationServer& server,
                            const std::string& name) {
  for (const auto& [key, value] : server.metrics().snapshot().counters) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

// ---------------- deadline expiry at every stage ----------------

TEST(Deadlines, ExpiredAtAdmitIsATypedRefusalNotASilentDrop) {
  co::ManualClock clock(100);
  cs::X86ExplanationServer server(
      {.workers = 1, .queue_capacity = 4, .clock = &clock});
  server.register_model(
      "crude", std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell));

  // Already past its deadline: a ticket is still issued and the refusal
  // arrives through the ordinary completion stream.
  const auto ticket =
      server.submit("crude", small_block(), light_options(1),
                    {.lane = cs::Lane::kInteractive, .deadline_ns = 50});
  EXPECT_GT(ticket, 0u);

  // The batch lane is refused the same way.
  const auto batch_ticket =
      server.submit("crude", small_block(), light_options(2),
                    {.lane = cs::Lane::kBatch, .deadline_ns = 99});
  EXPECT_GT(batch_ticket, ticket);

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& served : results) {
    EXPECT_EQ(served.status, cs::ServeStatus::kDeadlineExceededAtAdmit);
    EXPECT_FALSE(cs::has_explanation(served.status));
    EXPECT_EQ(served.lane, served.id == ticket ? cs::Lane::kInteractive
                                               : cs::Lane::kBatch);
  }
  EXPECT_EQ(counter_value(server, "serve_deadline_expired{stage=\"admit\"}"),
            2u);
  EXPECT_EQ(server.outstanding(), 0u);
}

TEST(Deadlines, ExpiryInQueueNeverRunsTheEngine) {
  co::ManualClock clock;
  auto gate = std::make_shared<GateModel>();
  cs::X86ExplanationServer server(
      {.workers = 1, .queue_capacity = 8, .clock = &clock});
  server.register_model("gate", gate);

  // Pin the single worker, then queue a job whose deadline passes while
  // it waits.
  const auto pin = server.submit("gate", small_block(), light_options(1));
  gate->await_entered();
  const auto doomed =
      server.submit("gate", small_block(), light_options(2),
                    {.lane = cs::Lane::kInteractive, .deadline_ns = 1000});
  clock.advance_ns(2000);
  gate->open();

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& served : results) {
    if (served.id == pin) {
      EXPECT_EQ(served.status, cs::ServeStatus::kOk);
      EXPECT_GT(served.explanation.model_queries, 0u);
    } else {
      EXPECT_EQ(served.id, doomed);
      EXPECT_EQ(served.status, cs::ServeStatus::kDeadlineExceededInQueue);
      EXPECT_FALSE(cs::has_explanation(served.status));
      // The engine never ran: no model queries, no ledger contribution.
      EXPECT_EQ(served.explanation.model_queries, 0u);
    }
  }
  EXPECT_EQ(counter_value(server, "serve_deadline_expired{stage=\"queue\"}"),
            1u);
}

TEST(Deadlines, ExpiryWhileBlockedInSubmitIsATypedAdmitRefusal) {
  co::ManualClock clock;
  auto gate = std::make_shared<GateModel>();
  cs::X86ExplanationServer server(
      {.workers = 1, .queue_capacity = 1, .clock = &clock});
  server.register_model("gate", gate);

  // Pin the worker, then fill the one queue slot.
  server.submit("gate", small_block(), light_options(1));
  gate->await_entered();
  server.submit("gate", small_block(), light_options(2));

  // This producer finds the queue full and blocks in submit(); its
  // deadline passes while it waits.
  std::thread producer([&server, &clock] {
    server.submit("gate", small_block(), light_options(3),
                  {.deadline_ns = clock.now_ns() + 100});
  });
  // Bounded poll: the producer counts itself blocked before it parks.
  for (int i = 0;
       i < 10'000 && counter_value(server, "serve_submit_blocked") == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter_value(server, "serve_submit_blocked"), 1u);
  clock.advance_ns(200);
  gate->open();
  producer.join();

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 3u);
  std::size_t ok = 0;
  std::size_t expired = 0;
  for (const auto& served : results) {
    if (served.status == cs::ServeStatus::kOk) ++ok;
    if (served.status == cs::ServeStatus::kDeadlineExceededAtAdmit) {
      ++expired;
      EXPECT_EQ(served.deadline_ns, 100u);
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(
      counter_value(server, "serve_deadline_expired{stage=\"admit\"}"), 1u);
}

TEST(Deadlines, LateRunIsDeliveredBitIdenticalAndLabelled) {
  co::ManualClock clock;
  auto crude = std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  auto slow = std::make_shared<const ClockAdvancingModel>(crude, clock,
                                                          /*step_ns=*/500);
  const auto options = light_options(9);
  const auto block = small_block();
  // Sequential ground truth over the same underlying predictions.
  const auto expected = cc::CometExplainer(*crude, options).explain(block);

  cs::X86ExplanationServer server(
      {.workers = 1, .queue_capacity = 4, .clock = &clock});
  server.register_model("slow", slow);
  server.submit("slow", block, options,
                {.lane = cs::Lane::kInteractive, .deadline_ns = 1});

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 1u);
  // The run outlived its deadline, so it is labelled late — but the
  // explanation completed and its bits match the sequential path exactly.
  EXPECT_EQ(results[0].status, cs::ServeStatus::kLate);
  EXPECT_TRUE(cs::has_explanation(results[0].status));
  expect_identical(results[0].explanation, expected);
  EXPECT_EQ(counter_value(server, "serve_deadline_late"), 1u);
}

// ---------------- lanes: ordering and anti-starvation ----------------

TEST(Lanes, InteractiveFirstWithBatchAntiStarvationCredit) {
  auto gate = std::make_shared<GateModel>();
  cs::X86ExplanationServer server({.workers = 1, .queue_capacity = 16});
  server.register_model("gate", gate);

  // Pin the worker, then fill both lanes while nothing can be dequeued.
  const auto pin = server.submit("gate", small_block(), light_options(1));
  gate->await_entered();
  std::vector<std::uint64_t> interactive;
  std::vector<std::uint64_t> batch;
  for (int i = 0; i < 6; ++i) {
    interactive.push_back(server.submit("gate", small_block(),
                                        light_options(10 + i),
                                        {.lane = cs::Lane::kInteractive}));
    if (i < 3) {
      batch.push_back(server.submit("gate", small_block(),
                                    light_options(20 + i),
                                    {.lane = cs::Lane::kBatch}));
    }
  }
  gate->open();

  // Single worker => completion order == dequeue order. With
  // kBatchCreditEvery = 4 and both lanes waiting, every fourth dequeue is
  // batch; once the interactive lane empties, batch drains in order.
  static_assert(cs::kBatchCreditEvery == 4);
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(results[0].id, pin);
  const std::vector<std::uint64_t> expected_order = {
      interactive[0], interactive[1], interactive[2], batch[0],
      interactive[3], interactive[4], interactive[5], batch[1],
      batch[2]};
  for (std::size_t i = 0; i < expected_order.size(); ++i) {
    EXPECT_EQ(results[i + 1].id, expected_order[i]) << "position " << i;
  }
  for (const auto& served : results) {
    EXPECT_EQ(served.status, cs::ServeStatus::kOk);
  }
}

// ---------------- load shedding with per-lane accounting ----------------

TEST(Shedding, BatchShedAtHalfCapacityInteractiveNever) {
  co::ManualClock clock;
  auto gate = std::make_shared<GateModel>();
  cs::ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.clock = &clock;
  options.shed_batch_lane = true;
  cs::X86ExplanationServer server(options);
  server.register_model("gate", gate);

  server.submit("gate", small_block(), light_options(1));
  gate->await_entered();

  // Below half capacity (depth 0..3 of 8) batch work is admitted...
  for (int i = 0; i < 4; ++i) {
    server.submit("gate", small_block(), light_options(10 + i),
                  {.lane = cs::Lane::kBatch});
  }
  EXPECT_EQ(counter_value(server, "serve_shed{lane=\"batch\"}"), 0u);
  // ...and at depth 4 (2 * 4 >= 8) the next batch job is shed, with a
  // ticket and a typed result.
  const auto shed_ticket = server.submit("gate", small_block(),
                                         light_options(30),
                                         {.lane = cs::Lane::kBatch});
  EXPECT_GT(shed_ticket, 0u);
  EXPECT_EQ(counter_value(server, "serve_shed{lane=\"batch\"}"), 1u);

  // Interactive work fills the rest of the queue, with a deadline one
  // nanosecond away or with none: it is never shed.
  for (int i = 0; i < 4; ++i) {
    cs::RequestOptions request{.lane = cs::Lane::kInteractive};
    if (i % 2 == 0) request.deadline_ns = clock.now_ns() + 1;
    server.submit("gate", small_block(), light_options(40 + i), request);
  }
  // At full capacity a batch job is still shed rather than blocked.
  server.submit("gate", small_block(), light_options(50),
                {.lane = cs::Lane::kBatch});
  EXPECT_EQ(counter_value(server, "serve_shed{lane=\"batch\"}"), 2u);
  EXPECT_EQ(counter_value(server, "serve_shed{lane=\"interactive\"}"), 0u);
  EXPECT_EQ(counter_value(server, "serve_submit_blocked"), 0u);

  gate->open();
  const auto results = server.drain();
  // 1 pin + 4 batch + 4 interactive ran; 2 shed refusals rode the stream.
  ASSERT_EQ(results.size(), 11u);
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const auto& served : results) {
    if (served.status == cs::ServeStatus::kOk) ++ok;
    if (served.status == cs::ServeStatus::kShed) {
      ++shed;
      EXPECT_EQ(served.lane, cs::Lane::kBatch);
      EXPECT_FALSE(cs::has_explanation(served.status));
    }
  }
  EXPECT_EQ(ok, 9u);
  EXPECT_EQ(shed, 2u);
}

TEST(Shedding, OddCapacityRoundsTheHalfUp) {
  auto gate = std::make_shared<GateModel>();
  cs::ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 5;
  options.shed_batch_lane = true;
  cs::X86ExplanationServer server(options);
  server.register_model("gate", gate);

  server.submit("gate", small_block(), light_options(1));
  gate->await_entered();
  // Depths 0, 1 and 2 admit (2 * 2 < 5); depth 3 sheds (2 * 3 >= 5).
  for (int i = 0; i < 4; ++i) {
    server.submit("gate", small_block(), light_options(10 + i),
                  {.lane = cs::Lane::kBatch});
  }
  EXPECT_EQ(counter_value(server, "serve_shed{lane=\"batch\"}"), 1u);
  gate->open();
  EXPECT_EQ(server.drain().size(), 5u);
}

// A refusal never queues or runs, so its trace is admit = start = done:
// zero queue wait, zero run time, and a delivery wait measured from the
// refusal — not from clock zero.
TEST(Shedding, RefusalsStampAZeroLengthLifecycle) {
  constexpr std::uint64_t kStart = 10'000'000'000;  // 10 s
  constexpr std::uint64_t kWait = 5'000'000;        // 5 ms
  co::ManualClock clock(kStart);
  auto gate = std::make_shared<GateModel>();
  cs::ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.clock = &clock;
  options.shed_batch_lane = true;
  cs::X86ExplanationServer server(options);
  server.register_model("gate", gate);

  server.submit("gate", small_block(), light_options(1));
  gate->await_entered();
  // One batch job fills the queue to half capacity; the rest shed.
  for (int i = 0; i < 6; ++i) {
    server.submit("gate", small_block(), light_options(10 + i),
                  {.lane = cs::Lane::kBatch});
  }
  // Already expired at admission.
  server.submit("gate", small_block(), light_options(20),
                {.lane = cs::Lane::kInteractive, .deadline_ns = kStart - 1});
  clock.advance_ns(kWait);
  gate->open();

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 8u);
  std::size_t shed = 0;
  std::size_t expired = 0;
  for (const auto& served : results) {
    if (served.status == cs::ServeStatus::kOk) continue;
    shed += served.status == cs::ServeStatus::kShed;
    expired += served.status == cs::ServeStatus::kDeadlineExceededAtAdmit;
    EXPECT_EQ(served.trace.admit_ns, kStart);
    EXPECT_EQ(served.trace.start_ns, kStart);
    EXPECT_EQ(served.trace.done_ns, kStart);
    EXPECT_EQ(served.trace.deliver_ns, kStart + kWait);
    EXPECT_EQ(served.trace.queue_wait_ns(), 0u);
    EXPECT_EQ(served.trace.run_ns(), 0u);
    EXPECT_EQ(served.trace.total_ns(), kWait);
  }
  EXPECT_EQ(shed, 5u);
  EXPECT_EQ(expired, 1u);

  // The refusals' delivery waits are kWait each; the two jobs that ran
  // finished after the clock moved, so they waited zero.
  std::size_t found = 0;
  for (const auto& [name, h] : server.metrics().snapshot().histograms) {
    if (name != "serve_deliver_wait_ns") continue;
    ++found;
    EXPECT_EQ(h.count, 8u);
    EXPECT_EQ(h.max, kWait);
    EXPECT_EQ(h.sum, 6 * kWait);
  }
  EXPECT_EQ(found, 1u);
}

// A refusal is a completed request: after drain() the lifecycle counters
// balance, whether a job ran, was shed, or expired at admission.
TEST(Shedding, RefusalsCountAsCompleted) {
  co::ManualClock clock(1'000);
  auto gate = std::make_shared<GateModel>();
  cs::ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.clock = &clock;
  options.shed_batch_lane = true;
  cs::X86ExplanationServer server(options);
  server.register_model("gate", gate);

  server.submit("gate", small_block(), light_options(1));
  gate->await_entered();
  // Queue depth 1 of 2: the batch job is shed.
  server.submit("gate", small_block(), light_options(2));
  server.submit("gate", small_block(), light_options(3),
                {.lane = cs::Lane::kBatch});
  server.submit("gate", small_block(), light_options(4),
                {.lane = cs::Lane::kInteractive, .deadline_ns = 500});
  gate->open();

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t expired = 0;
  for (const auto& served : results) {
    ok += served.status == cs::ServeStatus::kOk;
    shed += served.status == cs::ServeStatus::kShed;
    expired += served.status == cs::ServeStatus::kDeadlineExceededAtAdmit;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 1u);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(counter_value(server, "serve_submitted"), 4u);
  EXPECT_EQ(counter_value(server, "serve_completed"),
            counter_value(server, "serve_submitted"));
}

// ---------------- determinism under full traffic controls ----------------

TEST(TrafficControls, CompletedExplanationsBitIdenticalToSequential) {
  auto crude = std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  const auto block = small_block();

  std::vector<cc::CometOptions> job_options;
  std::vector<cc::Explanation> expected;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    job_options.push_back(light_options(100 + seed));
    expected.push_back(
        cc::CometExplainer(*crude, job_options.back()).explain(block));
  }

  // Deadlines, lanes, and batch-lane shedding all engaged — but generous
  // enough that every job runs. The scheduling machinery must not perturb
  // a single bit.
  cs::ServeOptions options;
  options.workers = 4;
  options.queue_capacity = 16;
  options.shed_batch_lane = true;
  cs::X86ExplanationServer server(options);
  server.register_model("crude", crude);

  std::vector<std::uint64_t> tickets;
  for (std::size_t i = 0; i < job_options.size(); ++i) {
    cs::RequestOptions request;
    request.lane = i % 2 == 0 ? cs::Lane::kInteractive : cs::Lane::kBatch;
    request.deadline_ns =
        co::steady_clock().now_ns() + 60ull * 1'000'000'000;  // one minute
    tickets.push_back(
        server.submit("crude", block, job_options[i], request));
  }
  const auto results = server.drain();
  ASSERT_EQ(results.size(), job_options.size());
  for (const auto& served : results) {
    std::size_t idx = tickets.size();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (tickets[i] == served.id) idx = i;
    }
    ASSERT_LT(idx, tickets.size());
    EXPECT_TRUE(cs::has_explanation(served.status));
    expect_identical(served.explanation, expected[idx]);
  }
}

// Chaos mode (scripts/check.sh --chaos) only: re-run the full-stack
// scenario COMET_CHAOS_SEEDS times with a tight queue and fewer workers
// than jobs, so admission backpressure and dequeue interleaving — not
// the inputs — vary between rounds. Parity must hold in every round.
TEST(TrafficControls, ChaosRoundsKeepBitParityUnderTightQueues) {
  const char* env = std::getenv("COMET_CHAOS_SEEDS");
  if (env == nullptr) {
    GTEST_SKIP() << "set COMET_CHAOS_SEEDS to run the chaos rounds";
  }
  const std::size_t rounds =
      static_cast<std::size_t>(std::strtoull(env, nullptr, 10));

  auto crude = std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
  const auto block = small_block();
  constexpr std::size_t kJobs = 8;
  std::vector<cc::CometOptions> job_options;
  std::vector<cc::Explanation> expected;
  for (std::uint64_t seed = 0; seed < kJobs; ++seed) {
    job_options.push_back(light_options(500 + seed));
    expected.push_back(
        cc::CometExplainer(*crude, job_options.back()).explain(block));
  }

  for (std::size_t round = 0; round < rounds; ++round) {
    cs::ServeOptions options;
    options.workers = 3;
    options.queue_capacity = 4;  // blocking submits exercise backpressure
    options.shed_batch_lane = true;
    cs::X86ExplanationServer server(options);
    server.register_model("crude", crude);

    std::vector<std::uint64_t> tickets;
    for (std::size_t i = 0; i < kJobs; ++i) {
      cs::RequestOptions request;
      request.lane = i % 2 == 0 ? cs::Lane::kInteractive : cs::Lane::kBatch;
      request.deadline_ns =
          co::steady_clock().now_ns() + 60ull * 1'000'000'000;
      tickets.push_back(
          server.submit("crude", block, job_options[i], request));
    }
    const auto results = server.drain();
    ASSERT_EQ(results.size(), kJobs);
    std::size_t completed = 0;
    for (const auto& served : results) {
      std::size_t idx = tickets.size();
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        if (tickets[i] == served.id) idx = i;
      }
      ASSERT_LT(idx, tickets.size());
      // The tight queue may shed batch work — a typed refusal, never a
      // silent drop — but whatever completes must be bit-identical.
      if (cs::has_explanation(served.status)) {
        ++completed;
        expect_identical(served.explanation, expected[idx]);
      } else {
        EXPECT_EQ(served.status, cs::ServeStatus::kShed)
            << "round " << round;
        EXPECT_EQ(served.lane, cs::Lane::kBatch) << "round " << round;
      }
    }
    // Interactive work is never shed, so at least half of every round
    // completes.
    EXPECT_GE(completed, kJobs / 2) << "round " << round;
  }
}
