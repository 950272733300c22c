// Tests for networked explanation serving (serve::RemoteShardClient /
// RemoteShardServer over src/net/):
//
//   * bit-parity — predictions and whole explanations served over a clean
//     SimTransport are bit-identical to in-process serving, including the
//     merged QueryStats ledger and the serve_* metrics counters;
//   * the deterministic fault matrix — request/response drop, truncation,
//     and delay each resolve to their documented typed outcome (timeout
//     without a fallback, failover with one), with the failure-mode
//     counters to match;
//   * reconnect — a dead or garbage-spewing connection is re-dialed and
//     the request resent; duplicated responses are discarded as stale;
//   * cancellation — cancel() fails an in-flight request with
//     CancelledError and never falls over to the local fallback;
//   * fault recovery — RemoteShardClient::ping() round-trips the
//     kHealthCheck frame and fails closed when the server dies; a seeded
//     ShardHealthMonitor sweep takes a shard host through permanent death
//     (circuit opens after `failure_threshold` failed wire pings, the
//     pool re-shards the hash space over the survivors and sweeps their
//     memos), recovery, and half-open re-admission — with every
//     prediction and whole explanation served before, during, and after
//     the outage bit-identical to in-process serving;
//   * protocol errors — a bad block text fails the request (kError /
//     kParseError) but not the session; garbage bytes end the session
//     after a best-effort error report; and every scenario above ends in
//     a clean server drain (stop() returns, counters balance).
//
// Everything here runs over net::SimTransport, so each scenario is exactly
// reproducible: the fault schedule, not thread timing, decides what fails.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bhive/dataset.h"
#include "bhive/paper_blocks.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "serve/health.h"
#include "serve/isa_servers.h"
#include "serve/remote_shard.h"
#include "serve/sharded_cost_model.h"
#include "util/contract.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace cn = comet::net;
namespace co = comet::obs;
namespace cs = comet::serve;
namespace cx = comet::x86;

namespace {

constexpr std::uint64_t kMustSucceedNs = 20'000'000'000;  // 20 s
// Deadline for requests whose response was injected away. The awaited
// bytes can never arrive, so expiry is deterministic; the duration only
// bounds how long the test waits for it.
constexpr std::uint64_t kFaultTimeoutNs = 400'000'000;  // 400 ms

std::vector<cx::BasicBlock> test_blocks(std::size_t n) {
  cb::DatasetOptions opt;
  opt.size = n;
  opt.seed = 77;
  const cb::Dataset dataset = cb::generate_dataset(opt);
  std::vector<cx::BasicBlock> blocks;
  for (const auto& labeled : dataset.blocks()) blocks.push_back(labeled.block);
  return blocks;
}

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

void expect_identical(const cc::Explanation& a, const cc::Explanation& b) {
  EXPECT_EQ(a.features, b.features)
      << a.features.to_string() << " vs " << b.features.to_string();
  EXPECT_DOUBLE_EQ(a.precision, b.precision);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.met_threshold, b.met_threshold);
  EXPECT_EQ(a.model_queries, b.model_queries);
}

std::shared_ptr<const ck::CrudeModel> crude() {
  return std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
}

// A test harness owning one RemoteShardServer; its connector() dials a
// fresh sim pair per call (each with the next entry of `plans`, reused
// past the end as clean) and starts a server session on the far end —
// which is exactly what reconnecting needs.
struct ServerRig {
  explicit ServerRig(std::shared_ptr<const ck::CostModel> model,
                     std::vector<std::pair<cn::FaultSchedule,
                                           cn::FaultSchedule>> plans = {})
      : server(std::make_shared<cs::RemoteShardServer>(std::move(model))),
        plans_(std::move(plans)),
        dials_(std::make_shared<std::size_t>(0)) {}

  cs::RemoteShardClient::Connector connector() {
    // Captures keep the server (and dial counter) alive as long as the
    // client holds the connector.
    return [server = server, plans = plans_, dials = dials_] {
      const std::size_t dial = (*dials)++;
      auto [request_dir, response_dir] =
          dial < plans.size() ? plans[dial]
                              : std::pair<cn::FaultSchedule,
                                          cn::FaultSchedule>{};
      auto [client_end, server_end] = cn::make_sim_pair(
          std::move(request_dir), std::move(response_dir));
      server->start(std::move(server_end));
      return std::move(client_end);
    };
  }

  std::size_t dials() const { return *dials_; }

  std::shared_ptr<cs::RemoteShardServer> server;

 private:
  std::vector<std::pair<cn::FaultSchedule, cn::FaultSchedule>> plans_;
  std::shared_ptr<std::size_t> dials_;
};

// A model whose queries block until the test opens the gate (to pin a
// server session mid-request for the cancellation test).
class GateModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock&) const override {
    wait_open();
    return 1.0;
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
  mutable bool open_ = false;
};

}  // namespace

// ---------------- bit-parity over a clean transport ----------------

TEST(RemoteShard, PredictionsBitIdenticalToLocalModelAndLedgersMatch) {
  const auto model = crude();
  ServerRig rig(model);
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
  const cs::RemoteShardClient client(rig.connector(), options);

  const auto blocks = test_blocks(40);
  std::vector<double> expected(blocks.size());
  model->predict_batch(std::span<const cx::BasicBlock>(blocks),
                       std::span<double>(expected));

  std::vector<double> out(blocks.size());
  client.predict_batch(std::span<const cx::BasicBlock>(blocks),
                       std::span<double>(out));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "block " << i;
  }
  EXPECT_DOUBLE_EQ(client.predict(blocks[0]), expected[0]);
  EXPECT_EQ(client.name(), "remote-shard");

  // One connection, two round-trips, no failures of any kind.
  const auto counters = client.counters();
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.responses, 2u);
  EXPECT_EQ(counters.timeouts, 0u);
  EXPECT_EQ(counters.reconnects, 0u);
  EXPECT_EQ(counters.failovers, 0u);
  EXPECT_EQ(counters.wire_errors, 0u);
  EXPECT_EQ(counters.stale_frames, 0u);
  EXPECT_EQ(rig.dials(), 1u);

  // The server ledger round-trips over kStatsRequest and shows the memo-
  // free contract: everything requested was evaluated, one batch call per
  // round-trip.
  const ck::QueryStats stats = client.server_stats();
  EXPECT_EQ(stats.requested, blocks.size() + 1);
  EXPECT_EQ(stats.evaluated, blocks.size() + 1);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.batch_calls, 2u);
  EXPECT_EQ(stats, rig.server->stats());

  const auto server_counters = rig.server->counters();
  EXPECT_EQ(server_counters.sessions, 1u);
  EXPECT_EQ(server_counters.requests, 2u);
  EXPECT_EQ(server_counters.responses, 2u);
  EXPECT_EQ(server_counters.errors, 0u);
}

TEST(RemoteShard, ServedExplanationsBitIdenticalIncludingStatsAndMetrics) {
  // The in-process golden: the scheduler over a locally sharded crude
  // model (the tests/test_serve.cpp topology).
  const auto block = cb::listing2_case_study1();
  const auto options = light_options(5);
  const cs::ShardedCostModel local_sharded(
      [](std::size_t) -> std::shared_ptr<const ck::CostModel> {
        return crude();
      },
      /*shards=*/2);
  const auto expected =
      cc::CometExplainer(local_sharded, options).explain(block);
  // Same bits as a plain un-sharded model, so the remote comparison below
  // is anchored to the sequential golden, not merely to another pool.
  expect_identical(cc::CometExplainer(*crude(), options).explain(block),
                   expected);

  // The remote topology: scheduler → pool → shards → wire → servers. Each
  // shard's model is a RemoteShardClient dialing its own server.
  cs::RemoteShardOptions remote_options;
  remote_options.request_timeout_ns = kMustSucceedNs;
  auto remote_sharded = std::make_shared<const cs::ShardedCostModel>(
      [&remote_options](std::size_t) -> std::shared_ptr<const ck::CostModel> {
        ServerRig rig(crude());
        return std::make_shared<const cs::RemoteShardClient>(rig.connector(),
                                                             remote_options);
      },
      /*shards=*/2);

  cs::X86ExplanationServer server({.workers = 2, .queue_capacity = 4});
  server.register_model("remote-sharded", remote_sharded);
  server.submit("remote-sharded", block, options);
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 1u);

  // Bit-identical explanation AND bit-identical merged ledger: the wire
  // moved doubles as raw bit patterns, so the broker above it cannot tell
  // remote shards from local ones.
  expect_identical(results[0].explanation, expected);
  EXPECT_EQ(results[0].explanation.query_stats, expected.query_stats);
  EXPECT_EQ(remote_sharded->stats(), local_sharded.stats());

  // The serve_* metrics surface agrees a request went through cleanly.
  const auto snap = server.metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve_submitted") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "serve_completed") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "serve_try_submit_rejected") {
      EXPECT_EQ(value, 0u);
    }
  }
}

// ---------------- the deterministic fault matrix ----------------

struct FaultCase {
  const char* name;
  cn::Fault request_fault;   // applied to the first client → server send
  cn::Fault response_fault;  // applied to the first server → client send
  bool with_fallback;
};

class RemoteShardFaultMatrix : public testing::TestWithParam<FaultCase> {};

TEST_P(RemoteShardFaultMatrix, FaultResolvesToTimeoutOrFailover) {
  const FaultCase& fault_case = GetParam();
  ServerRig rig(crude(),
                {{cn::FaultSchedule({fault_case.request_fault}),
                  cn::FaultSchedule({fault_case.response_fault})}});

  cs::RemoteShardOptions options;
  options.request_timeout_ns = kFaultTimeoutNs;
  if (fault_case.with_fallback) options.fallback = crude();
  const cs::RemoteShardClient client(rig.connector(), options);

  const auto blocks = test_blocks(3);
  std::vector<double> expected(blocks.size());
  crude()->predict_batch(std::span<const cx::BasicBlock>(blocks),
                         std::span<double>(expected));
  std::vector<double> out(blocks.size());

  if (fault_case.with_fallback) {
    // The request is served anyway — by the local fallback — and the
    // values are the same bits the remote side would have produced.
    client.predict_batch(std::span<const cx::BasicBlock>(blocks),
                         std::span<double>(out));
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "block " << i;
    }
  } else {
    EXPECT_THROW(client.predict_batch(std::span<const cx::BasicBlock>(blocks),
                                      std::span<double>(out)),
                 cn::TimeoutError);
  }

  const auto counters = client.counters();
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.responses, 0u);
  EXPECT_EQ(counters.timeouts, 1u);
  EXPECT_EQ(counters.failovers, fault_case.with_fallback ? 1u : 0u);
  // Deadlines never trigger a retry, so the faulted dial stays the only
  // one.
  EXPECT_EQ(counters.reconnects, 0u);
  EXPECT_EQ(rig.dials(), 1u);

  // Clean drain regardless of the injected fault.
  rig.server->stop();
  EXPECT_EQ(rig.server->counters().sessions, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, RemoteShardFaultMatrix,
    testing::Values(
        FaultCase{"RequestDropped", cn::Fault::drop(), cn::Fault::none(),
                  false},
        FaultCase{"RequestDroppedFailover", cn::Fault::drop(),
                  cn::Fault::none(), true},
        FaultCase{"RequestTruncated", cn::Fault::truncate(9),
                  cn::Fault::none(), false},
        FaultCase{"RequestTruncatedFailover", cn::Fault::truncate(9),
                  cn::Fault::none(), true},
        FaultCase{"ResponseDropped", cn::Fault::none(), cn::Fault::drop(),
                  false},
        FaultCase{"ResponseDroppedFailover", cn::Fault::none(),
                  cn::Fault::drop(), true},
        FaultCase{"ResponseTruncated", cn::Fault::none(),
                  cn::Fault::truncate(10), false},
        FaultCase{"ResponseTruncatedFailover", cn::Fault::none(),
                  cn::Fault::truncate(10), true},
        FaultCase{"ResponseDelayed", cn::Fault::none(), cn::Fault::delay(1),
                  false},
        FaultCase{"ResponseDelayedFailover", cn::Fault::none(),
                  cn::Fault::delay(1), true}),
    [](const testing::TestParamInfo<FaultCase>& info) {
      return std::string(info.param.name);
    });

// ---------------- reconnect, stale frames, garbage bytes ----------------

TEST(RemoteShard, DeadConnectionIsRedialedAndTheRequestResent) {
  // Dial 1's response direction dies before delivering a byte; dial 2 is
  // clean. The client must notice the disconnect, reconnect, resend, and
  // serve the request remotely — no fallback involved.
  ServerRig rig(crude(),
                {{cn::FaultSchedule{},
                  cn::FaultSchedule({cn::Fault::disconnect_after(0)})}});
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
  options.fallback = crude();  // must NOT be used: reconnect wins first
  const cs::RemoteShardClient client(rig.connector(), options);

  const auto block = test_blocks(1)[0];
  EXPECT_DOUBLE_EQ(client.predict(block), crude()->predict(block));

  const auto counters = client.counters();
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.responses, 1u);
  EXPECT_EQ(counters.wire_errors, 1u);
  EXPECT_EQ(counters.reconnects, 1u);
  EXPECT_EQ(counters.failovers, 0u);
  EXPECT_EQ(counters.timeouts, 0u);
  EXPECT_EQ(rig.dials(), 2u);
  // Both sessions processed the (re)sent request; both drained.
  rig.server->stop();
  const auto server_counters = rig.server->counters();
  EXPECT_EQ(server_counters.sessions, 2u);
  EXPECT_EQ(server_counters.requests, 2u);
}

TEST(RemoteShard, GarbageBytesFromThePeerTriggerReconnectNotCrash) {
  // Dial 1 hands the client a peer that speaks garbage; dial 2 reaches a
  // real server. The malformed stream must surface as a typed wire error
  // internally and be healed by the retry.
  ServerRig rig(crude());
  auto real_connector = rig.connector();
  auto dials = std::make_shared<std::size_t>(0);
  cs::RemoteShardClient::Connector connector =
      [real_connector, dials]() -> std::unique_ptr<cn::Transport> {
    if ((*dials)++ == 0) {
      auto [client_end, garbage_end] = cn::make_sim_pair();
      const std::vector<std::uint8_t> garbage = {10, 0, 0, 0, 99, 1, 2, 3,
                                                 4,  5, 6, 7, 8,  9};
      garbage_end->send(garbage);  // bad version byte: provably malformed
      return std::move(client_end);
    }
    return real_connector();
  };

  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
  const cs::RemoteShardClient client(connector, options);
  const auto block = test_blocks(1)[0];
  EXPECT_DOUBLE_EQ(client.predict(block), crude()->predict(block));

  const auto counters = client.counters();
  EXPECT_EQ(counters.wire_errors, 1u);
  EXPECT_EQ(counters.reconnects, 1u);
  EXPECT_EQ(counters.responses, 1u);
  EXPECT_EQ(*dials, 2u);
}

TEST(RemoteShard, ExhaustedAttemptsWithoutFallbackAreATypedError) {
  // Every dial dies instantly and there is no fallback: after
  // max_attempts tries the typed disconnect surfaces to the caller.
  ServerRig rig(crude(),
                {{cn::FaultSchedule{},
                  cn::FaultSchedule({cn::Fault::disconnect_after(0)})},
                 {cn::FaultSchedule{},
                  cn::FaultSchedule({cn::Fault::disconnect_after(0)})}});
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
  options.max_attempts = 2;
  const cs::RemoteShardClient client(rig.connector(), options);

  const auto block = test_blocks(1)[0];
  EXPECT_THROW(client.predict(block), cn::DisconnectedError);
  const auto counters = client.counters();
  EXPECT_EQ(counters.wire_errors, 2u);
  EXPECT_EQ(counters.reconnects, 1u);
  EXPECT_EQ(rig.dials(), 2u);
}

TEST(RemoteShard, DuplicatedResponseIsDiscardedAsStaleOnTheNextRequest) {
  // The first response is delivered twice; the copy must be discarded
  // (counted stale) when the second request polls the stream, and both
  // requests must still return correct bits.
  ServerRig rig(crude(), {{cn::FaultSchedule{},
                           cn::FaultSchedule({cn::Fault::duplicate()})}});
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
  const cs::RemoteShardClient client(rig.connector(), options);

  const auto blocks = test_blocks(2);
  EXPECT_DOUBLE_EQ(client.predict(blocks[0]), crude()->predict(blocks[0]));
  EXPECT_DOUBLE_EQ(client.predict(blocks[1]), crude()->predict(blocks[1]));

  const auto counters = client.counters();
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.responses, 2u);
  EXPECT_EQ(counters.stale_frames, 1u);
  EXPECT_EQ(counters.reconnects, 0u);
  EXPECT_EQ(rig.dials(), 1u);
}

TEST(RemoteShard, SeededFaultSweepIsDeterministicAndAlwaysCorrect) {
  // A randomized-but-seeded storm of response faults, run twice: the
  // failure-mode counters must be identical run-to-run (the schedule, not
  // thread timing, decides every outcome), and with remote == fallback
  // model every prediction is bit-correct no matter what the network did.
  const auto blocks = test_blocks(10);
  std::vector<double> expected(blocks.size());
  crude()->predict_batch(std::span<const cx::BasicBlock>(blocks),
                         std::span<double>(expected));

  const auto run = [&blocks, &expected](std::uint64_t seed) {
    std::vector<std::pair<cn::FaultSchedule, cn::FaultSchedule>> plans;
    for (std::size_t dial = 0; dial < 8; ++dial) {
      plans.emplace_back(
          cn::FaultSchedule{},
          cn::FaultSchedule::seeded(seed + dial, 4, /*fault_rate=*/0.4));
    }
    ServerRig rig(crude(), std::move(plans));
    cs::RemoteShardOptions options;
    options.request_timeout_ns = kFaultTimeoutNs;
    options.fallback = crude();
    const cs::RemoteShardClient client(rig.connector(), options);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(client.predict(blocks[i])),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "block " << i;
    }
    rig.server->stop();  // must drain cleanly whatever the storm did
    return client.counters();
  };

  const auto first = run(2024);
  const auto second = run(2024);
  EXPECT_EQ(first.requests, second.requests);
  EXPECT_EQ(first.responses, second.responses);
  EXPECT_EQ(first.timeouts, second.timeouts);
  EXPECT_EQ(first.reconnects, second.reconnects);
  EXPECT_EQ(first.failovers, second.failovers);
  EXPECT_EQ(first.stale_frames, second.stale_frames);
  EXPECT_EQ(first.wire_errors, second.wire_errors);
  EXPECT_EQ(first.requests, 10u);
  EXPECT_EQ(first.responses + first.failovers, 10u);

  // Chaos mode (scripts/check.sh --chaos) widens the storm via
  // COMET_CHAOS_SEEDS: every schedule must preserve bit-parity and drain
  // cleanly, whatever it drops, truncates, or delays.
  if (const char* env = std::getenv("COMET_CHAOS_SEEDS")) {
    const std::size_t extra =
        static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    for (std::size_t i = 0; i < extra; ++i) run(3000 + 17 * i);
  }
}

// ---------------- cancellation ----------------

TEST(RemoteShard, CancelFailsInFlightRequestWithoutFailover) {
  auto gate = std::make_shared<GateModel>();
  ServerRig rig(gate);
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
  options.fallback = crude();  // must NOT be consulted on cancel
  cs::RemoteShardClient client(rig.connector(), options);

  const auto block = test_blocks(1)[0];
  auto in_flight = std::async(std::launch::async, [&client, &block] {
    client.predict(block);
  });
  // The server session is pinned inside the model: the request is in
  // flight on the wire. Cancel from this thread.
  gate->await_entered();
  client.cancel();
  EXPECT_THROW(in_flight.get(), cn::CancelledError);
  EXPECT_EQ(client.counters().failovers, 0u);

  // Every later request fails the same way, before touching the network.
  EXPECT_THROW(client.predict(block), cn::CancelledError);

  // Release the server; its reply hits a dead transport and the session
  // drains cleanly.
  gate->open();
  rig.server->stop();
  EXPECT_EQ(rig.server->counters().sessions, 1u);
}

// ---------------- protocol-level server behavior ----------------

TEST(RemoteShardServer, BadBlockTextFailsTheRequestNotTheSession) {
  cs::RemoteShardServer server(crude());
  auto [client_end, server_end] = cn::make_sim_pair();
  server.start(std::move(server_end));

  cn::FrameAssembler rx;
  std::uint8_t buf[512];
  const auto exchange = [&](const cn::Frame& frame) {
    client_end->send(cn::encode_frame(frame));
    for (;;) {
      if (auto reply = rx.poll()) return *std::move(reply);
      const std::size_t n = client_end->recv(std::span<std::uint8_t>(buf),
                                             kMustSucceedNs);
      COMET_CHECK(n > 0);
      rx.feed(std::span<const std::uint8_t>(buf, n));
    }
  };

  // An unparseable block: the request fails typed, the session survives.
  cn::Frame bad;
  bad.type = cn::MessageType::kPredictRequest;
  bad.request_id = 7;
  cn::PredictRequest bad_request;
  bad_request.block_texts = {"frobnicate zzz, qqq"};
  bad.payload = cn::encode_predict_request(bad_request);
  const auto error_reply = exchange(bad);
  EXPECT_EQ(error_reply.type, cn::MessageType::kError);
  EXPECT_EQ(error_reply.request_id, 7u);
  EXPECT_EQ(cn::decode_error(error_reply.payload).code,
            cn::ErrorBody::kParseError);

  // A response type flowing client → server is off-protocol.
  cn::Frame off_protocol;
  off_protocol.type = cn::MessageType::kPredictResponse;
  off_protocol.request_id = 8;
  off_protocol.payload = cn::encode_predict_response({{1.0}});
  const auto off_reply = exchange(off_protocol);
  EXPECT_EQ(off_reply.type, cn::MessageType::kError);
  EXPECT_EQ(cn::decode_error(off_reply.payload).code,
            cn::ErrorBody::kBadRequest);

  // The same session still serves a good request afterwards.
  cn::Frame good;
  good.type = cn::MessageType::kPredictRequest;
  good.request_id = 9;
  cn::PredictRequest good_request;
  good_request.block_texts = {test_blocks(1)[0].to_string()};
  good.payload = cn::encode_predict_request(good_request);
  const auto good_reply = exchange(good);
  EXPECT_EQ(good_reply.type, cn::MessageType::kPredictResponse);
  EXPECT_EQ(good_reply.request_id, 9u);
  EXPECT_EQ(cn::decode_predict_response(good_reply.payload).values.size(),
            1u);

  // kShutdown ends the session gracefully: the client sees end of stream.
  cn::Frame shutdown;
  shutdown.type = cn::MessageType::kShutdown;
  client_end->send(cn::encode_frame(shutdown));
  EXPECT_EQ(client_end->recv(std::span<std::uint8_t>(buf), kMustSucceedNs),
            0u);

  server.stop();
  const auto counters = server.counters();
  EXPECT_EQ(counters.sessions, 1u);
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.responses, 1u);
  EXPECT_EQ(counters.errors, 2u);
  // Only the good request reached the model: the ledger holds one block.
  EXPECT_EQ(server.stats().requested, 1u);
  EXPECT_EQ(server.stats().evaluated, 1u);
}

TEST(RemoteShardServer, GarbageBytesEndTheSessionWithABestEffortError) {
  cs::RemoteShardServer server(crude());
  auto [client_end, server_end] = cn::make_sim_pair();
  server.start(std::move(server_end));

  // Not a frame at all (bad version byte at offset 4).
  client_end->send(std::vector<std::uint8_t>{1, 0, 0, 0, 77, 1, 0, 0});

  // The server reports kBadRequest, then closes the session.
  cn::FrameAssembler rx;
  std::uint8_t buf[512];
  std::optional<cn::Frame> reply;
  for (;;) {
    if ((reply = rx.poll())) break;
    const std::size_t n =
        client_end->recv(std::span<std::uint8_t>(buf), kMustSucceedNs);
    ASSERT_GT(n, 0u);
    rx.feed(std::span<const std::uint8_t>(buf, n));
  }
  EXPECT_EQ(reply->type, cn::MessageType::kError);
  EXPECT_EQ(cn::decode_error(reply->payload).code,
            cn::ErrorBody::kBadRequest);
  EXPECT_EQ(client_end->recv(std::span<std::uint8_t>(buf), kMustSucceedNs),
            0u);

  server.stop();
  EXPECT_EQ(server.counters().errors, 1u);
  EXPECT_EQ(server.counters().responses, 0u);
}

namespace {

// A shard host that can die and come back. kill() stops the current
// server — closing every live session, so connected clients see EOF —
// and makes further dials fail with DisconnectedError; revive() installs
// a fresh server for new dials. (RemoteShardServer is one-shot by
// contract: start() after stop() is a ContractViolation, so revival
// swaps in a new instance rather than restarting the old one.)
class RevivableRig {
 public:
  explicit RevivableRig(std::shared_ptr<const ck::CostModel> model)
      : model_(std::move(model)), slot_(std::make_shared<Slot>()) {
    slot_->server = std::make_shared<cs::RemoteShardServer>(model_);
  }

  ~RevivableRig() { kill(); }

  void kill() {
    std::shared_ptr<cs::RemoteShardServer> doomed;
    {
      std::lock_guard<std::mutex> lock(slot_->mutex);
      doomed = std::move(slot_->server);
      slot_->server = nullptr;
    }
    if (doomed != nullptr) doomed->stop();
  }

  void revive() {
    std::lock_guard<std::mutex> lock(slot_->mutex);
    slot_->server = std::make_shared<cs::RemoteShardServer>(model_);
  }

  cs::RemoteShardClient::Connector connector() const {
    return [slot = slot_]() -> std::unique_ptr<cn::Transport> {
      std::shared_ptr<cs::RemoteShardServer> server;
      {
        std::lock_guard<std::mutex> lock(slot->mutex);
        server = slot->server;
      }
      if (server == nullptr) {
        throw cn::DisconnectedError("RevivableRig: shard host is down");
      }
      auto [client_end, server_end] = cn::make_sim_pair();
      server->start(std::move(server_end));
      return std::move(client_end);
    };
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<cs::RemoteShardServer> server;
  };
  std::shared_ptr<const ck::CostModel> model_;
  std::shared_ptr<Slot> slot_;
};

}  // namespace

TEST(RemoteShardHealth, PingRoundTripsAndFailsClosedOnceTheServerDies) {
  ServerRig rig(crude());
  cs::RemoteShardOptions copt;
  copt.request_timeout_ns = kMustSucceedNs;
  cs::RemoteShardClient client(rig.connector(), copt);

  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.counters().health_pings, 2u);
  EXPECT_EQ(client.counters().health_failures, 0u);
  EXPECT_EQ(rig.server->counters().health_checks, 2u);
  // Health checks never touch the model or the request ledger.
  EXPECT_EQ(rig.server->counters().requests, 0u);
  EXPECT_EQ(rig.server->stats().requested, 0u);

  // A dead server fails the probe closed: false, never a throw, and the
  // failure is accounted.
  rig.server->stop();
  EXPECT_FALSE(client.ping());
  EXPECT_EQ(client.counters().health_pings, 3u);
  EXPECT_EQ(client.counters().health_failures, 1u);
}

TEST(ShardFaultRecovery, DeathReShardsRecoveryReadmitsDeterministically) {
  const auto plain = crude();
  constexpr std::size_t kShards = 3;

  std::vector<std::unique_ptr<RevivableRig>> rigs;
  for (std::size_t s = 0; s < kShards; ++s) {
    rigs.push_back(std::make_unique<RevivableRig>(plain));
  }

  // The pool's shards are remote clients; the test keeps its own handles
  // for the health prober.
  std::vector<std::shared_ptr<const cs::RemoteShardClient>> clients(kShards);
  cs::ShardedCostModel sharded(
      [&](std::size_t s) {
        cs::RemoteShardOptions copt;
        copt.request_timeout_ns = kMustSucceedNs;
        auto client = std::make_shared<const cs::RemoteShardClient>(
            rigs[s]->connector(), copt);
        clients[s] = client;
        return client;
      },
      kShards);

  co::ManualClock clock;  // t = 0; the monitor never reads wall time
  cs::HealthOptions hopt;
  hopt.failure_threshold = 2;
  hopt.readmit_probes = 2;
  hopt.probe_interval_ns = 0;    // live shards probe on every tick
  hopt.backoff_base_ns = 1'000;  // dead-shard re-probe backoff (manual ns)
  hopt.backoff_factor = 2.0;
  hopt.backoff_max_ns = 8'000;
  hopt.jitter_frac = 0.25;
  hopt.seed = 0xc0ffee;
  hopt.clock = &clock;
  cs::ShardHealthMonitor monitor(
      kShards, [&](std::size_t s) { return clients[s]->ping(); }, hopt);
  std::vector<std::size_t> died;
  std::vector<std::size_t> readmitted;
  monitor.set_on_dead([&](std::size_t s) {
    died.push_back(s);
    sharded.set_shard_live(s, false);
  });
  monitor.set_on_readmitted([&](std::size_t s) {
    readmitted.push_back(s);
    sharded.set_shard_live(s, true);
  });

  // Prime the fleet: predictions over the pool are bit-identical to the
  // in-process model, and the memo holds each distinct block exactly
  // once, pool-wide.
  const std::vector<cx::BasicBlock> blocks = test_blocks(12);
  std::set<std::string> texts;
  for (const auto& block : blocks) texts.insert(block.to_string());
  const std::size_t distinct = texts.size();

  std::vector<double> expected(blocks.size());
  plain->predict_batch(blocks, expected);
  std::vector<double> got(blocks.size());
  sharded.predict_batch(blocks, got);
  EXPECT_EQ(got, expected);

  const std::vector<std::size_t> sizes_primed = sharded.memo_sizes();
  std::size_t total_primed = 0;
  for (const std::size_t n : sizes_primed) total_primed += n;
  EXPECT_EQ(total_primed, distinct);

  // Healthy fleet: one tick wire-pings every shard.
  monitor.tick();
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(monitor.health(s), cs::ShardHealth::kHealthy);
    EXPECT_EQ(clients[s]->counters().health_pings, 1u);
  }

  // Shard 1's host dies. failure_threshold = 2 consecutive failed pings
  // open the circuit: on_dead fires exactly once and the pool re-shards
  // the hash space over the survivors.
  rigs[1]->kill();
  monitor.tick();
  EXPECT_EQ(monitor.health(1), cs::ShardHealth::kSuspect);
  EXPECT_TRUE(died.empty());
  monitor.tick();
  EXPECT_EQ(monitor.health(1), cs::ShardHealth::kDead);
  EXPECT_EQ(died, (std::vector<std::size_t>{1}));
  EXPECT_EQ(sharded.live_shards(), (std::vector<std::size_t>{0, 2}));

  // The re-shard swept the survivors' memos down to what they now own;
  // the dead shard's memo is untouched (nobody talks to it).
  const std::vector<std::size_t> sizes_dead = sharded.memo_sizes();
  EXPECT_EQ(sizes_dead[1], sizes_primed[1]);
  EXPECT_LE(sizes_dead[0], sizes_primed[0]);
  EXPECT_LE(sizes_dead[2], sizes_primed[2]);

  // Degraded serving: the same batch re-routes to the survivors and is
  // still bit-identical; the survivors re-memoize the moved keys.
  std::fill(got.begin(), got.end(), 0.0);
  sharded.predict_batch(blocks, got);
  EXPECT_EQ(got, expected);
  const std::vector<std::size_t> sizes_degraded = sharded.memo_sizes();
  EXPECT_EQ(sizes_degraded[0] + sizes_degraded[2], distinct);
  EXPECT_EQ(sizes_degraded[1], sizes_primed[1]);

  // A whole explanation served mid-outage is bit-identical to the
  // sequential in-process run.
  const cc::CometOptions opt = light_options(404);
  const cx::BasicBlock block = blocks.front();
  const cc::Explanation sequential =
      cc::CometExplainer(*plain, opt).explain(block);
  const cc::Explanation degraded =
      cc::CometExplainer(sharded, opt).explain(block);
  expect_identical(degraded, sequential);

  // Dead shards re-probe on a jittered exponential backoff, not every
  // tick: at the same manual time the next probe is not yet due.
  const std::uint64_t failures_at_death = monitor.counters().failures;
  monitor.tick();
  EXPECT_EQ(monitor.counters().failures, failures_at_death);
  EXPECT_EQ(monitor.health(1), cs::ShardHealth::kDead);

  clock.advance_ns(2'000);  // past the first jittered backoff
  monitor.tick();           // still down: one more failure, no new death
  EXPECT_EQ(monitor.counters().failures, failures_at_death + 1);
  EXPECT_EQ(monitor.counters().deaths, 1u);
  EXPECT_EQ(died.size(), 1u);

  // The host comes back. The first successful probe enters half-open
  // probation — the shard is NOT yet re-admitted to routing.
  rigs[1]->revive();
  clock.advance_ns(20'000);  // past the capped backoff, whatever the jitter
  monitor.tick();
  EXPECT_EQ(monitor.health(1), cs::ShardHealth::kProbation);
  EXPECT_TRUE(readmitted.empty());
  EXPECT_EQ(sharded.live_shards(), (std::vector<std::size_t>{0, 2}));

  // readmit_probes = 2 consecutive successes re-admit it.
  monitor.tick();
  EXPECT_EQ(monitor.health(1), cs::ShardHealth::kHealthy);
  EXPECT_EQ(readmitted, (std::vector<std::size_t>{1}));
  EXPECT_EQ(sharded.live_shards(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(monitor.counters().deaths, 1u);
  EXPECT_EQ(monitor.counters().readmissions, 1u);

  // Re-admission restores the original hash assignment, so shard 1's
  // memo (which only ever held keys it owns under the full routing)
  // survives the readmit sweep intact.
  const std::vector<std::size_t> sizes_readmitted = sharded.memo_sizes();
  EXPECT_EQ(sizes_readmitted[1], sizes_primed[1]);

  // Full-fleet serving after recovery: the old batch is bit-identical,
  // and fresh traffic routes to the re-admitted shard again (its memo
  // grows past what it held before the outage).
  std::fill(got.begin(), got.end(), 0.0);
  sharded.predict_batch(blocks, got);
  EXPECT_EQ(got, expected);

  cb::DatasetOptions fresh_opt;
  fresh_opt.size = 12;
  fresh_opt.seed = 1234;
  const cb::Dataset fresh_dataset = cb::generate_dataset(fresh_opt);
  std::vector<cx::BasicBlock> fresh;
  for (const auto& labeled : fresh_dataset.blocks()) {
    fresh.push_back(labeled.block);
  }
  std::vector<double> fresh_expected(fresh.size());
  std::vector<double> fresh_got(fresh.size());
  plain->predict_batch(fresh, fresh_expected);
  sharded.predict_batch(fresh, fresh_got);
  EXPECT_EQ(fresh_got, fresh_expected);
  EXPECT_GT(sharded.memo_sizes()[1], sizes_readmitted[1]);

  const cc::Explanation recovered =
      cc::CometExplainer(sharded, opt).explain(block);
  expect_identical(recovered, sequential);

  // The outage left its trace in the probe accounting.
  EXPECT_GE(clients[1]->counters().health_failures, 3u);
}

// ---------------- the health monitor's circuit, without a network ----------

TEST(ShardHealthMonitor, DeadBackoffGrowsToItsCapAndHalfOpenRelapseReopens) {
  co::ManualClock clock;
  cs::HealthOptions hopt;
  hopt.failure_threshold = 1;
  hopt.readmit_probes = 2;
  hopt.backoff_base_ns = 100;
  hopt.backoff_factor = 2.0;
  hopt.backoff_max_ns = 300;
  hopt.jitter_frac = 0.0;  // exact due times
  hopt.clock = &clock;
  bool up = false;
  cs::ShardHealthMonitor monitor(
      1, [&](std::size_t) { return up; }, hopt);
  std::size_t deaths_seen = 0;
  std::size_t readmissions_seen = 0;
  monitor.set_on_dead([&](std::size_t) { ++deaths_seen; });
  monitor.set_on_readmitted([&](std::size_t) { ++readmissions_seen; });

  // Probes land only when due, so the probe count reads the backoff.
  const auto probes_at = [&](std::uint64_t t) {
    clock.set_ns(t);
    monitor.tick();
    return monitor.counters().probes;
  };
  EXPECT_EQ(probes_at(0), 1u);  // fails: dead, re-probe at 0 + 100
  EXPECT_EQ(monitor.health(0), cs::ShardHealth::kDead);
  EXPECT_EQ(probes_at(99), 1u);
  EXPECT_EQ(probes_at(100), 2u);  // still dead: backoff 200, due 300
  EXPECT_EQ(probes_at(299), 2u);
  EXPECT_EQ(probes_at(300), 3u);  // backoff 400 capped at 300, due 600
  EXPECT_EQ(probes_at(599), 3u);
  EXPECT_EQ(probes_at(600), 4u);

  // Half-open, then a relapse: dead again, the same outage continuing
  // (no second death, no on_dead refire).
  up = true;
  EXPECT_EQ(probes_at(900), 5u);
  EXPECT_EQ(monitor.health(0), cs::ShardHealth::kProbation);
  up = false;
  EXPECT_EQ(probes_at(901), 6u);
  EXPECT_EQ(monitor.health(0), cs::ShardHealth::kDead);
  EXPECT_EQ(monitor.counters().deaths, 1u);
  EXPECT_EQ(deaths_seen, 1u);

  // Two consecutive half-open successes re-admit it.
  up = true;
  monitor.force_probe_all();
  monitor.force_probe_all();
  EXPECT_EQ(monitor.health(0), cs::ShardHealth::kHealthy);
  EXPECT_EQ(readmissions_seen, 1u);
  EXPECT_EQ(monitor.counters().readmissions, 1u);
  EXPECT_EQ(monitor.counters().failures, 5u);
}

TEST(ShardHealthMonitor, BackgroundTickerProbesUntilStopped) {
  std::atomic<std::size_t> probes{0};
  cs::ShardHealthMonitor monitor(2, [&](std::size_t) {
    ++probes;
    return true;
  });
  monitor.start(/*period_ns=*/1'000'000);
  // Bounded poll: the 1 ms ticker needs a few periods, not seconds.
  for (int i = 0; i < 10'000 && probes.load() < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monitor.stop();
  EXPECT_GE(probes.load(), 6u);
  const std::size_t after_stop = probes.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(probes.load(), after_stop);
  EXPECT_EQ(monitor.snapshot(),
            std::vector<cs::ShardHealth>(2, cs::ShardHealth::kHealthy));
  monitor.stop();  // idempotent
}

// ---------------- tiered failover: nested clients ----------------

TEST(RemoteShard, NestedFallbacksDegradeThroughTiersWithPerClientCounters) {
  const auto model = crude();
  const auto blocks = test_blocks(6);
  std::vector<double> expected(blocks.size());
  model->predict_batch(std::span<const cx::BasicBlock>(blocks),
                       std::span<double>(expected));

  // Tiers are nested clients: a dead primary whose fallback is a dead
  // secondary whose fallback is the local crude model.
  RevivableRig primary_rig(model);
  RevivableRig secondary_rig(model);
  primary_rig.kill();
  secondary_rig.kill();
  cs::RemoteShardOptions secondary_options;
  secondary_options.request_timeout_ns = kMustSucceedNs;
  secondary_options.fallback = model;
  auto secondary = std::make_shared<cs::RemoteShardClient>(
      secondary_rig.connector(), secondary_options);
  cs::RemoteShardOptions primary_options;
  primary_options.request_timeout_ns = kMustSucceedNs;
  primary_options.fallback = secondary;
  cs::RemoteShardClient primary(primary_rig.connector(), primary_options);

  std::vector<double> out(blocks.size());
  primary.predict_batch(std::span<const cx::BasicBlock>(blocks),
                        std::span<double>(out));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "block " << i;
  }
  // Each tier counts its own failover.
  EXPECT_EQ(primary.counters().requests, 1u);
  EXPECT_EQ(primary.counters().failovers, 1u);
  EXPECT_EQ(secondary->counters().requests, 1u);
  EXPECT_EQ(secondary->counters().failovers, 1u);

  // Cancellation is obeyed at whichever tier sees it, never failed over:
  // a cancelled secondary stops the chain there...
  secondary->cancel();
  EXPECT_THROW(primary.predict(blocks[0]), cn::CancelledError);
  EXPECT_EQ(primary.counters().failovers, 2u);
  EXPECT_EQ(secondary->counters().failovers, 1u);
  // ...and a cancelled primary never consults the lower tiers.
  const std::uint64_t secondary_requests = secondary->counters().requests;
  primary.cancel();
  EXPECT_THROW(primary.predict(blocks[0]), cn::CancelledError);
  EXPECT_EQ(primary.counters().failovers, 2u);
  EXPECT_EQ(secondary->counters().requests, secondary_requests);
}

// ---------------- errors behind a sharded pool ----------------

TEST(RemoteShard, TimeoutBehindShardedPoolReachesCallerAndPoolRecovers) {
  const auto model = crude();
  const auto blocks = test_blocks(12);
  std::vector<double> expected(blocks.size());
  model->predict_batch(std::span<const cx::BasicBlock>(blocks),
                       std::span<double>(expected));

  // Each shard's first request is dropped and it has no fallback: the
  // TimeoutError surfaces on the shard thread and must be rethrown here.
  std::vector<std::unique_ptr<ServerRig>> rigs;
  for (std::size_t s = 0; s < 2; ++s) {
    rigs.push_back(std::make_unique<ServerRig>(
        model, std::vector<std::pair<cn::FaultSchedule, cn::FaultSchedule>>{
                   {cn::FaultSchedule({cn::Fault::drop()}),
                    cn::FaultSchedule()}}));
  }
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kFaultTimeoutNs;
  const cs::ShardedCostModel sharded(
      [&](std::size_t s) {
        return std::make_shared<const cs::RemoteShardClient>(
            rigs[s]->connector(), options);
      },
      /*shards=*/2);

  std::vector<double> out(blocks.size());
  EXPECT_THROW(sharded.predict_batch(std::span<const cx::BasicBlock>(blocks),
                                     std::span<double>(out)),
               cn::TimeoutError);
  // The timed-out connections were dropped; the re-dials are clean.
  sharded.predict_batch(std::span<const cx::BasicBlock>(blocks),
                        std::span<double>(out));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "block " << i;
  }
  // Both shards took part: one faulted dial, then one clean re-dial each.
  for (const auto& rig : rigs) EXPECT_EQ(rig->dials(), 2u);
}
