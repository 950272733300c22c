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
//   * liveness — RemoteShardClient::ping() round-trips the kHealthCheck
//     frame and fails closed when the server dies;
//   * failover and failure — nested clients degrade tier by tier through
//     their fallbacks; with no fallback, a served timeout is a typed
//     kFailed result and the next job re-dials and returns the same bits;
//   * protocol errors — a bad block text (kError / kParseError) or a
//     throwing model (kInternalError) fails the request but not the
//     session, and the client fails over or surfaces the typed error;
//     garbage bytes end the session after a best-effort error report; and
//     every scenario above ends in a clean server drain (stop() returns,
//     counters balance).
//
// Everything here runs over net::SimTransport, so each scenario is exactly
// reproducible: the fault schedule, not thread timing, decides what fails.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bhive/dataset.h"
#include "bhive/paper_blocks.h"
#include "core/comet.h"
#include "cost/crude_model.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serve/isa_servers.h"
#include "serve/remote_shard.h"
#include "util/contract.h"
#include "x86/parser.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace cn = comet::net;
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

// A connector to a host that is down: every dial fails.
cs::RemoteShardClient::Connector dead_host() {
  return []() -> std::unique_ptr<cn::Transport> {
    throw cn::DisconnectedError("shard host is down");
  };
}

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
  // The golden: the sequential explanation over a plain in-process model.
  const auto block = cb::listing2_case_study1();
  const auto options = light_options(5);
  const auto expected = cc::CometExplainer(*crude(), options).explain(block);

  // The remote topology: scheduler → RemoteShardClient → wire → server.
  ServerRig rig(crude());
  cs::RemoteShardOptions remote_options;
  remote_options.request_timeout_ns = kMustSucceedNs;
  auto client = std::make_shared<const cs::RemoteShardClient>(
      rig.connector(), remote_options);

  cs::X86ExplanationServer server({.workers = 2, .queue_capacity = 4});
  server.register_model("remote", client);
  server.submit("remote", block, options);
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, cs::ServeStatus::kOk);

  // Bit-identical explanation AND bit-identical ledger: the wire moved
  // doubles as raw bit patterns, so the broker above it cannot tell the
  // remote model from a local one.
  expect_identical(results[0].explanation, expected);
  EXPECT_EQ(results[0].explanation.query_stats, expected.query_stats);
  EXPECT_EQ(server.stats_by_model().at("remote"), expected.query_stats);
  // Everything the broker evaluated crossed the wire exactly once, over
  // one connection, with no failure of any kind.
  EXPECT_EQ(rig.server->stats().evaluated, expected.query_stats.evaluated);
  EXPECT_EQ(rig.dials(), 1u);
  const auto counters = client->counters();
  EXPECT_EQ(counters.requests, counters.responses);
  EXPECT_EQ(counters.timeouts + counters.reconnects + counters.failovers +
                counters.wire_errors + counters.stale_frames,
            0u);

  // The serve_* metrics surface agrees a request went through cleanly.
  const auto snap = server.metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve_submitted") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "serve_completed") {
      EXPECT_EQ(value, 1u);
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

  // A malformed health probe is refused the same way.
  cn::Frame bad_probe;
  bad_probe.type = cn::MessageType::kHealthCheck;
  bad_probe.request_id = 10;
  bad_probe.payload = {1, 2, 3};
  const auto probe_reply = exchange(bad_probe);
  EXPECT_EQ(probe_reply.type, cn::MessageType::kError);
  EXPECT_EQ(probe_reply.request_id, 10u);
  EXPECT_EQ(cn::decode_error(probe_reply.payload).code,
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
  EXPECT_EQ(counters.errors, 3u);
  // Only the good request reached the model: the ledger holds one block.
  EXPECT_EQ(server.stats().requested, 1u);
  EXPECT_EQ(server.stats().evaluated, 1u);
}

// Throws out of its first predict_batch, then answers like the crude model.
class ThrowOnceModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock& block) const override {
    return inner_.predict(block);
  }
  void predict_batch(std::span<const cx::BasicBlock> blocks,
                     std::span<double> out) const override {
    if (!thrown_.exchange(true)) throw std::runtime_error("model down");
    inner_.predict_batch(blocks, out);
  }
  std::string name() const override { return "throw-once"; }

 private:
  ck::CrudeModel inner_{ck::MicroArch::Haswell};
  mutable std::atomic<bool> thrown_{false};
};

// Answers every block with 42: a fallback whose values are recognisable.
class FortyTwoModel final : public ck::CostModel {
 public:
  double predict(const cx::BasicBlock&) const override { return 42.0; }
  std::string name() const override { return "forty-two"; }
};

TEST(RemoteShardServer, ThrowingModelFailsTheRequestNotTheSession) {
  const cx::BasicBlock block = test_blocks(1)[0];
  const double expected = crude()->predict(block);
  for (const bool with_fallback : {false, true}) {
    SCOPED_TRACE(with_fallback ? "with fallback" : "no fallback");
    cs::RemoteShardServer server(std::make_shared<const ThrowOnceModel>());
    auto [client_end, server_end] = cn::make_sim_pair();
    // serve() on the caller's thread of an async task: an exception that
    // escaped it would land in the future instead of aborting the process.
    auto session = std::async(std::launch::async,
                              [&server, &transport = *server_end] {
                                server.serve(transport);
                              });
    // One connection only: a second dial means the session was lost.
    auto slot = std::make_shared<std::unique_ptr<cn::Transport>>(
        std::move(client_end));
    cs::RemoteShardOptions options;
    options.request_timeout_ns = kFaultTimeoutNs;
    options.max_attempts = 1;
    if (with_fallback) options.fallback = std::make_shared<FortyTwoModel>();
    {
      cs::RemoteShardClient client(
          [slot]() -> std::unique_ptr<cn::Transport> {
            if (*slot == nullptr) {
              throw cn::DisconnectedError("session lost");
            }
            return std::move(*slot);
          },
          options);

      if (with_fallback) {
        EXPECT_EQ(client.predict(block), 42.0);
      } else {
        try {
          client.predict(block);
          ADD_FAILURE() << "the model error was swallowed";
        } catch (const cn::TransportError& error) {
          EXPECT_NE(std::string(error.what()).find("model down"),
                    std::string::npos)
              << error.what();
        }
      }
      // The same connection serves the next request with the model's bits.
      EXPECT_EQ(client.predict(block), expected);
      const auto counters = client.counters();
      EXPECT_EQ(counters.reconnects, 0u);
      EXPECT_EQ(counters.timeouts, 0u);
      EXPECT_EQ(counters.failovers, with_fallback ? 1u : 0u);
      EXPECT_EQ(counters.responses, 1u);
    }
    // The client's destructor closed its end: the session ends cleanly.
    EXPECT_NO_THROW(session.get());
    const auto counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.responses, 1u);
    EXPECT_EQ(counters.errors, 1u);
  }
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

TEST(RemoteShardHealth, PingFailsClosedOnAWrongEchoTypeOrPayload) {
  // A scripted peer answers each frame it receives with the next reply
  // of `script`, built from the request it answers.
  auto [client_end, peer] = cn::make_sim_pair();
  auto dial = std::make_shared<std::unique_ptr<cn::Transport>>(
      std::move(client_end));
  cs::RemoteShardOptions copt;
  copt.request_timeout_ns = kMustSucceedNs;
  copt.max_attempts = 1;  // one connection: a re-dial would find none
  cs::RemoteShardClient client([dial] { return std::move(*dial); }, copt);

  const std::vector<std::function<cn::Frame(const cn::Frame&)>> script = {
      [](const cn::Frame& request) {  // echoes the wrong nonce
        cn::Frame reply;
        reply.type = cn::MessageType::kHealthReply;
        reply.payload = cn::encode_health_reply(
            {cn::decode_health_ping(request.payload).nonce + 1, 0});
        return reply;
      },
      [](const cn::Frame&) {  // answers with an error, not an echo
        cn::Frame reply;
        reply.type = cn::MessageType::kError;
        reply.payload = cn::encode_error({cn::ErrorBody::kBadRequest, "no"});
        return reply;
      },
      [](const cn::Frame&) {  // a well-framed but malformed echo
        cn::Frame reply;
        reply.type = cn::MessageType::kHealthReply;
        reply.payload = {1, 2, 3};
        return reply;
      },
      [](const cn::Frame&) {  // refuses a prediction
        cn::Frame reply;
        reply.type = cn::MessageType::kError;
        reply.payload =
            cn::encode_error({cn::ErrorBody::kInternalError, "model down"});
        return reply;
      },
  };
  auto scripted = std::async(std::launch::async, [&peer, &script] {
    cn::FrameAssembler rx;
    std::uint8_t buf[512];
    for (const auto& answer : script) {
      std::optional<cn::Frame> request;
      while (!(request = rx.poll())) {
        const std::size_t n =
            peer->recv(std::span<std::uint8_t>(buf), kMustSucceedNs);
        if (n == 0) return;
        rx.feed(std::span<const std::uint8_t>(buf, n));
      }
      cn::Frame reply = answer(*request);
      reply.request_id = request->request_id;
      peer->send(cn::encode_frame(reply));
    }
  });

  EXPECT_FALSE(client.ping());
  EXPECT_FALSE(client.ping());
  EXPECT_FALSE(client.ping());
  // Only the malformed payload counts as a wire error; none of the three
  // drops the connection.
  auto counters = client.counters();
  EXPECT_EQ(counters.health_pings, 3u);
  EXPECT_EQ(counters.health_failures, 3u);
  EXPECT_EQ(counters.wire_errors, 1u);
  EXPECT_EQ(counters.reconnects, 0u);

  // A refused prediction with no fallback is a typed error that carries
  // the server's code and message.
  try {
    client.predict(test_blocks(1)[0]);
    ADD_FAILURE() << "expected a TransportError";
  } catch (const cn::TransportError& error) {
    EXPECT_NE(std::string(error.what()).find("server error 3: model down"),
              std::string::npos)
        << error.what();
  }
  counters = client.counters();
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.responses, 0u);
  EXPECT_EQ(counters.failovers, 0u);
  scripted.get();
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
  cs::RemoteShardOptions secondary_options;
  secondary_options.request_timeout_ns = kMustSucceedNs;
  secondary_options.fallback = model;
  auto secondary = std::make_shared<cs::RemoteShardClient>(
      dead_host(), secondary_options);
  cs::RemoteShardOptions primary_options;
  primary_options.request_timeout_ns = kMustSucceedNs;
  primary_options.fallback = secondary;
  cs::RemoteShardClient primary(dead_host(), primary_options);

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

// ---------------- a model error inside a served job ----------------

TEST(RemoteShard, ServedTimeoutIsATypedFailureAndTheNextJobRedials) {
  const auto block = cb::listing2_case_study1();
  const auto options = light_options(5);
  const auto expected = cc::CometExplainer(*crude(), options).explain(block);

  // The first connection drops the first request and the client has no
  // fallback: the TimeoutError surfaces inside the server's worker.
  ServerRig rig(crude(),
                {{cn::FaultSchedule({cn::Fault::drop()}), cn::FaultSchedule()}});
  cs::RemoteShardOptions remote_options;
  remote_options.request_timeout_ns = kFaultTimeoutNs;
  auto client = std::make_shared<const cs::RemoteShardClient>(
      rig.connector(), remote_options);

  cs::X86ExplanationServer server({.workers = 1, .queue_capacity = 4});
  server.register_model("remote", client);
  server.submit("remote", block, options);
  const auto failed = server.drain();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].status, cs::ServeStatus::kFailed);
  EXPECT_NE(failed[0].error.find("deadline"), std::string::npos)
      << failed[0].error;
  EXPECT_EQ(client->counters().timeouts, 1u);
  EXPECT_EQ(client->counters().failovers, 0u);

  // The timed-out connection was dropped; the next job re-dials a clean
  // one on the same worker and returns the sequential bits.
  server.submit("remote", block, options);
  const auto recovered = server.drain();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].status, cs::ServeStatus::kOk);
  expect_identical(recovered[0].explanation, expected);
  EXPECT_EQ(recovered[0].explanation.query_stats, expected.query_stats);
  EXPECT_EQ(rig.dials(), 2u);
}
