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
//   * the deadline — it covers each attempt's send as well as its wait;
//   * failover and failure — nested clients degrade tier by tier through
//     their fallbacks; with no fallback, a served timeout is a typed
//     kFailed result and the next job re-dials and returns the same bits;
//   * protocol errors — a bad block text (kError / kParseError), an
//     undecodable predict payload (kBadRequest) or a throwing model
//     (kInternalError) fails the request but not the session, and the
//     client fails over or surfaces the typed error; garbage bytes end the
//     session after a best-effort error report; ended sessions are
//     released when the next one starts; and every scenario above ends in
//     a clean server drain (stop() returns, counters balance).
//
// Everything here runs over net::SimTransport, so each scenario is exactly
// reproducible: the fault schedule, not thread timing, decides what fails.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
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

// Forwards to a wrapped transport. Subclasses override the calls they
// observe or slow down.
class ForwardingTransport : public cn::Transport {
 public:
  explicit ForwardingTransport(std::unique_ptr<cn::Transport> inner)
      : inner_(std::move(inner)) {}

  void send(std::span<const std::uint8_t> bytes) override {
    inner_->send(bytes);
  }
  std::size_t recv(std::span<std::uint8_t> buf,
                   std::uint64_t timeout_ns) override {
    return inner_->recv(buf, timeout_ns);
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<cn::Transport> inner_;
};

// Every send takes 50 ms before the bytes leave.
class SlowSendTransport final : public ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  void send(std::span<const std::uint8_t> bytes) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ForwardingTransport::send(bytes);
  }
};

// Counts the instances alive and the close() calls made on them, so a
// test can see how many connections a server still holds.
struct TransportTally {
  std::atomic<int> live{0};
  std::atomic<int> closes{0};
};

class TalliedTransport final : public ForwardingTransport {
 public:
  TalliedTransport(std::unique_ptr<cn::Transport> inner,
                   std::shared_ptr<TransportTally> tally)
      : ForwardingTransport(std::move(inner)), tally_(std::move(tally)) {
    ++tally_->live;
  }
  ~TalliedTransport() override { --tally_->live; }

  void close() override {
    ++tally_->closes;
    ForwardingTransport::close();
  }

 private:
  std::shared_ptr<TransportTally> tally_;
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

  // The server ledger shows the memo-free contract: everything requested
  // was evaluated, one batch call per round-trip.
  const ck::QueryStats stats = rig.server->stats();
  EXPECT_EQ(stats.requested, blocks.size() + 1);
  EXPECT_EQ(stats.evaluated, blocks.size() + 1);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.batch_calls, 2u);

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
  // Every dial dies instantly and there is no fallback: after the first
  // try and its one reconnect the typed disconnect surfaces to the caller.
  ServerRig rig(crude(),
                {{cn::FaultSchedule{},
                  cn::FaultSchedule({cn::Fault::disconnect_after(0)})},
                 {cn::FaultSchedule{},
                  cn::FaultSchedule({cn::Fault::disconnect_after(0)})}});
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;
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

// ---------------- the request deadline ----------------

TEST(RemoteShard, RequestDeadlineCoversTheSend) {
  // Every send takes 50 ms and the deadline is 10 ms: the request must
  // time out even though the server answers at once, because the
  // deadline starts before the send, not after it.
  ServerRig rig(crude());
  auto real_connector = rig.connector();
  cs::RemoteShardOptions options;
  options.request_timeout_ns = 10'000'000;  // 10 ms
  const cs::RemoteShardClient client(
      [real_connector]() -> std::unique_ptr<cn::Transport> {
        return std::make_unique<SlowSendTransport>(real_connector());
      },
      options);

  EXPECT_THROW(client.predict(test_blocks(1)[0]), cn::TimeoutError);
  const auto counters = client.counters();
  EXPECT_EQ(counters.timeouts, 1u);
  EXPECT_EQ(counters.responses, 0u);
  EXPECT_EQ(counters.failovers, 0u);
  EXPECT_EQ(rig.dials(), 1u);
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

  // A sound frame whose predict payload will not decode is refused under
  // its own id; the frame boundary is intact, so the session survives.
  cn::Frame bad_payload;
  bad_payload.type = cn::MessageType::kPredictRequest;
  bad_payload.request_id = 10;
  bad_payload.payload = {1, 2, 3};
  const auto payload_reply = exchange(bad_payload);
  EXPECT_EQ(payload_reply.type, cn::MessageType::kError);
  EXPECT_EQ(payload_reply.request_id, 10u);
  EXPECT_EQ(cn::decode_error(payload_reply.payload).code,
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

  // stop() ends the session: the client sees end of stream.
  server.stop();
  EXPECT_EQ(client_end->recv(std::span<std::uint8_t>(buf), kMustSucceedNs),
            0u);
  const auto counters = server.counters();
  EXPECT_EQ(counters.sessions, 1u);
  EXPECT_EQ(counters.requests, 3u);
  EXPECT_EQ(counters.responses, 1u);
  EXPECT_EQ(counters.errors, 3u);
  // Only the good request reached the model: the ledger holds one block.
  EXPECT_EQ(server.stats().requested, 1u);
  EXPECT_EQ(server.stats().evaluated, 1u);
}

TEST(RemoteShardServer, EndedSessionsAreReleasedWhenTheNextOneStarts) {
  // A client that re-dials, over and over, one connection per client: the
  // server must not hold every ended session (its transport and thread)
  // until stop().
  auto server = std::make_shared<cs::RemoteShardServer>(crude());
  auto tally = std::make_shared<TransportTally>();
  const cs::RemoteShardClient::Connector connector =
      [server, tally]() -> std::unique_ptr<cn::Transport> {
    auto [client_end, server_end] = cn::make_sim_pair();
    server->start(
        std::make_unique<TalliedTransport>(std::move(server_end), tally));
    return std::move(client_end);
  };
  cs::RemoteShardOptions options;
  options.request_timeout_ns = kMustSucceedNs;

  const cx::BasicBlock block = test_blocks(1)[0];
  const double expected = crude()->predict(block);
  constexpr int kRedials = 30;
  for (int dial = 1; dial <= kRedials; ++dial) {
    {
      const cs::RemoteShardClient client(connector, options);
      EXPECT_EQ(client.predict(block), expected);
    }
    // The client's destructor closed its end; wait until the session has
    // seen the EOF and closed the server's end too.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (tally->closes.load() < dial &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(tally->closes.load(), dial);
  }
  // Each start() released the sessions that had ended before it, so only
  // the newest few are still held — not all 30.
  EXPECT_LE(tally->live.load(), 3);
  server->stop();
  EXPECT_EQ(tally->live.load(), 0);
  EXPECT_EQ(server->counters().sessions, static_cast<std::uint64_t>(kRedials));
  EXPECT_EQ(server->counters().responses,
            static_cast<std::uint64_t>(kRedials));
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
          // The typed error carries the server's code and message.
          EXPECT_NE(
              std::string(error.what()).find("server error 3: model down"),
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
