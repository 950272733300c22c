// Tests for the networking layer (src/net/): frame layout and codec
// round-trips, malformed-input rejection (every bound a typed
// util::ContractViolation), streaming reassembly over fragmented chunks,
// the deterministic SimTransport fault fabric (each Fault kind's observable
// behavior, schedule seeding reproducibility).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/sim_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/contract.h"

namespace cn = comet::net;
namespace cu = comet::util;

namespace {

// Generous deadline for operations that must succeed (sanitizer builds are
// slow); short deadline for operations that must time out (the awaited
// bytes were dropped and can never arrive, so a short wait is exact, not
// racy).
constexpr std::uint64_t kMustSucceedNs = 20'000'000'000;  // 20 s
constexpr std::uint64_t kMustTimeoutNs = 50'000'000;      // 50 ms

cn::Frame sample_frame() {
  cn::Frame frame;
  frame.type = cn::MessageType::kPredictRequest;
  frame.request_id = 0x1122334455667788ULL;
  cn::PredictRequest req;
  req.block_texts = {"add rax, rbx", "div rcx"};
  frame.payload = cn::encode_predict_request(req);
  return frame;
}

// Pump `bytes` through a transport and reassemble one frame, with a
// per-recv deadline.
std::optional<cn::Frame> recv_frame(cn::Transport& transport,
                                    cn::FrameAssembler& assembler,
                                    std::uint64_t timeout_ns) {
  std::uint8_t buf[512];
  for (;;) {
    if (auto frame = assembler.poll()) return frame;
    const std::size_t n = transport.recv(std::span<std::uint8_t>(buf),
                                         timeout_ns);
    if (n == 0) return std::nullopt;  // end of stream
    assembler.feed(std::span<const std::uint8_t>(buf, n));
  }
}

}  // namespace

// ---------------- frame layout ----------------

TEST(Wire, FrameHeaderLayoutIsExactlyAsDocumented) {
  cn::Frame frame;
  frame.type = cn::MessageType::kError;
  frame.request_id = 0x0102030405060708ULL;
  frame.payload = {0xAA, 0xBB, 0xCC};
  const auto bytes = cn::encode_frame(frame);

  ASSERT_EQ(bytes.size(), cn::kHeaderSize + 3);
  // u32 payload length, little-endian.
  EXPECT_EQ(bytes[0], 3u);
  EXPECT_EQ(bytes[1], 0u);
  EXPECT_EQ(bytes[2], 0u);
  EXPECT_EQ(bytes[3], 0u);
  // version, type.
  EXPECT_EQ(bytes[4], cn::kWireVersion);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(cn::MessageType::kError));
  // reserved flags.
  EXPECT_EQ(bytes[6], 0u);
  EXPECT_EQ(bytes[7], 0u);
  // u64 request id, little-endian.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(bytes[8 + i], 8 - i) << "request id byte " << i;
  }
  // payload follows the checksum.
  EXPECT_EQ(bytes[20], 0xAA);
  EXPECT_EQ(bytes[21], 0xBB);
  EXPECT_EQ(bytes[22], 0xCC);

  EXPECT_EQ(cn::decode_frame(bytes), frame);
}

TEST(Wire, EncodeDecodeRoundTripsEveryMessageType) {
  for (const auto type :
       {cn::MessageType::kPredictRequest, cn::MessageType::kPredictResponse,
        cn::MessageType::kError}) {
    cn::Frame frame;
    frame.type = type;
    frame.request_id = 42 + static_cast<std::uint64_t>(type);
    frame.payload = {1, 2, 3, 4, 5};
    EXPECT_EQ(cn::decode_frame(cn::encode_frame(frame)), frame)
        << "type " << static_cast<int>(type);
  }
  // The frame layer accepts an empty payload; judging it is the codecs'
  // job.
  cn::Frame empty;
  empty.type = cn::MessageType::kError;
  EXPECT_EQ(cn::decode_frame(cn::encode_frame(empty)), empty);
}

TEST(Wire, DecodeRejectsEveryMalformedHeader) {
  const auto good = cn::encode_frame(sample_frame());

  // Shorter than a header.
  EXPECT_THROW(cn::decode_frame(std::span<const std::uint8_t>(
                   good.data(), cn::kHeaderSize - 1)),
               cu::ContractViolation);

  // Forged length field promising more than kMaxPayload.
  auto forged = good;
  forged[0] = 0xFF;
  forged[1] = 0xFF;
  forged[2] = 0xFF;
  forged[3] = 0xFF;
  EXPECT_THROW(cn::decode_frame(forged), cu::ContractViolation);

  // Length field inconsistent with the buffer.
  auto short_len = good;
  short_len[0] = static_cast<std::uint8_t>(short_len[0] + 1);
  EXPECT_THROW(cn::decode_frame(short_len), cu::ContractViolation);

  // Unsupported version.
  auto bad_version = good;
  bad_version[4] = cn::kWireVersion + 1;
  EXPECT_THROW(cn::decode_frame(bad_version), cu::ContractViolation);

  // Unknown message type (0 and one past the last).
  auto bad_type = good;
  bad_type[5] = 0;
  EXPECT_THROW(cn::decode_frame(bad_type), cu::ContractViolation);
  bad_type[5] = static_cast<std::uint8_t>(cn::MessageType::kError) + 1;
  EXPECT_THROW(cn::decode_frame(bad_type), cu::ContractViolation);

  // Reserved flags set.
  auto bad_flags = good;
  bad_flags[6] = 1;
  EXPECT_THROW(cn::decode_frame(bad_flags), cu::ContractViolation);

  // Corrupted payload byte → checksum mismatch.
  auto corrupted = good;
  corrupted[cn::kHeaderSize] ^= 0x01;
  EXPECT_THROW(cn::decode_frame(corrupted), cu::ContractViolation);

  // Corrupted checksum itself.
  auto bad_sum = good;
  bad_sum[16] ^= 0x01;
  EXPECT_THROW(cn::decode_frame(bad_sum), cu::ContractViolation);

  // The original still decodes (the mutations above copied).
  EXPECT_EQ(cn::decode_frame(good), sample_frame());
}

TEST(Wire, DecodeRejectsPreviousWireVersionFrames) {
  // A well-formed v2 frame (the previous release's predict-request layout:
  // a u8 priority and a u64 deadline ahead of the block list), checksum
  // and all, must be rejected on the version byte — v3 peers never guess
  // at old payload layouts.
  cn::Frame v2 = sample_frame();
  v2.version = 2;
  v2.payload.insert(v2.payload.begin(), 1 + 8, 0);
  const auto bytes = cn::encode_frame(v2);
  ASSERT_EQ(bytes[4], 2);
  EXPECT_THROW(cn::decode_frame(bytes), cu::ContractViolation);

  cn::FrameAssembler assembler;
  assembler.feed(bytes);
  EXPECT_THROW(assembler.poll(), cu::ContractViolation);
}

TEST(Wire, EncodeRejectsOversizedPayload) {
  cn::Frame frame;
  frame.type = cn::MessageType::kPredictResponse;
  frame.payload.resize(cn::kMaxPayload + 1);
  EXPECT_THROW(cn::encode_frame(frame), cu::ContractViolation);
}

// ---------------- payload codecs ----------------

TEST(Wire, PredictRequestRoundTripIncludingEmptyAndOddStrings) {
  cn::PredictRequest req;
  req.block_texts = {"mov rax, 5\ndiv rcx", "", std::string("\x00\xFF tab\t", 6)};
  EXPECT_EQ(cn::decode_predict_request(cn::encode_predict_request(req)), req);
  const cn::PredictRequest empty{};
  EXPECT_EQ(cn::decode_predict_request(cn::encode_predict_request(empty)),
            empty);
}

TEST(Wire, PredictResponseRoundTripsDoublesBitExactly) {
  const cn::PredictResponse res{{1.0, -0.0, 1e-308, 3.141592653589793,
                                 std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::denorm_min()}};
  const auto decoded =
      cn::decode_predict_response(cn::encode_predict_response(res));
  ASSERT_EQ(decoded.values.size(), res.values.size());
  for (std::size_t i = 0; i < res.values.size(); ++i) {
    // Bit-pattern comparison: -0.0 == 0.0 under operator==, but the wire
    // must preserve the exact bits.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.values[i]),
              std::bit_cast<std::uint64_t>(res.values[i]))
        << "value " << i;
  }
}

TEST(Wire, ErrorRoundTrip) {
  const cn::ErrorBody error{cn::ErrorBody::kParseError, "bad opcode 'frob'"};
  EXPECT_EQ(cn::decode_error(cn::encode_error(error)), error);
}

TEST(Wire, CodecsRejectForgedCountsTruncationAndTrailingGarbage) {
  // Forged element count (huge count, tiny payload) is rejected before any
  // allocation is sized from it.
  std::vector<std::uint8_t> forged = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(cn::decode_predict_request(forged), cu::ContractViolation);
  EXPECT_THROW(cn::decode_predict_response(forged), cu::ContractViolation);

  // Truncation mid-element.
  cn::PredictRequest truncated;
  truncated.block_texts = {"add rax, rbx"};
  auto request = cn::encode_predict_request(truncated);
  request.pop_back();
  EXPECT_THROW(cn::decode_predict_request(request), cu::ContractViolation);

  // Trailing garbage after a well-formed body.
  auto response = cn::encode_predict_response({{2.5}});
  response.push_back(0);
  EXPECT_THROW(cn::decode_predict_response(response), cu::ContractViolation);

  // Empty error body.
  EXPECT_THROW(cn::decode_error(std::span<const std::uint8_t>()),
               cu::ContractViolation);
}

// ---------------- FrameAssembler ----------------

TEST(FrameAssembler, ReassemblesByteAtATimeAndBackToBackFrames) {
  const auto first = sample_frame();
  cn::Frame second;
  second.type = cn::MessageType::kPredictResponse;
  second.request_id = 9;
  second.payload = cn::encode_predict_response({{2.5}});

  std::vector<std::uint8_t> stream = cn::encode_frame(first);
  const auto tail = cn::encode_frame(second);
  stream.insert(stream.end(), tail.begin(), tail.end());

  // One byte at a time: exactly two frames come out, in order.
  cn::FrameAssembler assembler;
  std::vector<cn::Frame> frames;
  for (const std::uint8_t byte : stream) {
    assembler.feed(std::span<const std::uint8_t>(&byte, 1));
    while (auto frame = assembler.poll()) frames.push_back(*std::move(frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], first);
  EXPECT_EQ(frames[1], second);
  EXPECT_EQ(assembler.buffered(), 0u);

  // Whole stream in one feed: same result.
  cn::FrameAssembler bulk;
  bulk.feed(stream);
  EXPECT_EQ(bulk.poll(), std::optional<cn::Frame>(first));
  EXPECT_EQ(bulk.poll(), std::optional<cn::Frame>(second));
  EXPECT_EQ(bulk.poll(), std::nullopt);
}

TEST(FrameAssembler, FailsFastOnProvablyBadPrefix) {
  // A forged length field is rejected from the first four bytes — the
  // assembler never waits for the 4 GiB the attacker promised.
  cn::FrameAssembler assembler;
  const std::uint8_t forged_len[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  assembler.feed(forged_len);
  EXPECT_THROW(assembler.poll(), cu::ContractViolation);

  // Bad version is rejected as soon as its byte is buffered, well before
  // the full frame arrives.
  cn::FrameAssembler versioned;
  const std::uint8_t bad_version[6] = {10, 0, 0, 0, 99, 1};
  versioned.feed(bad_version);
  EXPECT_THROW(versioned.poll(), cu::ContractViolation);

  // reset() discards the poisoned prefix; a fresh stream then parses.
  versioned.reset();
  EXPECT_EQ(versioned.buffered(), 0u);
  versioned.feed(cn::encode_frame(sample_frame()));
  EXPECT_EQ(versioned.poll(), std::optional<cn::Frame>(sample_frame()));
}

// ---------------- SimTransport ----------------

TEST(SimTransport, CleanPairDeliversFramesBothWaysThenEof) {
  auto [client, server] = cn::make_sim_pair();
  const auto frame = sample_frame();
  client->send(cn::encode_frame(frame));

  cn::FrameAssembler server_rx;
  const auto got = recv_frame(*server, server_rx, kMustSucceedNs);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);

  cn::Frame reply;
  reply.type = cn::MessageType::kPredictResponse;
  reply.request_id = frame.request_id;
  reply.payload = cn::encode_predict_response({{10.0, 20.0}});
  server->send(cn::encode_frame(reply));

  cn::FrameAssembler client_rx;
  const auto got_reply = recv_frame(*client, client_rx, kMustSucceedNs);
  ASSERT_TRUE(got_reply.has_value());
  EXPECT_EQ(*got_reply, reply);

  // Close → the peer reads end of stream, and sends on the closed
  // endpoint throw.
  client->close();
  std::uint8_t buf[16];
  EXPECT_EQ(server->recv(std::span<std::uint8_t>(buf), kMustSucceedNs), 0u);
  EXPECT_THROW(client->send(cn::encode_frame(frame)),
               cn::DisconnectedError);
}

TEST(SimTransport, RecvDeadlineThrowsTimeoutWhenNoBytesArrive) {
  auto [client, server] = cn::make_sim_pair();
  std::uint8_t buf[16];
  EXPECT_THROW(server->recv(std::span<std::uint8_t>(buf), kMustTimeoutNs),
               cn::TimeoutError);
  // The connection is still alive afterwards.
  client->send(std::vector<std::uint8_t>{7});
  EXPECT_EQ(server->recv(std::span<std::uint8_t>(buf), kMustSucceedNs), 1u);
  EXPECT_EQ(buf[0], 7u);
}

TEST(SimTransport, DropFaultVanishesExactlyTheScheduledSend) {
  // Send 0 dropped, send 1 clean.
  auto [client, server] = cn::make_sim_pair(
      cn::FaultSchedule({cn::Fault::drop(), cn::Fault::none()}));
  client->send(std::vector<std::uint8_t>{1, 2, 3});
  std::uint8_t buf[16];
  EXPECT_THROW(server->recv(std::span<std::uint8_t>(buf), kMustTimeoutNs),
               cn::TimeoutError);
  client->send(std::vector<std::uint8_t>{9});
  ASSERT_EQ(server->recv(std::span<std::uint8_t>(buf), kMustSucceedNs), 1u);
  EXPECT_EQ(buf[0], 9u);
}

TEST(SimTransport, TruncateFaultDeliversOnlyAPrefix) {
  auto [client, server] =
      cn::make_sim_pair(cn::FaultSchedule({cn::Fault::truncate(2)}));
  client->send(std::vector<std::uint8_t>{5, 6, 7, 8});
  std::uint8_t buf[16];
  ASSERT_EQ(server->recv(std::span<std::uint8_t>(buf), kMustSucceedNs), 2u);
  EXPECT_EQ(buf[0], 5u);
  EXPECT_EQ(buf[1], 6u);
  // The rest never arrives: a partial frame stalls until a deadline fires.
  EXPECT_THROW(server->recv(std::span<std::uint8_t>(buf), kMustTimeoutNs),
               cn::TimeoutError);
}

TEST(SimTransport, DuplicateFaultDeliversTheChunkTwice) {
  auto [client, server] =
      cn::make_sim_pair(cn::FaultSchedule({cn::Fault::duplicate()}));
  const auto frame = sample_frame();
  client->send(cn::encode_frame(frame));
  cn::FrameAssembler rx;
  const auto first = recv_frame(*server, rx, kMustSucceedNs);
  const auto second = recv_frame(*server, rx, kMustSucceedNs);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, frame);
  EXPECT_EQ(*second, frame);
}

TEST(SimTransport, DelayFaultHoldsTheChunkUntilALaterSend) {
  auto [client, server] =
      cn::make_sim_pair(cn::FaultSchedule({cn::Fault::delay(1)}));
  client->send(std::vector<std::uint8_t>{1});
  std::uint8_t buf[16];
  // Held: nothing arrives yet.
  EXPECT_THROW(server->recv(std::span<std::uint8_t>(buf), kMustTimeoutNs),
               cn::TimeoutError);
  // The next send releases it; delivery order is send 1, then send 0.
  client->send(std::vector<std::uint8_t>{2});
  std::size_t got = 0;
  while (got < 2) {
    got += server->recv(
        std::span<std::uint8_t>(buf + got, sizeof(buf) - got),
        kMustSucceedNs);
  }
  EXPECT_EQ(buf[0], 2u);
  EXPECT_EQ(buf[1], 1u);
}

TEST(SimTransport, ReorderFaultSwapsAdjacentSends) {
  auto [client, server] =
      cn::make_sim_pair(cn::FaultSchedule({cn::Fault::reorder()}));
  client->send(std::vector<std::uint8_t>{1});
  client->send(std::vector<std::uint8_t>{2});
  std::uint8_t buf[16];
  std::size_t got = 0;
  while (got < 2) {
    got += server->recv(
        std::span<std::uint8_t>(buf + got, sizeof(buf) - got),
        kMustSucceedNs);
  }
  EXPECT_EQ(buf[0], 2u);
  EXPECT_EQ(buf[1], 1u);
}

TEST(SimTransport, DisconnectAfterFaultDeliversPrefixThenKillsDirection) {
  auto [client, server] =
      cn::make_sim_pair(cn::FaultSchedule({cn::Fault::disconnect_after(3)}));
  client->send(std::vector<std::uint8_t>{1, 2, 3, 4, 5});
  std::uint8_t buf[16];
  ASSERT_EQ(server->recv(std::span<std::uint8_t>(buf), kMustSucceedNs), 3u);
  // Then a clean end of stream, and the sender's endpoint is dead.
  EXPECT_EQ(server->recv(std::span<std::uint8_t>(buf), kMustSucceedNs), 0u);
  EXPECT_THROW(client->send(std::vector<std::uint8_t>{6}),
               cn::DisconnectedError);
}

TEST(SimTransport, SeededSchedulesAreDeterministicAndRateControlled) {
  const auto a = cn::FaultSchedule::seeded(1234, 64, 0.5);
  const auto b = cn::FaultSchedule::seeded(1234, 64, 0.5);
  ASSERT_EQ(a.planned_sends(), 64u);
  std::size_t faults = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.at(i), b.at(i)) << "send " << i;
    if (a.at(i).kind != cn::Fault::Kind::kNone) ++faults;
    // kDisconnectAfter is never drawn by seeded sweeps.
    EXPECT_NE(a.at(i).kind, cn::Fault::Kind::kDisconnectAfter);
  }
  EXPECT_GT(faults, 0u);
  EXPECT_LT(faults, 64u);

  // A different seed produces a different plan.
  const auto c = cn::FaultSchedule::seeded(1235, 64, 0.5);
  bool any_diff = false;
  for (std::size_t i = 0; i < 64; ++i) any_diff |= !(a.at(i) == c.at(i));
  EXPECT_TRUE(any_diff);

  // Rate 0 → clean; sends past the plan are clean.
  const auto clean = cn::FaultSchedule::seeded(1, 8, 0.0);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(clean.at(i).kind, cn::Fault::Kind::kNone);
  }
}
