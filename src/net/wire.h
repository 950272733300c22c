// The COMET wire protocol: length-prefixed binary frames for networked
// explanation serving.
//
// The protocol has one request/reply pair — kPredictRequest answered by
// kPredictResponse or kError — and every message on a shard connection
// is one frame:
//
//   offset  size  field
//   0       4     u32  payload length (little-endian; payload bytes only)
//   4       1     u8   protocol version (kWireVersion)
//   5       1     u8   message type (MessageType)
//   6       2     u16  flags (reserved, must be 0)
//   8       8     u64  request id (client-chosen; echoed by responses)
//   16      4     u32  payload checksum (low 32 bits of FNV-1a 64)
//   20      ...        payload (type-specific, see the codecs below)
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern in a u64, so a prediction crosses the wire bit-identically —
// the serving determinism contract (served == sequential, to the last
// bit) survives the network hop.
//
// Threat model: the decode side consumes bytes from remote clients, so it
// is an untrusted-input surface under the PR 8 rules — every bound is
// COMET_CHECK-guarded (a malformed or adversarial frame throws typed
// util::ContractViolation, never crashes, and a forged length field is
// rejected against kMaxPayload *before* any buffer is sized), and
// fuzz/fuzz_wire_protocol.cpp holds a decode→encode→redecode round-trip
// oracle over arbitrary bytes.
//
// FrameAssembler is the streaming half: transports deliver arbitrary byte
// chunks (sockets fragment, SimTransport faults truncate); the assembler
// buffers them and yields complete frames in order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace comet::net {

/// Current protocol version; bumped on any layout or codec change.
/// v3 cut the protocol to one request/reply pair plus kError and dropped
/// the priority/deadline prefix of kPredictRequest; v1 and v2 frames are
/// rejected at decode with a typed version-mismatch ContractViolation.
inline constexpr std::uint8_t kWireVersion = 3;

/// Fixed frame header size in bytes (the payload follows).
inline constexpr std::size_t kHeaderSize = 20;

/// Hard ceiling on a frame's payload. A length field above this is
/// rejected before any allocation (forged-size defense).
inline constexpr std::size_t kMaxPayload = std::size_t{1} << 24;  // 16 MiB

/// Message types understood by the remote-shard protocol. The values are
/// contiguous, so is_valid_message_type is a range check.
enum class MessageType : std::uint8_t {
  kPredictRequest = 1,   ///< client → server: blocks to price
  kPredictResponse = 2,  ///< server → client: predictions, same request id
  kError = 3,            ///< server → client: typed failure report
};

/// True for every value a conforming peer may put in the type byte.
bool is_valid_message_type(std::uint8_t raw);

/// One decoded frame. Payload bytes are type-specific; use the codecs
/// below to interpret them.
struct Frame {
  std::uint8_t version = kWireVersion;
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serialize `frame` into one contiguous buffer (header + payload).
/// Throws util::ContractViolation if the payload exceeds kMaxPayload.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decode exactly one frame occupying the whole of `bytes`. Bounds,
/// version, type, flags, and checksum are all COMET_CHECK-guarded: any
/// malformed input throws util::ContractViolation.
Frame decode_frame(std::span<const std::uint8_t> bytes);

/// Streaming frame reassembly over a byte-oriented transport. feed()
/// appends whatever chunk the transport produced; poll() yields the next
/// complete frame, nullopt while bytes are missing, and throws
/// util::ContractViolation as soon as the buffered prefix is provably
/// malformed (bad version/type/flags, oversized length, bad checksum).
class FrameAssembler {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  std::optional<Frame> poll();

  /// Bytes buffered but not yet consumed by poll().
  std::size_t buffered() const { return buffer_.size(); }

  /// Discard buffered bytes (call when the underlying connection is
  /// dropped: a partial frame from a dead transport must not prefix the
  /// next connection's stream).
  void reset() { buffer_.clear(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

// ------------------------------------------------------------- payloads --
// Each payload codec is a (encode → std::vector<uint8_t>, decode ←
// std::span) pair. Decoders COMET_CHECK every length against the bytes
// actually present and reject trailing garbage.

/// kPredictRequest: the blocks to price, as their canonical text (the
/// same string the memo caches key on, so the server prices exactly what
/// the client would have): a u32 block count, then one length-prefixed
/// string per block.
struct PredictRequest {
  std::vector<std::string> block_texts;

  friend bool operator==(const PredictRequest&, const PredictRequest&) =
      default;
};

/// kPredictResponse: one prediction per requested block, in order.
struct PredictResponse {
  std::vector<double> values;

  friend bool operator==(const PredictResponse&, const PredictResponse&) =
      default;
};

/// kError: a server-side failure the client can act on.
struct ErrorBody {
  /// Stable error codes (protocol surface, not an enum so unknown codes
  /// from newer servers stay representable).
  static constexpr std::uint32_t kParseError = 1;    ///< block text rejected
  static constexpr std::uint32_t kBadRequest = 2;    ///< malformed payload
  static constexpr std::uint32_t kInternalError = 3; ///< model failure

  std::uint32_t code = kInternalError;
  std::string message;

  friend bool operator==(const ErrorBody&, const ErrorBody&) = default;
};

std::vector<std::uint8_t> encode_predict_request(const PredictRequest& req);
PredictRequest decode_predict_request(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_predict_response(const PredictResponse& res);
PredictResponse decode_predict_response(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_error(const ErrorBody& error);
ErrorBody decode_error(std::span<const std::uint8_t> bytes);

}  // namespace comet::net
