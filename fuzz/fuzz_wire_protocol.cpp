// Fuzz harness: the net/ wire protocol over arbitrary bytes.
//
// Contract under test: net::decode_frame, net::FrameAssembler, and every
// payload codec either accept the input or throw util::ContractViolation.
// Anything else — a crash, a sanitizer finding, an unexpected exception
// type — is a bug. Oracles:
//   * decode → encode → redecode: a successfully decoded frame must
//     re-encode to the exact input bytes (the encoding is canonical:
//     flags are forced to 0 and the checksum is recomputed) and redecode
//     to an equal frame.
//   * streaming == one-shot: feeding the same bytes to a FrameAssembler
//     byte-at-a-time must yield the same first frame (or the same
//     rejection) as the whole-buffer decode.
//   * payload codecs round-trip: a payload that decodes under its type's
//     codec must re-encode to the identical payload bytes.
#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "net/wire.h"
#include "util/contract.h"

namespace {

// Re-encoding a decoded payload must reproduce the bytes on the wire;
// comparing bytes (not decoded values) keeps NaN bit patterns honest.
void check_payload_roundtrip(const comet::net::Frame& frame) {
  namespace cn = comet::net;
  const std::span<const std::uint8_t> payload(frame.payload);
  try {
    std::vector<std::uint8_t> again;
    switch (frame.type) {
      case cn::MessageType::kPredictRequest:
        again = cn::encode_predict_request(cn::decode_predict_request(payload));
        break;
      case cn::MessageType::kPredictResponse:
        again =
            cn::encode_predict_response(cn::decode_predict_response(payload));
        break;
      case cn::MessageType::kError:
        again = cn::encode_error(cn::decode_error(payload));
        break;
    }
    if (again != frame.payload) {
      __builtin_trap();  // codec round trip changed the bytes
    }
  } catch (const comet::util::ContractViolation&) {
    // expected rejection: framing was fine but the payload is malformed
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace cn = comet::net;
  const std::span<const std::uint8_t> bytes(data, size);

  std::optional<cn::Frame> decoded;
  try {
    decoded = cn::decode_frame(bytes);
  } catch (const comet::util::ContractViolation&) {
    // expected rejection of malformed input
  }

  if (decoded.has_value()) {
    const std::vector<std::uint8_t> encoded = cn::encode_frame(*decoded);
    if (encoded.size() != size ||
        !std::equal(encoded.begin(), encoded.end(), data)) {
      __builtin_trap();  // canonical re-encoding diverged from the input
    }
    if (cn::decode_frame(encoded) != *decoded) {
      __builtin_trap();  // redecode disagreed with the first decode
    }
    check_payload_roundtrip(*decoded);
  }

  // Streaming reassembly must agree with the one-shot decode: same first
  // frame from a byte-at-a-time feed, or a rejection of its own (the
  // assembler fails fast on bad prefixes, so it may reject input the
  // whole-buffer decode would reject too — but it must never accept a
  // frame the one-shot decode rejected).
  cn::FrameAssembler assembler;
  std::optional<cn::Frame> streamed;
  try {
    for (std::size_t i = 0; i < size && !streamed.has_value(); ++i) {
      assembler.feed(bytes.subspan(i, 1));
      streamed = assembler.poll();
    }
  } catch (const comet::util::ContractViolation&) {
    // expected: provably-bad prefix
  }
  if (streamed.has_value()) {
    const std::vector<std::uint8_t> encoded = cn::encode_frame(*streamed);
    if (encoded.size() > size ||
        !std::equal(encoded.begin(), encoded.end(), data)) {
      __builtin_trap();  // assembler yielded a frame the input never held
    }
    if (decoded.has_value() && !(*streamed == *decoded)) {
      __builtin_trap();  // streaming and one-shot decode disagreed
    }
  } else if (decoded.has_value()) {
    __builtin_trap();  // one-shot accepted but the assembler never did
  }
  return 0;
}
