#include "net/wire.h"

#include <bit>

#include "util/contract.h"
#include "util/rng.h"

namespace comet::net {

namespace {

// Little-endian scalar writers/readers. The reader carries its own cursor
// and COMET_CHECKs every advance, so a truncated or forged payload throws
// before any out-of-range access or oversized allocation.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  COMET_CHECK_MSG(s.size() <= kMaxPayload,
                  "string field too large: " << s.size());
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string string() {
    const std::uint32_t len = u32();
    require(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Decoders reject trailing garbage: a conforming peer never pads.
  void expect_end() const {
    COMET_CHECK_MSG(pos_ == bytes_.size(),
                    "trailing bytes in payload: " << (bytes_.size() - pos_));
  }

 private:
  void require(std::size_t n) const {
    COMET_CHECK_MSG(n <= bytes_.size() - pos_,
                    "payload truncated: need " << n << " bytes, have "
                                               << (bytes_.size() - pos_));
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

std::uint32_t payload_checksum(std::span<const std::uint8_t> payload) {
  return static_cast<std::uint32_t>(
      util::fnv1a64(payload.data(), payload.size()) & 0xffffffffULL);
}

}  // namespace

bool is_valid_message_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MessageType::kPredictRequest) &&
         raw <= static_cast<std::uint8_t>(MessageType::kError);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  COMET_CHECK_MSG(frame.payload.size() <= kMaxPayload,
                  "payload exceeds kMaxPayload: " << frame.payload.size());
  COMET_CHECK(is_valid_message_type(static_cast<std::uint8_t>(frame.type)));
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + frame.payload.size());
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  put_u16(out, 0);  // flags, reserved
  put_u64(out, frame.request_id);
  put_u32(out, payload_checksum(frame.payload));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> bytes) {
  COMET_CHECK_MSG(bytes.size() >= kHeaderSize,
                  "frame shorter than header: " << bytes.size());
  std::uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  }
  COMET_CHECK_MSG(payload_len <= kMaxPayload,
                  "forged payload length: " << payload_len);
  COMET_CHECK_MSG(bytes.size() == kHeaderSize + payload_len,
                  "frame length mismatch: buffer " << bytes.size()
                                                   << ", payload "
                                                   << payload_len);
  Frame frame;
  frame.version = bytes[4];
  const std::uint8_t raw_type = bytes[5];
  COMET_CHECK_MSG(frame.version == kWireVersion,
                  "unsupported wire version: " << int{frame.version});
  COMET_CHECK_MSG(is_valid_message_type(raw_type),
                  "unknown message type: " << int{raw_type});
  frame.type = static_cast<MessageType>(raw_type);
  const std::uint16_t flags = static_cast<std::uint16_t>(
      bytes[6] | (static_cast<std::uint16_t>(bytes[7]) << 8));
  COMET_CHECK_MSG(flags == 0, "reserved flags set: " << flags);
  std::uint64_t request_id = 0;
  for (int i = 0; i < 8; ++i) {
    request_id |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  frame.request_id = request_id;
  std::uint32_t checksum = 0;
  for (int i = 0; i < 4; ++i) {
    checksum |= static_cast<std::uint32_t>(bytes[16 + i]) << (8 * i);
  }
  const auto payload = bytes.subspan(kHeaderSize);
  COMET_CHECK_MSG(checksum == payload_checksum(payload),
                  "payload checksum mismatch");
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameAssembler::poll() {
  if (buffer_.size() < 4) return std::nullopt;
  std::uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<std::uint32_t>(buffer_[i]) << (8 * i);
  }
  // Fail fast on a provably bad prefix, before waiting for more bytes a
  // malicious length field promises but never sends.
  COMET_CHECK_MSG(payload_len <= kMaxPayload,
                  "forged payload length: " << payload_len);
  if (buffer_.size() >= 6) {
    COMET_CHECK_MSG(buffer_[4] == kWireVersion,
                    "unsupported wire version: " << int{buffer_[4]});
    COMET_CHECK_MSG(is_valid_message_type(buffer_[5]),
                    "unknown message type: " << int{buffer_[5]});
  }
  const std::size_t total = kHeaderSize + payload_len;
  if (buffer_.size() < total) return std::nullopt;
  Frame frame = decode_frame(
      std::span<const std::uint8_t>(buffer_.data(), total));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  return frame;
}

// ------------------------------------------------------------- payloads --

std::vector<std::uint8_t> encode_predict_request(const PredictRequest& req) {
  COMET_CHECK_MSG(req.block_texts.size() <= kMaxPayload,
                  "request too large: " << req.block_texts.size());
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(req.block_texts.size()));
  for (const auto& text : req.block_texts) put_string(out, text);
  return out;
}

PredictRequest decode_predict_request(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  PredictRequest req;
  const std::uint32_t count = reader.u32();
  // Each block costs at least a 4-byte length; reject forged counts before
  // reserving anything.
  COMET_CHECK_MSG(count <= reader.remaining() / 4,
                  "forged block count: " << count);
  req.block_texts.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    req.block_texts.push_back(reader.string());
  }
  reader.expect_end();
  return req;
}

std::vector<std::uint8_t> encode_predict_response(const PredictResponse& res) {
  COMET_CHECK_MSG(res.values.size() <= kMaxPayload / 8,
                  "response too large: " << res.values.size());
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(res.values.size()));
  for (const double v : res.values) put_u64(out, std::bit_cast<std::uint64_t>(v));
  return out;
}

PredictResponse decode_predict_response(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  const std::uint32_t count = reader.u32();
  COMET_CHECK_MSG(count <= reader.remaining() / 8,
                  "forged value count: " << count);
  PredictResponse res;
  res.values.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    res.values.push_back(std::bit_cast<double>(reader.u64()));
  }
  reader.expect_end();
  return res;
}

std::vector<std::uint8_t> encode_error(const ErrorBody& error) {
  std::vector<std::uint8_t> out;
  put_u32(out, error.code);
  put_string(out, error.message);
  return out;
}

ErrorBody decode_error(std::span<const std::uint8_t> bytes) {
  Reader reader(bytes);
  ErrorBody error;
  error.code = reader.u32();
  error.message = reader.string();
  reader.expect_end();
  return error;
}

}  // namespace comet::net
