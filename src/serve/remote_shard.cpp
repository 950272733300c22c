#include "serve/remote_shard.h"

#include <algorithm>
#include <array>
#include <exception>
#include <iterator>
#include <optional>
#include <utility>

#include "obs/clock.h"
#include "util/contract.h"
#include "x86/parser.h"

namespace comet::serve {

namespace {

/// Send attempts per request: the first, plus one reconnect and resend
/// after a dead connection.
constexpr std::size_t kMaxAttempts = 2;

// What to tell the caller when the server answered the request id but not
// the request: a kError frame, or an off-protocol response type.
std::string refusal_message(const net::Frame& frame) {
  if (frame.type == net::MessageType::kError) {
    const net::ErrorBody error = net::decode_error(frame.payload);
    return "remote-shard: server error " + std::to_string(error.code) + ": " +
           error.message;
  }
  return "remote-shard: unexpected response type " +
         std::to_string(static_cast<unsigned>(frame.type));
}

}  // namespace

// ---------------------------------------------------- RemoteShardClient --

RemoteShardClient::RemoteShardClient(Connector connector,
                                     RemoteShardOptions options)
    : connector_(std::move(connector)), options_(std::move(options)) {
  COMET_CHECK_MSG(connector_ != nullptr, "remote-shard: null connector");
  COMET_CHECK_MSG(options_.request_timeout_ns > 0,
                  "remote-shard: request timeout must be positive");
}

RemoteShardClient::~RemoteShardClient() {
  // Closing our end gives the server session a clean EOF to drain on.
  util::MutexLock lock(mutex_);
  drop_transport();
}

std::string RemoteShardClient::name() const { return "remote-shard"; }

net::Transport& RemoteShardClient::ensure_transport() const {
  if (!transport_) {
    transport_ = connector_();
    COMET_CHECK_MSG(transport_ != nullptr,
                    "remote-shard: connector returned null");
    // A fresh connection starts a fresh byte stream.
    assembler_.reset();
    if (ever_connected_) ++counters_.reconnects;
    ever_connected_ = true;
  }
  return *transport_;
}

void RemoteShardClient::drop_transport() const {
  if (transport_) transport_->close();
  transport_ = nullptr;
  assembler_.reset();
}

net::Frame RemoteShardClient::round_trip(
    std::vector<std::uint8_t> payload) const {
  net::Frame request;
  request.type = net::MessageType::kPredictRequest;
  request.request_id = next_id_++;
  request.payload = std::move(payload);
  // Encoded once: every resend attempt ships the identical bytes under the
  // identical id, so a duplicate delivery is indistinguishable from a
  // retry and the response matcher needs no per-attempt state.
  const std::vector<std::uint8_t> encoded = net::encode_frame(request);

  const obs::Clock& clock = obs::steady_clock();
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      net::Transport& transport = ensure_transport();
      // Taken before the send: the deadline covers this attempt's send
      // and wait, so time spent in a slow send is not free.
      const std::uint64_t deadline =
          clock.now_ns() + options_.request_timeout_ns;
      transport.send(encoded);
      std::array<std::uint8_t, 4096> buf;
      for (;;) {
        while (std::optional<net::Frame> frame = assembler_.poll()) {
          if (frame->request_id == request.request_id) {
            return *std::move(frame);
          }
          // A response to a request that already timed out, or a
          // fault-duplicated frame: count it and move on.
          ++counters_.stale_frames;
        }
        const std::uint64_t now = clock.now_ns();
        if (now >= deadline) {
          throw net::TimeoutError("remote-shard: request deadline elapsed");
        }
        const std::size_t n =
            transport.recv(std::span<std::uint8_t>(buf), deadline - now);
        if (n == 0) {
          throw net::DisconnectedError(
              "remote-shard: server closed the connection");
        }
        assembler_.feed(std::span<const std::uint8_t>(buf.data(), n));
      }
    } catch (const net::TimeoutError&) {
      // The stream state after a timeout is unknowable (the response may
      // be half-delivered), so the connection is dropped — and the
      // deadline is a promise to the caller, so there is no retry.
      ++counters_.timeouts;
      drop_transport();
      throw;
    } catch (const net::TransportError&) {
      ++counters_.wire_errors;
      drop_transport();
      if (attempt + 1 >= kMaxAttempts) throw;
    } catch (const util::ContractViolation& violation) {
      // Garbage bytes from the peer (a malformed frame out of the
      // assembler): same treatment as a dead connection.
      ++counters_.wire_errors;
      drop_transport();
      if (attempt + 1 >= kMaxAttempts) {
        throw net::DisconnectedError(
            std::string("remote-shard: malformed bytes from server: ") +
            violation.what());
      }
    }
  }
}

double RemoteShardClient::predict(const x86::BasicBlock& block) const {
  double out = 0.0;
  predict_batch(std::span<const x86::BasicBlock>(&block, 1),
                std::span<double>(&out, 1));
  return out;
}

void RemoteShardClient::predict_batch(std::span<const x86::BasicBlock> blocks,
                                      std::span<double> out) const {
  COMET_CHECK_MSG(out.size() == blocks.size(),
                  "remote-shard: predict_batch out/blocks size mismatch");
  if (blocks.empty()) return;
  net::PredictRequest request;
  request.block_texts.reserve(blocks.size());
  for (const x86::BasicBlock& block : blocks) {
    request.block_texts.push_back(block.to_string());
  }
  {
    util::MutexLock lock(mutex_);
    ++counters_.requests;
    try {
      const net::Frame response =
          round_trip(net::encode_predict_request(request));
      if (response.type == net::MessageType::kPredictResponse) {
        const net::PredictResponse decoded =
            net::decode_predict_response(response.payload);
        COMET_CHECK_MSG(decoded.values.size() == blocks.size(),
                        "remote-shard: server returned "
                            << decoded.values.size() << " predictions for "
                            << blocks.size() << " blocks");
        std::copy(decoded.values.begin(), decoded.values.end(), out.begin());
        ++counters_.responses;
        return;
      }
      throw net::TransportError(refusal_message(response));
    } catch (const net::TransportError&) {
      if (!options_.fallback) throw;
      ++counters_.failovers;
    } catch (const util::ContractViolation&) {
      // The frame was sound but its payload wasn't (or the count was
      // wrong): the remote answer is unusable.
      ++counters_.wire_errors;
      if (!options_.fallback) throw;
      ++counters_.failovers;
    }
  }
  // Failover: serve locally. Outside mutex_ so a slow fallback model does
  // not block counters()/the next caller longer than it must.
  options_.fallback->predict_batch(blocks, out);
}

RemoteShardClient::Counters RemoteShardClient::counters() const {
  util::MutexLock lock(mutex_);
  return counters_;
}

// ---------------------------------------------------- RemoteShardServer --

RemoteShardServer::RemoteShardServer(
    std::shared_ptr<const cost::CostModel> model)
    : model_(std::move(model)) {
  COMET_CHECK_MSG(model_ != nullptr, "RemoteShardServer: null model");
}

RemoteShardServer::~RemoteShardServer() { stop(); }

void RemoteShardServer::serve(net::Transport& transport) {
  {
    util::MutexLock lock(mutex_);
    ++counters_.sessions;
  }
  session_loop(transport);
  // However the session ended, close our side so the peer observes a
  // clean end of stream instead of a connection that hangs open.
  transport.close();
}

void RemoteShardServer::session_loop(net::Transport& transport) {
  net::FrameAssembler assembler;
  std::array<std::uint8_t, 4096> buf;
  for (;;) {
    try {
      std::optional<net::Frame> frame = assembler.poll();
      while (!frame.has_value()) {
        // A server session blocks until the client speaks or stop()
        // closes the transport — the drain contract, not a hang.
        // comet-lint: allow(unbounded-wait)
        const std::size_t n =
            transport.recv(std::span<std::uint8_t>(buf), net::kNoTimeout);
        if (n == 0) return;  // peer closed: clean session end
        assembler.feed(std::span<const std::uint8_t>(buf.data(), n));
        frame = assembler.poll();
      }
      handle_frame(transport, *frame);
    } catch (const util::ContractViolation& violation) {
      // Malformed bytes from the client: report best-effort, then end the
      // session — the stream has no recoverable frame boundary left.
      {
        util::MutexLock lock(mutex_);
        ++counters_.errors;
      }
      try {
        net::Frame reply;
        reply.type = net::MessageType::kError;
        reply.payload = net::encode_error(
            {net::ErrorBody::kBadRequest, violation.what()});
        transport.send(net::encode_frame(reply));
      } catch (const net::TransportError&) {
        // The peer is gone too; nothing to report to.
      }
      return;
    } catch (const net::TransportError&) {
      return;  // connection died, or stop() closed it: session over
    }
  }
}

void RemoteShardServer::handle_frame(net::Transport& transport,
                                     const net::Frame& frame) {
  net::Frame reply;
  reply.request_id = frame.request_id;
  // A sound frame keeps its boundary, so each failure below fails this
  // one request under its id and the session stays open.
  const auto refuse = [&](std::uint32_t code, const char* message) {
    {
      util::MutexLock lock(mutex_);
      ++counters_.errors;
    }
    reply.type = net::MessageType::kError;
    reply.payload = net::encode_error({code, message});
    transport.send(net::encode_frame(reply));
  };
  if (frame.type != net::MessageType::kPredictRequest) {
    // Response types never flow client → server.
    refuse(net::ErrorBody::kBadRequest, "unexpected message type");
    return;
  }
  {
    util::MutexLock lock(mutex_);
    ++counters_.requests;
  }
  std::vector<x86::BasicBlock> blocks;
  try {
    const net::PredictRequest request =
        net::decode_predict_request(frame.payload);
    blocks.reserve(request.block_texts.size());
    for (const std::string& text : request.block_texts) {
      blocks.push_back(x86::parse_block(text));
    }
  } catch (const x86::ParseError& error) {
    refuse(net::ErrorBody::kParseError, error.what());
    return;
  } catch (const util::ContractViolation& violation) {
    refuse(net::ErrorBody::kBadRequest, violation.what());
    return;
  }
  std::vector<double> values(blocks.size());
  try {
    model_->predict_batch(blocks, values);
  } catch (const std::exception& error) {
    // The client fails over or surfaces the typed error.
    refuse(net::ErrorBody::kInternalError, error.what());
    return;
  }
  {
    util::MutexLock lock(mutex_);
    // The server is memo-free (the client-side brokers already
    // deduplicate), so requested == evaluated by construction.
    stats_.requested += blocks.size();
    stats_.evaluated += blocks.size();
    stats_.batch_calls += 1;
    ++counters_.responses;
  }
  reply.type = net::MessageType::kPredictResponse;
  reply.payload = net::encode_predict_response({std::move(values)});
  transport.send(net::encode_frame(reply));
}

void RemoteShardServer::start(std::unique_ptr<net::Transport> transport) {
  COMET_CHECK_MSG(transport != nullptr, "RemoteShardServer: null transport");
  std::list<Session> ended;
  {
    util::MutexLock lock(mutex_);
    COMET_CHECK_MSG(!stopping_, "RemoteShardServer: start() after stop()");
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto next = std::next(it);
      if (it->ended.load()) ended.splice(ended.end(), sessions_, it);
      it = next;
    }
    Session& session = sessions_.emplace_back();
    session.transport = std::move(transport);
    try {
      session.thread = std::thread([this, &session] {
        serve(*session.transport);
        session.ended.store(true);
      });
    } catch (...) {
      sessions_.pop_back();  // no thread: nothing to join later
      throw;
    }
  }
  // Joined outside the lock: an ended session has at most its return
  // left to run.
  for (Session& session : ended) session.thread.join();
}

void RemoteShardServer::stop() {
  std::list<Session> sessions;
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
    sessions.swap(sessions_);
  }
  // Close every session's transport (unblocks their recv with EOF), then
  // join outside the lock so draining sessions can still take it.
  for (Session& session : sessions) session.transport->close();
  for (Session& session : sessions) session.thread.join();
}

RemoteShardServer::Counters RemoteShardServer::counters() const {
  util::MutexLock lock(mutex_);
  return counters_;
}

cost::QueryStats RemoteShardServer::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace comet::serve
