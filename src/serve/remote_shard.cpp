#include "serve/remote_shard.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "obs/clock.h"
#include "util/contract.h"
#include "x86/parser.h"

namespace comet::serve {

namespace {

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
  COMET_CHECK_MSG(options_.max_attempts >= 1,
                  "remote-shard: max_attempts must be at least 1");
  COMET_CHECK_MSG(options_.request_timeout_ns > 0,
                  "remote-shard: request timeout must be positive");
}

RemoteShardClient::~RemoteShardClient() {
  // Closing our end gives the server session a clean EOF to drain on.
  drop_transport();
}

std::string RemoteShardClient::name() const { return "remote-shard"; }

void RemoteShardClient::throw_if_cancelled(const char* what) const {
  util::MutexLock lock(conn_mutex_);
  if (cancelled_) throw net::CancelledError(what);
}

void RemoteShardClient::cancel() {
  std::shared_ptr<net::Transport> live;
  {
    util::MutexLock lock(conn_mutex_);
    cancelled_ = true;
    live = transport_;
  }
  // close() is the any-thread cancellation hook: an in-flight recv() on
  // the request thread wakes (EOF), notices cancelled_, and rethrows as
  // CancelledError.
  if (live) live->close();
}

std::shared_ptr<net::Transport> RemoteShardClient::ensure_transport(
    bool* dialed) const {
  {
    util::MutexLock lock(conn_mutex_);
    if (cancelled_) throw net::CancelledError("remote-shard: cancelled");
    if (transport_) {
      *dialed = false;
      return transport_;
    }
  }
  // Dial outside the lock: the connector may block (a real connect), and
  // cancel() must never wait behind it.
  std::shared_ptr<net::Transport> fresh = connector_();
  COMET_CHECK_MSG(fresh != nullptr, "remote-shard: connector returned null");
  util::MutexLock lock(conn_mutex_);
  if (cancelled_) {
    fresh->close();
    throw net::CancelledError("remote-shard: cancelled");
  }
  transport_ = fresh;
  *dialed = true;
  return fresh;
}

void RemoteShardClient::drop_transport() const {
  std::shared_ptr<net::Transport> dead;
  {
    util::MutexLock lock(conn_mutex_);
    dead = std::move(transport_);
    transport_ = nullptr;
  }
  if (dead) dead->close();
}

net::Frame RemoteShardClient::round_trip(net::MessageType request_type,
                                         std::vector<std::uint8_t> payload)
    const {
  net::Frame request;
  request.type = request_type;
  request.request_id = next_id_++;
  request.payload = std::move(payload);
  // Encoded once: every resend attempt ships the identical bytes under the
  // identical id, so a duplicate delivery is indistinguishable from a
  // retry and the response matcher needs no per-attempt state.
  const std::vector<std::uint8_t> encoded = net::encode_frame(request);

  const obs::Clock& clock = obs::steady_clock();
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      bool dialed = false;
      const std::shared_ptr<net::Transport> transport =
          ensure_transport(&dialed);
      if (dialed) {
        // A fresh connection starts a fresh byte stream.
        assembler_.reset();
        if (ever_connected_) ++counters_.reconnects;
        ever_connected_ = true;
      }
      transport->send(encoded);
      const std::uint64_t deadline =
          clock.now_ns() + options_.request_timeout_ns;
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
            transport->recv(std::span<std::uint8_t>(buf), deadline - now);
        if (n == 0) {
          throw net::DisconnectedError(
              "remote-shard: server closed the connection");
        }
        assembler_.feed(std::span<const std::uint8_t>(buf.data(), n));
      }
    } catch (const net::TimeoutError&) {
      throw_if_cancelled("remote-shard: cancelled");
      // The stream state after a timeout is unknowable (the response may
      // be half-delivered), so the connection is dropped — and the
      // deadline is a promise to the caller, so there is no retry.
      ++counters_.timeouts;
      drop_transport();
      assembler_.reset();
      throw;
    } catch (const net::CancelledError&) {
      drop_transport();
      assembler_.reset();
      throw;
    } catch (const net::TransportError&) {
      throw_if_cancelled("remote-shard: cancelled");
      ++counters_.wire_errors;
      drop_transport();
      assembler_.reset();
      if (attempt + 1 >= options_.max_attempts) throw;
    } catch (const util::ContractViolation& violation) {
      // Garbage bytes from the peer (a malformed frame out of the
      // assembler): same treatment as a dead connection.
      throw_if_cancelled("remote-shard: cancelled");
      ++counters_.wire_errors;
      drop_transport();
      assembler_.reset();
      if (attempt + 1 >= options_.max_attempts) {
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
  // Ship the remaining budget, not an absolute clock reading (clocks do
  // not cross hosts): the server sees how long this round-trip may take.
  request.deadline_ns = options_.request_timeout_ns;
  request.block_texts.reserve(blocks.size());
  for (const x86::BasicBlock& block : blocks) {
    request.block_texts.push_back(block.to_string());
  }
  {
    util::MutexLock lock(mutex_);
    ++counters_.requests;
    try {
      const net::Frame response = round_trip(
          net::MessageType::kPredictRequest,
          net::encode_predict_request(request));
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
    } catch (const net::CancelledError&) {
      throw;  // a caller decision, never failed over
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

cost::QueryStats RemoteShardClient::server_stats() const {
  util::MutexLock lock(mutex_);
  const net::Frame response =
      round_trip(net::MessageType::kStatsRequest, {});
  COMET_CHECK_MSG(response.type == net::MessageType::kStatsResponse,
                  "remote-shard: bad stats response type");
  return net::decode_stats(response.payload);
}

bool RemoteShardClient::ping() const {
  util::MutexLock lock(mutex_);
  ++counters_.health_pings;
  net::HealthPing probe;
  // Varies per probe (ids are monotonic) so a stale reply from an earlier
  // probe can never pass the echo check; round_trip's id matching already
  // discards such frames, the nonce is the wire-level belt-and-braces.
  probe.nonce = 0x9e3779b97f4a7c15ULL ^ next_id_;
  try {
    const net::Frame response = round_trip(net::MessageType::kHealthCheck,
                                           net::encode_health_ping(probe));
    if (response.type != net::MessageType::kHealthReply) {
      ++counters_.health_failures;
      return false;
    }
    const net::HealthReply reply = net::decode_health_reply(response.payload);
    if (reply.nonce != probe.nonce) {
      ++counters_.health_failures;
      return false;
    }
    return true;
  } catch (const net::CancelledError&) {
    throw;  // a caller decision, as everywhere else
  } catch (const net::TransportError&) {
    ++counters_.health_failures;
    return false;
  } catch (const util::ContractViolation&) {
    // Malformed reply payload: the shard is up enough to send garbage,
    // which is not up enough to route traffic to.
    ++counters_.wire_errors;
    ++counters_.health_failures;
    return false;
  }
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
      if (!handle_frame(transport, *frame)) return;
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

bool RemoteShardServer::handle_frame(net::Transport& transport,
                                     const net::Frame& frame) {
  net::Frame reply;
  reply.request_id = frame.request_id;
  switch (frame.type) {
    case net::MessageType::kShutdown:
      return false;
    case net::MessageType::kPredictRequest: {
      {
        util::MutexLock lock(mutex_);
        ++counters_.requests;
      }
      try {
        const net::PredictRequest request =
            net::decode_predict_request(frame.payload);
        std::vector<x86::BasicBlock> blocks;
        blocks.reserve(request.block_texts.size());
        for (const std::string& text : request.block_texts) {
          blocks.push_back(x86::parse_block(text));
        }
        std::vector<double> values(blocks.size());
        try {
          model_->predict_batch(blocks, values);
        } catch (const std::exception& error) {
          // A model failure fails this request, not the session: the
          // client fails over or surfaces the typed error.
          {
            util::MutexLock lock(mutex_);
            ++counters_.errors;
          }
          reply.type = net::MessageType::kError;
          reply.payload = net::encode_error(
              {net::ErrorBody::kInternalError, error.what()});
          transport.send(net::encode_frame(reply));
          return true;
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
      } catch (const x86::ParseError& error) {
        // A bad block text fails this request, not the session.
        {
          util::MutexLock lock(mutex_);
          ++counters_.errors;
        }
        reply.type = net::MessageType::kError;
        reply.payload =
            net::encode_error({net::ErrorBody::kParseError, error.what()});
      }
      transport.send(net::encode_frame(reply));
      return true;
    }
    case net::MessageType::kStatsRequest:
      reply.type = net::MessageType::kStatsResponse;
      reply.payload = net::encode_stats(stats());
      transport.send(net::encode_frame(reply));
      return true;
    case net::MessageType::kHealthCheck: {
      net::HealthReply health;
      try {
        health.nonce = net::decode_health_ping(frame.payload).nonce;
      } catch (const util::ContractViolation& violation) {
        {
          util::MutexLock lock(mutex_);
          ++counters_.errors;
        }
        reply.type = net::MessageType::kError;
        reply.payload = net::encode_error(
            {net::ErrorBody::kBadRequest, violation.what()});
        transport.send(net::encode_frame(reply));
        return true;
      }
      {
        util::MutexLock lock(mutex_);
        ++counters_.health_checks;
        health.requests_served = counters_.requests;
      }
      reply.type = net::MessageType::kHealthReply;
      reply.payload = net::encode_health_reply(health);
      transport.send(net::encode_frame(reply));
      return true;
    }
    default: {
      // Response types never flow client → server.
      {
        util::MutexLock lock(mutex_);
        ++counters_.errors;
      }
      reply.type = net::MessageType::kError;
      reply.payload = net::encode_error(
          {net::ErrorBody::kBadRequest, "unexpected message type"});
      transport.send(net::encode_frame(reply));
      return true;
    }
  }
}

void RemoteShardServer::start(std::unique_ptr<net::Transport> transport) {
  COMET_CHECK_MSG(transport != nullptr, "RemoteShardServer: null transport");
  std::shared_ptr<net::Transport> shared = std::move(transport);
  util::MutexLock lock(mutex_);
  COMET_CHECK_MSG(!stopping_, "RemoteShardServer: start() after stop()");
  transports_.push_back(shared);
  threads_.emplace_back([this, shared] { serve(*shared); });
}

void RemoteShardServer::stop() {
  std::vector<std::shared_ptr<net::Transport>> transports;
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
    transports.swap(transports_);
    threads.swap(threads_);
  }
  // Close every session's transport (unblocks their recv with EOF), then
  // join outside the lock so draining sessions can still take it.
  for (const auto& transport : transports) transport->close();
  for (std::thread& thread : threads) thread.join();
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
