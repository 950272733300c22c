// Remote shards: a cost model living in another process, reached over the
// net/ wire protocol.
//
//     scheduler → RemoteShardClient → [wire protocol] → remote model
//
// serve::RemoteShardClient is a cost::CostModel whose predict/predict_batch
// serialize the blocks (canonical text — the same string every memo cache
// keys on), frame them (net/wire.h), and round-trip them over a
// net::Transport to a serve::RemoteShardServer wrapping the real model.
// Because the client *is* a CostModel, it registers with the
// ExplanationServer like any local model; predictions cross the wire as
// IEEE-754 bit patterns, so remotely served explanations stay
// bit-identical to in-process ones (asserted by
// tests/test_remote_shard.cpp against the sequential plain-model path).
//
// Failure semantics (each path has a typed, tested outcome):
//   * per-attempt deadline  — RemoteShardOptions::request_timeout_ns bounds
//     each attempt's send + wait; expiry throws net::TimeoutError. The
//     connection is dropped (its stream state is unknowable), never
//     retried: a deadline is a promise to the caller, not a hint.
//   * reconnect             — a dead connection (peer EOF, reset, garbage
//     bytes) is dropped and re-dialed through the connector, and the
//     request is resent once (two tries in all).
//   * failover              — when attempts are exhausted (or the deadline
//     fired) and a fallback model is configured, the request is served
//     by the fallback; with no fallback the typed error propagates. This
//     is the repo's one failover path. Tiers nest: the fallback may be
//     another RemoteShardClient with a fallback of its own (remote →
//     remote → local), each client counting its own failovers.
//   * refused request       — an exception out of the server's model
//     (ErrorBody::kInternalError), a bad block text (kParseError) or an
//     undecodable predict payload (kBadRequest) fails that request with
//     a kError reply; the session stays open, and the client fails over
//     or throws the typed error, exactly as for an unreachable server.
//
// Responses are matched to requests by id: stale frames (a late response
// to a request that already timed out, or a fault-duplicated response)
// are counted and discarded, so one slow exchange cannot poison the next.
//
// Thread-safety: the client is const-thread-safe the way every model in
// the repo is — requests serialize on one internal mutex, which also
// guards the connection (server workers sharing one client take turns on
// it, and a re-dial runs under it), and counters() may be called
// concurrently from any thread. All connection state is annotated
// COMET_GUARDED_BY.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost_model.h"
#include "cost/query_stats.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/sync.h"

namespace comet::serve {

struct RemoteShardOptions {
  /// Deadline per attempt, over its whole round-trip (send + wait).
  /// Expiry throws net::TimeoutError (or fails over, if a fallback is
  /// set).
  /// Timeouts never retry; a dead connection gets one reconnect.
  std::uint64_t request_timeout_ns = 500'000'000;  // 500ms
  /// Model serving the request when the remote side is unreachable
  /// (timeout or attempts exhausted): a local model, or another client
  /// for a further tier. nullptr = propagate the typed error.
  std::shared_ptr<const cost::CostModel> fallback;
};

class RemoteShardClient final : public cost::CostModel {
 public:
  /// Dials one connection to the shard's server. Called lazily for the
  /// first request and again on every reconnect; must return a connected
  /// transport or throw net::TransportError.
  using Connector = std::function<std::unique_ptr<net::Transport>()>;

  explicit RemoteShardClient(Connector connector,
                             RemoteShardOptions options = {});
  ~RemoteShardClient() override;

  double predict(const x86::BasicBlock& block) const override;
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) const override;
  /// "remote-shard".
  std::string name() const override;

  /// Failure-mode accounting, all monotonic.
  struct Counters {
    std::uint64_t requests = 0;    ///< predict/predict_batch round-trips
    std::uint64_t responses = 0;   ///< served remotely
    std::uint64_t timeouts = 0;    ///< request deadline fired
    std::uint64_t reconnects = 0;  ///< connection re-dialed after a death
    std::uint64_t failovers = 0;   ///< served by the local fallback
    std::uint64_t stale_frames = 0;  ///< late/duplicate responses discarded
    std::uint64_t wire_errors = 0;   ///< malformed bytes / dead connections
  };
  Counters counters() const;

 private:
  // One framed round-trip: send a kPredictRequest carrying `payload`,
  // await the matching response frame within each attempt's deadline.
  // Throws the typed net errors.
  net::Frame round_trip(std::vector<std::uint8_t> payload) const
      COMET_REQUIRES(mutex_);

  // Connection lifecycle: the live connection, dialed on demand (the dial
  // may block; it runs under mutex_ like the request that needs it), and
  // its teardown.
  net::Transport& ensure_transport() const COMET_REQUIRES(mutex_);
  void drop_transport() const COMET_REQUIRES(mutex_);

  Connector connector_;
  RemoteShardOptions options_;

  mutable util::Mutex mutex_;  // serializes requests; guards the connection
  mutable std::uint64_t next_id_ COMET_GUARDED_BY(mutex_) = 1;
  mutable std::unique_ptr<net::Transport> transport_ COMET_GUARDED_BY(mutex_);
  mutable net::FrameAssembler assembler_ COMET_GUARDED_BY(mutex_);
  mutable Counters counters_ COMET_GUARDED_BY(mutex_);
  mutable bool ever_connected_ COMET_GUARDED_BY(mutex_) = false;
};

/// The server half: wraps a local model and serves the wire protocol over
/// one or more transports (one session thread each). Sessions end on peer
/// EOF, malformed bytes (best-effort kError reply, then close), or
/// stop(); stop() closes every started transport and joins every session
/// thread, so destruction is a graceful drain. A sound frame the server
/// cannot answer — an undecodable payload or a non-request type
/// (kBadRequest), a bad block text (kParseError), an exception out of the
/// model (kInternalError) — fails that one request; the session stays
/// open.
class RemoteShardServer {
 public:
  explicit RemoteShardServer(std::shared_ptr<const cost::CostModel> model);
  ~RemoteShardServer();

  RemoteShardServer(const RemoteShardServer&) = delete;
  RemoteShardServer& operator=(const RemoteShardServer&) = delete;

  /// Serve one connection on the calling thread until the session ends.
  /// Never throws: every transport death or malformed frame resolves to a
  /// clean session end (counted in counters().errors where applicable).
  void serve(net::Transport& transport);

  /// Serve `transport` on an internal thread (the in-process deployment
  /// shape: one server, one session per client connection). Sessions that
  /// have already ended are joined and released here, so a client that
  /// re-dials does not grow the server.
  void start(std::unique_ptr<net::Transport> transport);

  /// Close every started transport and join every session thread.
  /// Idempotent; also run by the destructor.
  void stop();

  struct Counters {
    std::uint64_t sessions = 0;   ///< serve()/start() connections begun
    std::uint64_t requests = 0;   ///< kPredictRequest frames received
    std::uint64_t responses = 0;  ///< predict responses sent
    std::uint64_t errors = 0;     ///< kError frames sent (parse, bad
                                  ///< bytes, model failure)
  };
  Counters counters() const;

  /// Ledger of the traffic this server evaluated (requested == evaluated:
  /// the server is deliberately memo-free — the client-side brokers
  /// already deduplicate, and a second cache would only hide their hit
  /// rates).
  cost::QueryStats stats() const;

 private:
  // One started connection. The list node never moves, so the session
  // thread may hold a reference to it; `ended` is its last write.
  struct Session {
    std::unique_ptr<net::Transport> transport;
    std::thread thread;
    std::atomic<bool> ended{false};
  };

  // The serve() body: frames in, replies out, until the session ends.
  void session_loop(net::Transport& transport);
  // Answers one sound frame: a reply, or a kError for this request alone.
  void handle_frame(net::Transport& transport, const net::Frame& frame);

  std::shared_ptr<const cost::CostModel> model_;
  mutable util::Mutex mutex_;
  Counters counters_ COMET_GUARDED_BY(mutex_);
  cost::QueryStats stats_ COMET_GUARDED_BY(mutex_);
  std::list<Session> sessions_ COMET_GUARDED_BY(mutex_);
  bool stopping_ COMET_GUARDED_BY(mutex_) = false;
};

}  // namespace comet::serve
