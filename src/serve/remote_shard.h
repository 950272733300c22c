// Remote shards: serve::ShardedBrokerPool shards living in another
// process, reached over the net/ wire protocol.
//
//     scheduler → pools → shards → [wire protocol] → remote models
//
// serve::RemoteShardClient is a cost::CostModel whose predict/predict_batch
// serialize the blocks (canonical text — the same string every memo cache
// keys on), frame them (net/wire.h), and round-trip them over a
// net::Transport to a serve::RemoteShardServer wrapping the real model.
// Because the client *is* a CostModel, a remote shard drops into every
// existing seam unchanged: hand a connector to ShardedCostModel's factory
// and the pool's shard threads each own a connection to a remote process;
// predictions cross the wire as IEEE-754 bit patterns, so remote-sharded
// explanations stay bit-identical to in-process ones (asserted by
// tests/test_remote_shard.cpp against the tests/test_serve.cpp goldens).
//
// Failure semantics (each path has a typed, tested outcome):
//   * per-request deadline  — RemoteShardOptions::request_timeout_ns bounds
//     every round-trip; expiry throws net::TimeoutError. The connection is
//     dropped (its stream state is unknowable), never retried: a deadline
//     is a promise to the caller, not a hint.
//   * reconnect             — a dead connection (peer EOF, reset, garbage
//     bytes) is dropped and re-dialed through the connector, and the
//     request is resent, up to max_attempts total tries.
//   * failover              — when attempts are exhausted (or the deadline
//     fired) and a fallback model is configured, the request is served
//     by the fallback; with no fallback the typed error propagates. This
//     is the repo's one failover path. Tiers nest: the fallback may be
//     another RemoteShardClient with a fallback of its own (remote →
//     remote → local), each client counting its own failovers.
//   * cancellation          — cancel() fails the in-flight request and all
//     future ones with net::CancelledError (never failed over: cancel is
//     a caller decision, not a fault).
//
// Responses are matched to requests by id: stale frames (a late response
// to a request that already timed out, or a fault-duplicated response)
// are counted and discarded, so one slow exchange cannot poison the next.
//
// Thread-safety: the client is const-thread-safe the way every model in
// the repo is — requests serialize on an internal mutex (a pool shard
// drives its client from one thread anyway), and cancel()/counters() may
// be called concurrently from any thread. All connection state is
// annotated COMET_GUARDED_BY per the PR 6 gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
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
  /// Per-request deadline over the whole round-trip (send + wait). Expiry
  /// throws net::TimeoutError (or fails over, if a fallback is set).
  std::uint64_t request_timeout_ns = 500'000'000;  // 500ms
  /// Total send attempts per request: 1 + (max_attempts - 1) reconnects.
  /// Timeouts never retry; only dead-connection errors do.
  std::size_t max_attempts = 2;
  /// Model serving the request when the remote side is unreachable
  /// (timeout or attempts exhausted): a local model, or another client
  /// for a further tier. nullptr = propagate the typed error.
  std::shared_ptr<const cost::CostModel> fallback;
  /// Traffic class stamped on every kPredictRequest (0 = interactive,
  /// 1 = batch — serve::Lane values). Advisory: lets the remote side see
  /// which serving lane generated the traffic.
  std::uint8_t priority = 0;
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

  /// Fail the in-flight request (if any) and every future one with
  /// net::CancelledError. Callable from any thread; irreversible.
  void cancel();

  /// Round-trip the server's ledger (kStatsRequest). Subject to the same
  /// deadline/typed errors as predictions, but never failed over (stats
  /// are about the remote side by definition).
  cost::QueryStats server_stats() const;

  /// Liveness probe: one kHealthCheck round-trip, true iff the server
  /// answered with a kHealthReply echoing this probe's nonce within the
  /// request timeout. All transport-class failures (timeout, dead
  /// connection, malformed reply) return false — a probe is a question,
  /// not a request, so nothing is retried or failed over. Cancellation
  /// still throws net::CancelledError. This is the Prober a
  /// ShardHealthMonitor drives.
  bool ping() const;

  /// Failure-mode accounting, all monotonic.
  struct Counters {
    std::uint64_t requests = 0;    ///< predict/predict_batch round-trips
    std::uint64_t responses = 0;   ///< served remotely
    std::uint64_t timeouts = 0;    ///< request deadline fired
    std::uint64_t reconnects = 0;  ///< connection re-dialed after a death
    std::uint64_t failovers = 0;   ///< served by the local fallback
    std::uint64_t stale_frames = 0;  ///< late/duplicate responses discarded
    std::uint64_t wire_errors = 0;   ///< malformed bytes / dead connections
    std::uint64_t health_pings = 0;      ///< ping() probes issued
    std::uint64_t health_failures = 0;   ///< ping() probes that came back false
  };
  Counters counters() const;

 private:
  // One framed round-trip under mutex_: send `request`, await the matching
  // response frame within the deadline. Throws the typed net errors.
  net::Frame round_trip(net::MessageType request_type,
                        std::vector<std::uint8_t> payload) const
      COMET_REQUIRES(mutex_);

  // Connection lifecycle (conn_mutex_ nests inside mutex_; cancel() takes
  // only conn_mutex_ so it can interrupt a request in flight).
  std::shared_ptr<net::Transport> ensure_transport(bool* dialed) const
      COMET_EXCLUDES(conn_mutex_);
  void drop_transport() const COMET_EXCLUDES(conn_mutex_);
  void throw_if_cancelled(const char* what) const COMET_EXCLUDES(conn_mutex_);

  Connector connector_;
  RemoteShardOptions options_;

  mutable util::Mutex mutex_;  // serializes requests
  mutable std::uint64_t next_id_ COMET_GUARDED_BY(mutex_) = 1;
  mutable net::FrameAssembler assembler_ COMET_GUARDED_BY(mutex_);
  mutable Counters counters_ COMET_GUARDED_BY(mutex_);
  mutable bool ever_connected_ COMET_GUARDED_BY(mutex_) = false;

  mutable util::Mutex conn_mutex_;
  mutable std::shared_ptr<net::Transport> transport_
      COMET_GUARDED_BY(conn_mutex_);
  mutable bool cancelled_ COMET_GUARDED_BY(conn_mutex_) = false;
};

/// The server half: wraps a local model and serves the wire protocol over
/// one or more transports (one session thread each). Sessions end on peer
/// EOF, a kShutdown frame, malformed bytes (best-effort kError reply,
/// then close), or stop(); stop() closes every started transport and
/// joins every session thread, so destruction is a graceful drain.
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
  /// shape: one server, N shard connections).
  void start(std::unique_ptr<net::Transport> transport);

  /// Close every started transport and join every session thread.
  /// Idempotent; also run by the destructor.
  void stop();

  struct Counters {
    std::uint64_t sessions = 0;   ///< serve()/start() connections begun
    std::uint64_t requests = 0;   ///< predict requests decoded
    std::uint64_t responses = 0;  ///< predict responses sent
    std::uint64_t errors = 0;     ///< kError frames sent (parse/bad bytes)
    std::uint64_t health_checks = 0;  ///< kHealthCheck probes answered
  };
  Counters counters() const;

  /// Ledger of the traffic this server evaluated (requested == evaluated:
  /// the server is deliberately memo-free — client-side shard brokers
  /// already deduplicate, and a second cache would only hide their hit
  /// rates).
  cost::QueryStats stats() const;

 private:
  // The serve() body: frames in, replies out, until the session ends.
  void session_loop(net::Transport& transport);
  // Returns false when the session should end (shutdown/peer gone).
  bool handle_frame(net::Transport& transport, const net::Frame& frame);

  std::shared_ptr<const cost::CostModel> model_;
  mutable util::Mutex mutex_;
  Counters counters_ COMET_GUARDED_BY(mutex_);
  cost::QueryStats stats_ COMET_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<net::Transport>> transports_
      COMET_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_ COMET_GUARDED_BY(mutex_);
  bool stopping_ COMET_GUARDED_BY(mutex_) = false;
};

}  // namespace comet::serve
