// net::Transport: the byte-stream boundary between serving processes.
//
// A Transport is one endpoint of a reliable, ordered, bidirectional byte
// stream — the contract TCP, AF_UNIX sockets, and pipes all provide. The
// wire protocol (net/wire.h) frames messages on top; the serving layer
// (serve::RemoteShardClient / RemoteShardServer) speaks frames only, so
// it runs unchanged over any implementation. The one in the tree is the
// deterministic in-process fabric (net::SimTransport), whose fault
// schedule turns every network failure mode into a reproducible unit
// test; a multi-host front end would add a real-socket one.
//
// Error taxonomy — every failure is a typed exception, so callers can
// give each failure mode its documented behavior (timeout → failover,
// disconnect → reconnect) instead of string-matching:
//
//   TransportError      base; also: connection setup failures
//   TimeoutError        a deadline elapsed before bytes arrived
//   DisconnectedError   the peer closed / the connection died mid-stream
//
// Thread-safety contract: one thread drives send()/recv() at a time (the
// serving layer serializes requests per connection), but close() may be
// called concurrently from any thread — it is the hook that unblocks a
// pending recv() (serve::RemoteShardServer::stop() ends its sessions
// this way), and every implementation must support it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace comet::net {

/// Base class for everything that can go wrong on a transport.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A recv (or accept) deadline elapsed before any bytes arrived.
class TimeoutError : public TransportError {
 public:
  explicit TimeoutError(const std::string& what) : TransportError(what) {}
};

/// The peer closed or the connection died; no further bytes will flow.
class DisconnectedError : public TransportError {
 public:
  explicit DisconnectedError(const std::string& what)
      : TransportError(what) {}
};

/// recv()/accept() timeout value meaning "block until bytes or EOF".
inline constexpr std::uint64_t kNoTimeout = ~std::uint64_t{0};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Send all of `bytes` (blocking until buffered by the stream). Throws
  /// DisconnectedError if the connection is closed or dies mid-send.
  virtual void send(std::span<const std::uint8_t> bytes) = 0;

  /// Receive up to buf.size() bytes: blocks until at least one byte is
  /// available, returns the count read, or returns 0 on clean end of
  /// stream. Throws TimeoutError when `timeout_ns` elapses first
  /// (kNoTimeout blocks indefinitely), DisconnectedError when the
  /// connection died uncleanly.
  virtual std::size_t recv(std::span<std::uint8_t> buf,
                           std::uint64_t timeout_ns) = 0;

  /// Close both directions. Idempotent; safe to call from any thread — a
  /// concurrent recv() on this endpoint unblocks (EOF or
  /// DisconnectedError) and the peer observes end of stream.
  virtual void close() = 0;
};

}  // namespace comet::net
