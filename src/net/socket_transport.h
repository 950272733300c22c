// net::SocketTransport: the real-OS-socket implementation of
// net::Transport, for shards and front-ends living in other processes.
//
// Three entry points:
//
//   SocketTransport::make_pair()   a connected AF_UNIX socketpair — the
//                                  in-process/fork IPC shape (each fd can
//                                  be inherited across fork/exec, so one
//                                  end can live in a shard process)
//   UnixListener + connect_unix()  a named AF_UNIX listening socket, the
//                                  same accept/connect topology a TCP
//                                  deployment would use, minus the
//                                  portnumber bookkeeping
//
// Deadlines are implemented with poll(2): recv() and accept() honor
// timeout_ns and throw the same typed errors as every other Transport
// (TimeoutError / DisconnectedError), so the serving layer's failure
// handling is identical over sim and real sockets.
//
// Concurrency: one thread drives send()/recv() at a time, but close() —
// implemented as shutdown(2), with the fd reclaimed only in the
// destructor — may be called from any thread to unblock a pending recv()
// (the hook serve::RemoteShardServer::stop() relies on).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "net/transport.h"

namespace comet::net {

class SocketTransport final : public Transport {
 public:
  /// Adopts `fd` (a connected stream socket); the destructor closes it.
  explicit SocketTransport(int fd);
  ~SocketTransport() override;

  /// A connected AF_UNIX stream socketpair.
  static std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
  make_pair();

  void send(std::span<const std::uint8_t> bytes) override;
  std::size_t recv(std::span<std::uint8_t> buf,
                   std::uint64_t timeout_ns) override;
  void close() override;

 private:
  const int fd_;
  std::atomic<bool> shut_{false};
};

/// A named AF_UNIX listening socket (bound at `path`, unlinked on
/// destruction). accept() blocks up to `timeout_ns` for an inbound
/// connection.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  std::unique_ptr<Transport> accept(std::uint64_t timeout_ns = kNoTimeout);
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_;
};

/// Connect to a UnixListener at `path`. Throws TransportError on failure.
std::unique_ptr<Transport> connect_unix(const std::string& path);

}  // namespace comet::net
