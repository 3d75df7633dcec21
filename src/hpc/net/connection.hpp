// The connection server both loopback daemons (dp_serve, dpho_sched) run on.
//
// A ConnectionServer owns the listener and every accepted peer.  Each poll()
// round waits up to a timeout for readiness, accepts pending peers, and
// drains only the peers whose revents show input, hang-up or error.  Every
// complete frame goes to the caller; a peer whose capped FrameReader stopped
// (close, reset or an oversized length prefix) is reported with its
// FrameError, while it can still be answered, and then retired.
//
// A daemon's worker may still hold a peer for an in-flight reply after the
// polling thread retired it.  The Connection owns its fd and closes it in its
// destructor, so a late send never reaches a closed (and possibly reused)
// descriptor; once retired, send() is a no-op.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "hpc/net/frame.hpp"

namespace dpho::hpc::net {

class Connection {
 public:
  Connection(int fd, std::uint32_t max_frame_bytes)
      : fd_(fd), reader_(max_frame_bytes) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool alive() const { return alive_.load(std::memory_order_acquire); }
  /// For the polling thread (e.g. oversized_length() when reporting a close).
  const FrameReader& reader() const { return reader_; }

  /// Writes one frame, serialized against concurrent senders.  Returns false
  /// when the peer is gone or the connection was retired.
  bool send(const std::string& payload);

 private:
  friend class ConnectionServer;

  const int fd_;
  FrameReader reader_;
  std::mutex write_mutex_;
  std::atomic<bool> alive_{true};
};

/// What one ConnectionServer::poll round did.
struct PollRound {
  std::size_t accepted = 0;  // new peers
  std::size_t ready = 0;     // peers drained because poll flagged them
  std::size_t retired = 0;   // peers that closed and were removed
};

class ConnectionServer {
 public:
  using Peer = std::shared_ptr<Connection>;
  using FrameHandler = std::function<void(const Peer&, const std::string&)>;
  using CloseHandler = std::function<void(const Peer&, FrameError)>;

  /// Every accepted peer's FrameReader is capped at `max_frame_bytes`.
  explicit ConnectionServer(std::uint32_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}
  ~ConnectionServer() { close(); }
  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds an ephemeral loopback port; throws util::IoError on failure.
  void open() { listener_.open(); }
  /// Stops accepting; established peers are still served.
  void close_listener() { listener_.close(); }
  /// Closes the listener and retires every peer.
  void close();

  bool listening() const { return listener_.is_open(); }
  std::uint16_t port() const { return listener_.port(); }
  std::size_t size() const { return connections_.size(); }

  /// One round: wait up to `timeout_ms`, accept, drain the ready peers into
  /// `on_frame`, and hand each closed peer to `on_close` before retiring it.
  PollRound poll(int timeout_ms, const FrameHandler& on_frame,
                 const CloseHandler& on_close);

 private:
  std::uint32_t max_frame_bytes_;
  Listener listener_;
  std::map<int, Peer> connections_;
};

}  // namespace dpho::hpc::net
