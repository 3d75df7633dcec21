#include "hpc/net/connection.hpp"

#include <poll.h>
#include <unistd.h>

#include <vector>

#include "util/error.hpp"

namespace dpho::hpc::net {

Connection::~Connection() { ::close(fd_); }

bool Connection::send(const std::string& payload) {
  const std::scoped_lock lock(write_mutex_);
  if (!alive()) return false;
  try {
    return write_frame(fd_, payload);
  } catch (const util::IoError&) {
    return false;  // the reader side sees the close and retires the peer
  }
}

void ConnectionServer::close() {
  listener_.close();
  for (const auto& [fd, peer] : connections_) {
    peer->alive_.store(false, std::memory_order_release);
  }
  connections_.clear();
}

PollRound ConnectionServer::poll(int timeout_ms, const FrameHandler& on_frame,
                                 const CloseHandler& on_close) {
  // The listener, when open, is entry 0.  An empty set still waits out the
  // timeout, which paces a caller that has nothing to serve.
  std::vector<::pollfd> fds;
  fds.reserve(connections_.size() + 1);
  if (listener_.is_open()) fds.push_back({listener_.fd(), POLLIN, 0});
  const std::size_t first_peer = fds.size();
  for (const auto& [fd, peer] : connections_) fds.push_back({fd, POLLIN, 0});
  PollRound round;
  if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) <= 0) {
    return round;
  }

  if (first_peer == 1 && (fds[0].revents & POLLIN) != 0) {
    for (int fd; (fd = listener_.accept_nonblocking()) >= 0; ++round.accepted) {
      connections_.emplace(fd, std::make_shared<Connection>(fd, max_frame_bytes_));
    }
  }
  for (std::size_t i = first_peer; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const Peer peer = connections_.at(fds[i].fd);
    ++round.ready;
    const bool open = peer->reader_.drain(peer->fd_);
    while (std::optional<std::string> frame = peer->reader_.next()) {
      on_frame(peer, *frame);
    }
    if (open) continue;
    on_close(peer, peer->reader_.error());
    peer->alive_.store(false, std::memory_order_release);
    connections_.erase(fds[i].fd);
    ++round.retired;
  }
  return round;
}

}  // namespace dpho::hpc::net
