// Frontend: the TCP listener that turns real client connections into guest
// NIC traffic.
//
// One poll-driven listener plus a set of framed connections. Complete,
// canonically-decoded request frames are handed to the server loop (which
// injects them as NIC RX); responses come back routed by client id — a
// client that reconnects (say, after a failover moved the listener to the
// promoted backup) is re-routed to its newest connection, so responses to
// resent requests land on the live socket.
//
// The frontend itself holds no response state: release timing is owned by
// the output-commit gate (the NIC TX latch under the revised protocol), and
// request/response pairing by the client-visible (client_id, seq) numbering.
// A malformed frame (non-canonical bytes, oversized length) closes its
// connection — the codec's strictness is the protocol surface, and a client
// that violates it gets a clean disconnect, not a guess.
#ifndef HBFT_SERVE_FRONTEND_HPP_
#define HBFT_SERVE_FRONTEND_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/sockets.hpp"
#include "serve/wire.hpp"

struct pollfd;

namespace hbft {
namespace serve {

class Frontend {
 public:
  explicit Frontend(uint16_t port) : port_(port) {}
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Opens (or re-opens) the listener. SO_REUSEADDR lets a promoted backup
  // bind the port its dead predecessor held moments ago.
  bool OpenListener(std::string* error);
  void CloseListener();
  bool listening() const { return listen_fd_ >= 0; }
  uint16_t port() const { return port_; }

  // Appends the listener's and every connection's fd (POLLIN, plus POLLOUT
  // where writes are pending) for the caller's poll().
  void CollectFds(std::vector<pollfd>* fds) const;

  // Accepts pending connections and drains readable sockets; every complete
  // request frame is passed to `on_request`. Dead, corrupt, or
  // protocol-violating connections are closed here.
  using RequestHandler = std::function<void(const ClientFrame&)>;
  void Pump(const RequestHandler& on_request);

  // Queues one response frame to the client's current connection (dropped
  // with a count if the client is not connected — it will resend on
  // reconnect and the guest echo is deterministic).
  void SendResponse(uint64_t client_id, uint64_t seq, const std::vector<uint8_t>& payload);

  // Pushes queued bytes on every connection.
  void FlushAll();

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t requests = 0;
    uint64_t responses = 0;
    uint64_t responses_unroutable = 0;
    uint64_t rejected_frames = 0;  // Non-canonical or corrupt client input.
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void CloseConnection(int fd);

  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::map<int, std::unique_ptr<FrameStream>> conns_;
  // client_id -> fd of the newest connection that spoke for it.
  std::map<uint64_t, int> routes_;
  Stats stats_;
};

}  // namespace serve
}  // namespace hbft

#endif  // HBFT_SERVE_FRONTEND_HPP_
