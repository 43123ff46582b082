// Supervised, non-blocking connection management for the framed-TCP
// transport.
//
// A ConnectionManager owns one listening socket plus every live connection
// of a node process, and moves wire::Envelopes between canonical peer
// addresses ("host:port" of the peer's *listening* socket). Peers are dialed
// on demand; inbound connections are adopted as the reply path once their
// first envelope reveals the sender's canonical address.
//
// Supervision policy (every limit observable via "net.conn.*" counters, so
// the fault-matrix tests can assert each path without scraping logs):
//   * connect deadline      — a dial that neither completes nor fails within
//                             connect_timeout is torn down (connect_timeout).
//   * read deadline         — a partially received frame that stops making
//                             progress for partial_frame_timeout means a
//                             half-open or hostile peer (read_timeout). An
//                             accepted connection that never sends a full
//                             frame is bounded by the same clock.
//   * write deadline        — queued bytes the kernel accepts none of for
//                             write_stall_timeout mean the peer stopped
//                             draining (classic half-open: no FIN, dead TCP
//                             window) — torn down (write_timeout).
//   * bounded send queues   — per-peer queues cap at max_send_queue frames;
//                             overflow drops the *oldest* frame (the node's
//                             RPC layer retries; newest traffic is the most
//                             likely to still matter) and counts it
//                             (backpressure.dropped_frames/_bytes). Queues
//                             never grow without bound.
//   * reconnect w/ backoff  — a failed link with traffic still queued redials
//                             on the node's seeded backoff shape
//                             (base·backoff^k, capped, ±jitter); after
//                             max_dial_attempts the queue is surfaced as loss
//                             (undeliverable_frames), never as a hang.
//   * fail-closed framing   — an oversized length header, an undecodable
//                             envelope, a frame/envelope type mismatch, or a
//                             misaddressed envelope closes the connection
//                             (protocol_error); no partial state leaks.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "accountnet/net/event_loop.hpp"
#include "accountnet/net/frame.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/wire/envelope.hpp"

namespace accountnet::net {

struct TransportConfig {
  std::string host = "127.0.0.1";  ///< listen address (numeric IPv4)
  std::uint16_t port = 0;          ///< listen port; 0 picks an ephemeral port
  /// Advertised port override: when non-zero, self_addr() reports this port
  /// instead of the bound one. For hosts reachable through a forwarder (NAT,
  /// or the ChaosProxy in bench/net_soak) whose public port differs from the
  /// socket's.
  std::uint16_t advertise_port = 0;

  std::int64_t connect_timeout_us = 3 * 1000 * 1000;
  std::int64_t write_stall_timeout_us = 5 * 1000 * 1000;
  std::int64_t partial_frame_timeout_us = 5 * 1000 * 1000;

  std::size_t max_send_queue = 1024;  ///< frames per peer, drop-oldest past this
  std::size_t max_frame_size = kMaxFrameSize;

  // Reconnect backoff, the Node retry shape: base·2^(attempt-1), capped at
  // max, jittered ±10% from the manager's seeded Rng (connection.cpp).
  std::int64_t reconnect_base_us = 200 * 1000;
  std::int64_t reconnect_max_us = 5 * 1000 * 1000;
  int max_dial_attempts = 5;  ///< per queue-draining episode; 0 = unlimited
};

class ConnectionManager {
 public:
  /// Inbound envelopes, already framed-decoded and address-checked.
  using DeliverFn = std::function<void(wire::Envelope env)>;

  /// `self_addr` is this process's canonical address ("host:port"); inbound
  /// envelopes addressed elsewhere are rejected. `metrics` must outlive the
  /// manager; all counters intern lazily on first use so an idle manager
  /// registers nothing.
  ConnectionManager(EventLoop& loop, TransportConfig config,
                    obs::MetricsRegistry& metrics, std::uint64_t rng_seed);
  ~ConnectionManager();

  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  /// Binds + listens on config.host:config.port. Returns false on bind
  /// failure. Updates self_addr() with the resolved port.
  bool listen();
  std::uint16_t listen_port() const { return listen_port_; }
  const std::string& self_addr() const { return self_addr_; }

  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Queues one envelope toward env.to (canonical "host:port"), dialing if
  /// no usable connection exists. Never blocks; overflow and undeliverable
  /// peers surface as counted losses.
  void send(const wire::Envelope& env);

  /// Tears down every connection and the listener.
  void close_all();

  std::size_t open_connections() const { return by_fd_.size(); }
  std::size_t queued_frames() const;

  /// Counter value by short name ("reconnects", "backpressure.dropped_frames",
  /// ...) — convenience for tests; 0 if never bumped.
  std::uint64_t counter(const std::string& short_name) const;

 private:
  struct Conn {
    int fd = -1;
    bool connecting = false;
    bool dialed = false;
    std::string peer;  ///< canonical addr; "" for an unidentified inbound
    FrameReader reader;
    std::uint64_t read_timer = 0;  ///< partial-frame / first-frame deadline
  };

  /// The send path toward one canonical peer address. Survives individual
  /// socket deaths while traffic is queued (reconnect episodes).
  struct PeerLink {
    std::string addr;
    std::deque<Bytes> queue;  ///< encoded frames, oldest first
    std::size_t queue_bytes = 0;
    std::size_t send_offset = 0;  ///< into queue.front()
    int fd = -1;                  ///< current socket; -1 while down
    int attempts = 0;             ///< dials this episode
    std::uint64_t connect_timer = 0;
    std::uint64_t stall_timer = 0;
    std::uint64_t reconnect_timer = 0;
    bool want_write = false;  ///< EPOLLOUT interest currently armed
  };

  void on_acceptable();
  void on_fd_event(int fd, std::uint32_t events);
  void on_readable(Conn& conn);
  void on_writable_link(PeerLink& link);
  void dial(PeerLink& link);
  void flush(PeerLink& link);
  void enqueue(PeerLink& link, Bytes frame);
  /// Socket-level failure of a link's connection: close, then either
  /// schedule a reconnect (queued traffic, attempts left) or surface the
  /// queue as loss and forget the peer.
  void fail_link(PeerLink& link, const char* why);
  void drop_peer_queue(PeerLink& link);
  void close_conn(int fd);
  void protocol_error(Conn& conn, const char* what);
  void deliver_frame(Conn& conn, Frame frame);
  void arm_read_deadline(Conn& conn);
  void set_link_interest(PeerLink& link, bool want_write);
  std::int64_t backoff_delay(int attempt);
  void bump(const char* short_name, std::uint64_t delta = 1);
  void set_open_gauge();

  EventLoop& loop_;
  TransportConfig config_;
  obs::MetricsRegistry& metrics_;
  Rng rng_;
  DeliverFn deliver_;
  std::string self_addr_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::unordered_map<int, std::unique_ptr<Conn>> by_fd_;
  std::unordered_map<std::string, PeerLink> peers_;
  std::size_t unidentified_ = 0;
  mutable std::unordered_map<std::string, obs::MetricId> counter_ids_;
};

/// Parses "host:port"; returns false on malformed input.
bool parse_addr(const std::string& addr, std::string& host, std::uint16_t& port);

}  // namespace accountnet::net
