#include "accountnet/net/connection.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "accountnet/wire/codec.hpp"

namespace accountnet::net {

namespace {

constexpr std::size_t kMaxUnidentified = 64;  ///< accepted conns awaiting first envelope
constexpr double kReconnectBackoff = 2.0;
constexpr double kReconnectJitterFrac = 0.1;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void enable_keepalive(int fd) {
  int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &on, sizeof(on));
  // Aggressive probing: a silently dead peer is detected by the kernel in
  // ~idle+cnt*intvl seconds even if our own deadlines are generous.
  int idle = 30, intvl = 5, cnt = 3;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &intvl, sizeof(intvl));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &cnt, sizeof(cnt));
}

}  // namespace

bool parse_addr(const std::string& addr, std::string& host, std::uint16_t& port) {
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size()) return false;
  host = addr.substr(0, colon);
  long p = 0;
  for (std::size_t i = colon + 1; i < addr.size(); ++i) {
    const char c = addr[i];
    if (c < '0' || c > '9') return false;
    p = p * 10 + (c - '0');
    if (p > 65535) return false;
  }
  if (p == 0) return false;
  port = static_cast<std::uint16_t>(p);
  return true;
}

ConnectionManager::ConnectionManager(EventLoop& loop, TransportConfig config,
                                     obs::MetricsRegistry& metrics,
                                     std::uint64_t rng_seed)
    : loop_(loop), config_(std::move(config)), metrics_(metrics), rng_(rng_seed) {}

ConnectionManager::~ConnectionManager() { close_all(); }

void ConnectionManager::bump(const char* short_name, std::uint64_t delta) {
  auto it = counter_ids_.find(short_name);
  if (it == counter_ids_.end()) {
    const obs::MetricId id = metrics_.counter(std::string("net.conn.") + short_name);
    it = counter_ids_.emplace(short_name, id).first;
  }
  metrics_.add(it->second, delta);
}

std::uint64_t ConnectionManager::counter(const std::string& short_name) const {
  const auto id = metrics_.find("net.conn." + short_name);
  return id ? metrics_.counter_value(*id) : 0;
}

void ConnectionManager::set_open_gauge() {
  metrics_.set(metrics_.gauge("net.conn.open"), static_cast<double>(by_fd_.size()));
}

bool ConnectionManager::listen() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &sa.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  listen_fd_ = fd;
  listen_port_ = ntohs(sa.sin_port);
  const std::uint16_t advertised =
      config_.advertise_port != 0 ? config_.advertise_port : listen_port_;
  self_addr_ = config_.host + ":" + std::to_string(advertised);
  loop_.add_fd(fd, EventLoop::kReadable, [this](std::uint32_t) { on_acceptable(); });
  return true;
}

void ConnectionManager::on_acceptable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to the loop
    if (unidentified_ >= kMaxUnidentified) {
      // Accept-flood guard: refuse to hold more anonymous sockets.
      bump("accept_rejected");
      ::close(fd);
      continue;
    }
    enable_keepalive(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->reader = FrameReader(config_.max_frame_size);
    Conn* raw = conn.get();
    by_fd_[fd] = std::move(conn);
    ++unidentified_;
    bump("accepted");
    set_open_gauge();
    arm_read_deadline(*raw);  // first-frame deadline: anonymous conns are bounded
    loop_.add_fd(fd, EventLoop::kReadable,
                 [this, fd](std::uint32_t events) { on_fd_event(fd, events); });
  }
}

void ConnectionManager::arm_read_deadline(Conn& conn) {
  if (conn.read_timer != 0) loop_.cancel(conn.read_timer);
  const int fd = conn.fd;
  conn.read_timer = loop_.schedule_after(config_.partial_frame_timeout_us, [this, fd] {
    const auto it = by_fd_.find(fd);
    if (it == by_fd_.end()) return;
    Conn& c = *it->second;
    c.read_timer = 0;
    bump("read_timeout");
    auto pit = peers_.find(c.peer);
    if (!c.peer.empty() && pit != peers_.end() && pit->second.fd == fd) {
      // A stalled frame from an identified peer means slow, not hostile:
      // close the socket but keep its queue and reconnect with backoff.
      // Queue-forfeit (protocol_error) is reserved for wire-format
      // violations — oversized/garbage/misaddressed frames.
      fail_link(pit->second, "read deadline expired");
    } else {
      // Anonymous first-frame deadline or a redundant identified socket:
      // nothing queued rides on this conn, just close it.
      close_conn(fd);
    }
  });
}

void ConnectionManager::on_fd_event(int fd, std::uint32_t events) {
  const auto it = by_fd_.find(fd);
  if (it == by_fd_.end()) return;
  Conn& conn = *it->second;

  if (conn.connecting) {
    // Dial resolution: EPOLLOUT means the connect finished (check SO_ERROR),
    // EPOLLERR/EPOLLHUP means it failed.
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    auto pit = peers_.find(conn.peer);
    if ((events & EventLoop::kError) || err != 0) {
      bump("connect_failed");
      if (pit != peers_.end() && pit->second.fd == fd) {
        fail_link(pit->second, "connect refused");
      } else {
        close_conn(fd);
      }
      return;
    }
    if (events & EventLoop::kWritable) {
      conn.connecting = false;
      bump("connected");
      if (pit != peers_.end() && pit->second.fd == fd) {
        PeerLink& link = pit->second;
        loop_.cancel(link.connect_timer);
        link.connect_timer = 0;
        set_link_interest(link, true);
        flush(link);
        if (by_fd_.find(fd) == by_fd_.end()) return;  // flush may have failed the link
      }
    }
    if (!(events & EventLoop::kReadable)) return;
  }

  if (events & EventLoop::kError) {
    // Drain any final bytes the kernel buffered before the RST/HUP, then
    // tear down via the read path (which sees EOF).
    on_readable(conn);
    if (by_fd_.find(fd) == by_fd_.end()) return;
    auto pit = peers_.find(conn.peer);
    if (!conn.peer.empty() && pit != peers_.end() && pit->second.fd == fd) {
      fail_link(pit->second, "socket error");
    } else {
      bump("closed_remote");
      close_conn(fd);
    }
    return;
  }

  if (events & EventLoop::kReadable) {
    on_readable(conn);
    if (by_fd_.find(fd) == by_fd_.end()) return;
  }
  if (events & EventLoop::kWritable) {
    auto pit = peers_.find(conn.peer);
    if (pit != peers_.end() && pit->second.fd == fd) on_writable_link(pit->second);
  }
}

void ConnectionManager::on_readable(Conn& conn) {
  const int fd = conn.fd;
  bool eof = false;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.reader.append(buf, static_cast<std::size_t>(n));
      bump("bytes_in", static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;  // orderly FIN
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // ECONNRESET and friends
    break;
  }

  while (auto frame = conn.reader.next()) {
    deliver_frame(conn, std::move(*frame));
    if (by_fd_.find(fd) == by_fd_.end()) return;  // delivery closed us
  }
  if (conn.reader.poisoned()) {
    bump("oversized_frame");
    protocol_error(conn, "oversized length header");
    return;
  }

  if (eof) {
    if (conn.reader.partial_bytes() > 0) bump("truncated_frame");
    auto pit = peers_.find(conn.peer);
    if (!conn.peer.empty() && pit != peers_.end() && pit->second.fd == fd) {
      // Peer closed (or died) while we may still hold queued traffic for it:
      // treat exactly like a socket failure so reconnect/loss policy applies.
      bump("closed_remote");
      fail_link(pit->second, "peer closed");
    } else {
      bump("closed_remote");
      close_conn(fd);
    }
    return;
  }

  // Progress (or a clean boundary) refreshes the partial-frame deadline.
  if (conn.reader.partial_bytes() > 0) {
    arm_read_deadline(conn);
  } else if (conn.read_timer != 0 && !conn.peer.empty()) {
    // Identified + no partial frame: idle is fine, no deadline.
    loop_.cancel(conn.read_timer);
    conn.read_timer = 0;
  } else if (conn.read_timer != 0) {
    arm_read_deadline(conn);  // still anonymous: keep the first-frame clock
  }
}

void ConnectionManager::deliver_frame(Conn& conn, Frame frame) {
  wire::Envelope env;
  try {
    env = wire::decode_envelope(frame.payload);
  } catch (const wire::DecodeError&) {
    bump("decode_error");
    protocol_error(conn, "undecodable envelope");
    return;
  }
  if (env.type != frame.type) {
    // The frame header's type tag must agree with the envelope; a mismatch
    // means a corrupted or hostile stream.
    bump("type_mismatch");
    protocol_error(conn, "frame/envelope type mismatch");
    return;
  }
  if (env.to != self_addr_) {
    bump("misaddressed");
    protocol_error(conn, "envelope addressed elsewhere");
    return;
  }
  if (conn.peer.empty()) {
    // First envelope on an accepted connection: adopt env.from as the
    // canonical peer address and, when no outbound link exists, reuse this
    // socket as the send path back.
    std::string h;
    std::uint16_t p = 0;
    if (!parse_addr(env.from, h, p)) {
      bump("decode_error");
      protocol_error(conn, "malformed sender address");
      return;
    }
    conn.peer = env.from;
    --unidentified_;
    bump("identified");
    auto [pit, inserted] = peers_.try_emplace(env.from);
    PeerLink& link = pit->second;
    if (inserted) link.addr = env.from;
    if (link.fd < 0 && link.reconnect_timer == 0) {
      const int fd = conn.fd;  // flush() may fail the link and destroy conn
      link.fd = fd;
      if (!link.queue.empty()) {
        set_link_interest(link, true);
        flush(link);
        if (by_fd_.find(fd) == by_fd_.end()) return;
      }
    }
  }
  bump("frames_in");
  if (deliver_) deliver_(std::move(env));
}

void ConnectionManager::send(const wire::Envelope& env) {
  auto [pit, inserted] = peers_.try_emplace(env.to);
  PeerLink& link = pit->second;
  if (inserted) link.addr = env.to;
  enqueue(link, encode_frame(env.type, wire::encode_envelope(env)));
  if (link.fd < 0 && link.reconnect_timer == 0) {
    link.attempts = 0;
    dial(link);
  } else if (link.fd >= 0) {
    const auto cit = by_fd_.find(link.fd);
    if (cit != by_fd_.end() && !cit->second->connecting) {
      set_link_interest(link, true);
      flush(link);
    }
  }
}

void ConnectionManager::enqueue(PeerLink& link, Bytes frame) {
  while (link.queue.size() >= config_.max_send_queue) {
    // Drop-oldest backpressure — but never the in-flight head: its prefix may
    // already be on the wire, and a replacement head restarting at byte 0
    // would desync the peer's FrameReader. Drop the oldest frame that has
    // not started transmitting instead.
    const std::size_t victim = link.send_offset > 0 ? 1 : 0;
    if (victim >= link.queue.size()) {
      // Only the in-flight head remains; reject the new frame to stay bounded.
      bump("backpressure.dropped_frames");
      bump("backpressure.dropped_bytes", frame.size());
      return;
    }
    link.queue_bytes -= link.queue[victim].size();
    bump("backpressure.dropped_frames");
    bump("backpressure.dropped_bytes", link.queue[victim].size());
    link.queue.erase(link.queue.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  link.queue_bytes += frame.size();
  link.queue.push_back(std::move(frame));
}

void ConnectionManager::dial(PeerLink& link) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_addr(link.addr, host, port)) {
    bump("dial_failed");
    drop_peer_queue(link);
    peers_.erase(link.addr);
    return;
  }
  ++link.attempts;
  bump("dials");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (fd < 0 || ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    if (fd >= 0) ::close(fd);
    fail_link(link, "dial setup failed");
    return;
  }
  enable_keepalive(fd);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    fail_link(link, "connect failed");
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->dialed = true;
  conn->connecting = (rc != 0);
  conn->peer = link.addr;
  conn->reader = FrameReader(config_.max_frame_size);
  by_fd_[fd] = std::move(conn);
  set_open_gauge();
  link.fd = fd;
  link.want_write = true;
  loop_.add_fd(fd, EventLoop::kReadable | EventLoop::kWritable,
               [this, fd](std::uint32_t events) { on_fd_event(fd, events); });
  const std::string addr = link.addr;
  link.connect_timer = loop_.schedule_after(config_.connect_timeout_us, [this, addr, fd] {
    auto pit = peers_.find(addr);
    if (pit == peers_.end() || pit->second.fd != fd) return;
    pit->second.connect_timer = 0;
    bump("connect_timeout");
    fail_link(pit->second, "connect deadline expired");
  });
  if (rc == 0) {
    bump("connected");
    loop_.cancel(link.connect_timer);
    link.connect_timer = 0;
    flush(link);
  }
}

void ConnectionManager::set_link_interest(PeerLink& link, bool want_write) {
  if (link.fd < 0 || link.want_write == want_write) return;
  link.want_write = want_write;
  loop_.mod_fd(link.fd, EventLoop::kReadable | (want_write ? EventLoop::kWritable : 0u));
}

void ConnectionManager::on_writable_link(PeerLink& link) { flush(link); }

void ConnectionManager::flush(PeerLink& link) {
  // Write as much of the queue as the kernel accepts. Progress re-arms the
  // stall deadline; zero progress with a non-empty queue keeps it ticking.
  const int fd = link.fd;
  bool progressed = false;
  while (!link.queue.empty()) {
    const Bytes& head = link.queue.front();
    const std::size_t remaining = head.size() - link.send_offset;
    const ssize_t n =
        ::send(fd, head.data() + link.send_offset, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      bump("write_failed");
      fail_link(link, "write failed");
      return;
    }
    progressed = progressed || n > 0;
    bump("bytes_out", static_cast<std::uint64_t>(n));
    link.send_offset += static_cast<std::size_t>(n);
    if (link.send_offset == head.size()) {
      link.queue_bytes -= head.size();
      link.queue.pop_front();
      link.send_offset = 0;
      bump("frames_out");
      // A whole frame reached the kernel: real progress, so the backoff
      // episode resets. Connect success alone must NOT reset it — a peer
      // that accepts and immediately resets would reconnect forever.
      link.attempts = 0;
    }
  }
  if (link.queue.empty()) {
    set_link_interest(link, false);
    if (link.stall_timer != 0) {
      loop_.cancel(link.stall_timer);
      link.stall_timer = 0;
    }
    return;
  }
  set_link_interest(link, true);
  if (progressed || link.stall_timer == 0) {
    if (link.stall_timer != 0) loop_.cancel(link.stall_timer);
    const std::string addr = link.addr;
    link.stall_timer = loop_.schedule_after(config_.write_stall_timeout_us, [this, addr, fd] {
      auto pit = peers_.find(addr);
      if (pit == peers_.end() || pit->second.fd != fd) return;
      pit->second.stall_timer = 0;
      bump("write_timeout");
      fail_link(pit->second, "write stalled");
    });
  }
}

std::int64_t ConnectionManager::backoff_delay(int attempt) {
  double d = static_cast<double>(config_.reconnect_base_us) *
             std::pow(kReconnectBackoff, std::max(0, attempt - 1));
  d = std::min(d, static_cast<double>(config_.reconnect_max_us));
  d *= 1.0 + (rng_.uniform01() * 2.0 - 1.0) * kReconnectJitterFrac;
  return std::max<std::int64_t>(1000, static_cast<std::int64_t>(d));
}

void ConnectionManager::fail_link(PeerLink& link, const char* /*why*/) {
  if (link.connect_timer != 0) {
    loop_.cancel(link.connect_timer);
    link.connect_timer = 0;
  }
  if (link.stall_timer != 0) {
    loop_.cancel(link.stall_timer);
    link.stall_timer = 0;
  }
  if (link.fd >= 0) close_conn(link.fd);
  link.fd = -1;
  link.want_write = false;
  link.send_offset = 0;  // the in-flight frame restarts from byte 0 on the next conn

  if (link.queue.empty()) {
    // Nothing pending: forget the peer; the next send() re-dials fresh.
    peers_.erase(link.addr);
    return;
  }
  if (config_.max_dial_attempts > 0 && link.attempts >= config_.max_dial_attempts) {
    // Out of attempts: surface the queue as loss, never hang. The node's own
    // RPC retry/timeout layer owns recovery from here.
    bump("undeliverable_frames", link.queue.size());
    drop_peer_queue(link);
    peers_.erase(link.addr);
    return;
  }
  bump("reconnects");
  const std::int64_t delay = backoff_delay(link.attempts);
  const std::string addr = link.addr;
  link.reconnect_timer = loop_.schedule_after(delay, [this, addr] {
    auto pit = peers_.find(addr);
    if (pit == peers_.end()) return;
    pit->second.reconnect_timer = 0;
    if (pit->second.fd >= 0) return;  // an inbound conn got adopted meanwhile
    dial(pit->second);
  });
}

void ConnectionManager::drop_peer_queue(PeerLink& link) {
  link.queue.clear();
  link.queue_bytes = 0;
  link.send_offset = 0;
}

void ConnectionManager::protocol_error(Conn& conn, const char* /*what*/) {
  bump("protocol_errors");
  const int fd = conn.fd;
  auto pit = peers_.find(conn.peer);
  if (!conn.peer.empty() && pit != peers_.end() && pit->second.fd == fd) {
    // A hostile/corrupt stream forfeits its queue: do not auto-reconnect into
    // the same garbage. Drop pending traffic as loss.
    PeerLink& link = pit->second;
    if (!link.queue.empty()) bump("undeliverable_frames", link.queue.size());
    drop_peer_queue(link);
    if (link.connect_timer != 0) loop_.cancel(link.connect_timer);
    if (link.stall_timer != 0) loop_.cancel(link.stall_timer);
    if (link.reconnect_timer != 0) loop_.cancel(link.reconnect_timer);
    peers_.erase(pit);
  }
  close_conn(fd);
}

void ConnectionManager::close_conn(int fd) {
  const auto it = by_fd_.find(fd);
  if (it == by_fd_.end()) return;
  Conn& conn = *it->second;
  if (conn.read_timer != 0) loop_.cancel(conn.read_timer);
  if (conn.peer.empty()) --unidentified_;
  // If a peer link still points at this socket, detach it (fail_link callers
  // already did; this covers the anonymous/protocol-error paths).
  auto pit = peers_.find(conn.peer);
  if (pit != peers_.end() && pit->second.fd == fd) {
    pit->second.fd = -1;
    pit->second.want_write = false;
  }
  loop_.del_fd(fd);
  ::close(fd);
  by_fd_.erase(it);
  bump("closed");
  set_open_gauge();
}

void ConnectionManager::close_all() {
  while (!by_fd_.empty()) close_conn(by_fd_.begin()->first);
  for (auto& [addr, link] : peers_) {
    if (link.connect_timer != 0) loop_.cancel(link.connect_timer);
    if (link.stall_timer != 0) loop_.cancel(link.stall_timer);
    if (link.reconnect_timer != 0) loop_.cancel(link.reconnect_timer);
  }
  peers_.clear();
  if (listen_fd_ >= 0) {
    loop_.del_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::size_t ConnectionManager::queued_frames() const {
  std::size_t n = 0;
  for (const auto& [addr, link] : peers_) n += link.queue.size();
  return n;
}

}  // namespace accountnet::net
