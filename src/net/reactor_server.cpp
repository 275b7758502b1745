#include "net/reactor_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/frame.hpp"
#include "net/message.hpp"
#include "net/transport_error.hpp"

namespace lvq {

namespace {

constexpr std::size_t kMaxIov = 64;
constexpr std::size_t kReadChunk = 64 * 1024;

[[noreturn]] void fail_setup(const char* what) {
  throw TransportError(TransportError::kConnect,
                       std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

ReactorServer::ReactorServer(AsyncHandler handler, ReactorServerOptions options)
    : handler_(std::move(handler)),
      options_(options),
      router_(std::make_shared<Router>()) {
  options_.io_threads = std::clamp<std::uint32_t>(options_.io_threads, 1,
                                                  1u << kShardBits);
  router_->server = this;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail_setup("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int err = errno;
    ::close(listen_fd_);
    errno = err;
    fail_setup("bind");
  }
  // A deep backlog: at C10k scale, connection storms arrive faster than one
  // accept sweep; the kernel queue absorbs them instead of sending RSTs.
  if (::listen(listen_fd_, 1024) < 0) {
    int err = errno;
    ::close(listen_fd_);
    errno = err;
    fail_setup("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    int err = errno;
    ::close(listen_fd_);
    errno = err;
    fail_setup("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  shards_.reserve(options_.io_threads);
  for (std::uint32_t i = 0; i < options_.io_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Registered before any loop thread starts, so no cross-thread add_fd.
  listen_token_ = shards_[0]->loop.add_fd(
      listen_fd_, /*want_read=*/true, /*want_write=*/false,
      [this](bool, bool, bool) { on_accept(); });
  for (auto& sh : shards_) {
    netio::EventLoop* loop = &sh->loop;
    sh->thread = std::thread([loop] { loop->run(); });
  }
}

ReactorServer::~ReactorServer() { stop(); }

void ReactorServer::close_listener() {
  bool expected = false;
  if (listener_closed_.compare_exchange_strong(expected, true)) {
    shards_[0]->loop.del_fd(listen_token_);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
}

void ReactorServer::stop() {
  std::lock_guard<std::mutex> guard(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  {
    // After this, completions still held by handler threads see a null
    // server and drop their replies; one mid-call holds the mutex, so it
    // finishes posting before the loops go down.
    std::lock_guard<std::mutex> lock(router_->mu);
    router_->server = nullptr;
  }
  for (auto& sh : shards_) sh->loop.stop();
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  // Loop threads are gone; their conn maps are plain data now.
  for (auto& sh : shards_) {
    for (auto& [id, conn] : sh->conns) ::close(conn->fd);
    sh->conns.clear();
  }
  open_conns_.store(0);
  inflight_bytes_.store(0);
  close_listener();
}

void ReactorServer::drain(std::uint32_t grace_ms) {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true)) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->loop.post([this, i] {
        if (i == 0) close_listener();
        begin_drain(i);
      });
    }
  }
  const netio::Deadline deadline = netio::deadline_after_ms(grace_ms);
  while (open_conns_.load() != 0 && !stopping_.load()) {
    if (netio::Clock::now() >= deadline) break;  // grace exhausted
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop();
}

void ReactorServer::on_accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or the listener was closed under us
    }
    if (stopping_.load() || draining_.load()) {
      ::close(fd);
      continue;
    }
    // Small request/reply frames must not sit behind Nagle waiting for a
    // delayed ACK; a pipelining client would see 40ms stalls otherwise.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.max_connections != 0 &&
        open_conns_.load() >= options_.max_connections) {
      shed_accept(fd);
      continue;
    }
    open_conns_.fetch_add(1);
    const std::size_t shard_idx = rr_next_++ % shards_.size();
    const ConnId id = (++conn_counter_ << kShardBits) | shard_idx;
    if (shard_idx == 0) {
      register_conn(0, id, fd);
    } else {
      shards_[shard_idx]->loop.post(
          [this, shard_idx, id, fd] { register_conn(shard_idx, id, fd); });
    }
  }
}

void ReactorServer::register_conn(std::size_t shard_idx, ConnId id, int fd) {
  Shard& sh = *shards_[shard_idx];
  if (stopping_.load() || draining_.load()) {
    ::close(fd);
    open_conns_.fetch_sub(1);
    return;
  }
  auto conn = std::make_unique<Conn>();
  Conn* c = conn.get();
  c->id = id;
  c->fd = fd;
  c->want_read = true;
  sh.conns.emplace(id, std::move(conn));
  c->token = sh.loop.add_fd(
      fd, /*want_read=*/true, /*want_write=*/false,
      [this, shard_idx, id](bool r, bool w, bool h) {
        on_event(shard_idx, id, r, w, h);
      });
  update_timers(sh, c);
}

void ReactorServer::shed_accept(int fd) {
  shed_.fetch_add(1);
  // Shed conns live on the accepting shard, outside the open_conns_ count
  // (they never were serving connections): one best-effort kBusy frame so
  // a well-behaved client backs off, then close.
  Shard& sh = *shards_[0];
  const ConnId id = (++conn_counter_ << kShardBits) | 0;
  auto conn = std::make_unique<Conn>();
  Conn* c = conn.get();
  c->id = id;
  c->fd = fd;
  c->shed = true;
  c->read_closed = true;
  c->close_after_flush = true;
  sh.conns.emplace(id, std::move(conn));
  c->token = sh.loop.add_fd(
      fd, /*want_read=*/false, /*want_write=*/true,
      [this, id](bool r, bool w, bool h) { on_event(0, id, r, w, h); });
  c->want_write = true;
  Bytes busy = encode_envelope(MsgType::kBusy, {});
  OutBuf ob;
  netio::encode_frame_header(ob.header,
                             static_cast<std::uint32_t>(busy.size()));
  const std::uint64_t total = 4 + busy.size();
  ob.payload = std::move(busy);
  ob.is_reply = false;
  c->wq.push_back(std::move(ob));
  c->wq_bytes += total;
  inflight_bytes_.fetch_add(total);
  if (options_.shed_write_timeout_ms != 0) {
    c->write_armed = true;
    c->write_timer = sh.loop.add_timer(
        netio::deadline_after_ms(options_.shed_write_timeout_ms),
        [this, id] {
          Shard& s0 = *shards_[0];
          auto it = s0.conns.find(id);
          if (it == s0.conns.end()) return;
          it->second->write_armed = false;
          close_conn(s0, it->second.get());
        });
  }
  try_write(sh, c);
}

void ReactorServer::on_event(std::size_t shard_idx, ConnId id, bool readable,
                             bool writable, bool hangup) {
  Shard& sh = *shards_[shard_idx];
  auto it = sh.conns.find(id);
  if (it == sh.conns.end()) return;
  Conn* c = it->second.get();
  if (hangup) {
    // EPOLLHUP/EPOLLERR: dead in both directions; replies can never be
    // delivered, so pending completions will be dropped by id lookup.
    close_conn(sh, c);
    return;
  }
  if (writable) {
    if (!try_write(sh, c)) return;
  }
  if (readable && !c->read_closed) {
    if (!handle_readable(sh, c)) return;
  }
}

bool ReactorServer::handle_readable(Shard& sh, Conn* c) {
  // One bounded recv per readiness event: level-triggered epoll re-arms if
  // more is pending, which keeps the loop fair across connections.
  const std::size_t old_size = c->rbuf.size();
  c->rbuf.resize(old_size + kReadChunk);
  ssize_t n = ::recv(c->fd, c->rbuf.data() + old_size, kReadChunk, 0);
  if (n < 0) {
    c->rbuf.resize(old_size);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    close_conn(sh, c);
    return false;
  }
  if (n == 0) {
    c->rbuf.resize(old_size);
    return on_read_eof(sh, c);
  }
  c->rbuf.resize(old_size + static_cast<std::size_t>(n));
  return parse_requests(sh, c);
}

bool ReactorServer::parse_requests(Shard& sh, Conn* c) {
  for (;;) {
    ByteSpan in{c->rbuf.data() + c->roff, c->rbuf.size() - c->roff};
    if (in.empty()) break;
    ByteSpan payload;
    std::size_t frame_len = 0;
    netio::ParseStatus st =
        netio::parse_frame(in, options_.max_frame_bytes, &payload, &frame_len);
    if (st == netio::ParseStatus::kOversize) {
      // Same policy as the old server: an oversize claim is hostile or
      // broken; close without allocating for it.
      close_conn(sh, c);
      return false;
    }
    if (st == netio::ParseStatus::kNeedMore) break;
    c->roff += frame_len;
    if (!dispatch_request(sh, c, payload)) return false;
  }
  if (c->roff > 0) {
    c->rbuf.erase(c->rbuf.begin(),
                  c->rbuf.begin() + static_cast<std::ptrdiff_t>(c->roff));
    c->roff = 0;
  }
  if (draining_.load() && !c->read_closed && c->rbuf.empty()) {
    // The frame that straddled the drain start has now completed (and was
    // served); nothing new is read from this connection.
    c->read_closed = true;
    c->want_read = false;
    sh.loop.mod_fd(c->token, false, c->want_write);
  }
  update_timers(sh, c);
  return maybe_close_done(sh, c);
}

bool ReactorServer::dispatch_request(Shard& sh, Conn* c, ByteSpan payload) {
  const std::uint64_t seq = c->next_seq++;
  if (options_.conn_write_buffer_cap != 0) {
    if (c->wq_bytes > options_.conn_write_buffer_cap * 4) {
      // The peer is not consuming even the 5-byte busy frames; cut it off
      // before its pipeline turns the write queue into an unbounded sink.
      close_conn(sh, c);
      return false;
    }
    if (c->wq_bytes > options_.conn_write_buffer_cap) {
      backpressure_.fetch_add(1);
      if (options_.events != nullptr) options_.events->on_backpressure_shed();
      return deliver(sh, c, seq, encode_envelope(MsgType::kBusy, {}));
    }
  }
  if (options_.inflight_budget_bytes != 0 &&
      inflight_bytes_.load(std::memory_order_relaxed) >
          options_.inflight_budget_bytes) {
    backpressure_.fetch_add(1);
    if (options_.events != nullptr) options_.events->on_backpressure_shed();
    return deliver(sh, c, seq, encode_envelope(MsgType::kBusy, {}));
  }
  c->in_flight += 1;
  c->req_bytes.emplace(seq, payload.size());
  inflight_bytes_.fetch_add(payload.size());
  CompletionFn done = [router = router_, id = c->id, seq](Bytes reply) {
    std::lock_guard<std::mutex> lock(router->mu);
    if (router->server != nullptr) {
      router->server->complete(id, seq, std::move(reply));
    }
  };
  handler_(c->id, payload, std::move(done));
  return true;
}

void ReactorServer::complete(ConnId id, std::uint64_t seq, Bytes reply) {
  const std::size_t shard_idx =
      static_cast<std::size_t>(id & ((1u << kShardBits) - 1));
  if (shard_idx >= shards_.size()) return;
  // Completions always go through the task queue, even from the loop
  // thread itself: the reply is then applied at a point where no conn
  // state is mid-mutation.
  shards_[shard_idx]->loop.post(
      [this, shard_idx, id, seq, r = std::move(reply)]() mutable {
        on_completion(shard_idx, id, seq, std::move(r));
      });
}

void ReactorServer::on_completion(std::size_t shard_idx, ConnId id,
                                  std::uint64_t seq, Bytes reply) {
  Shard& sh = *shards_[shard_idx];
  auto it = sh.conns.find(id);
  if (it == sh.conns.end()) return;  // conn died mid-completion: drop
  Conn* c = it->second.get();
  c->in_flight -= 1;
  auto rb = c->req_bytes.find(seq);
  if (rb != c->req_bytes.end()) {
    inflight_bytes_.fetch_sub(rb->second);
    c->req_bytes.erase(rb);
  }
  deliver(sh, c, seq, std::move(reply));
}

bool ReactorServer::deliver(Shard& sh, Conn* c, std::uint64_t seq,
                            Bytes reply) {
  // Pipelining contract: replies enter the write queue strictly in request
  // order; an out-of-order completion parks here until its predecessors
  // land.
  c->ready.emplace(seq, std::move(reply));
  return flush_ready(sh, c);
}

bool ReactorServer::flush_ready(Shard& sh, Conn* c) {
  bool added = false;
  while (!c->ready.empty() &&
         c->ready.begin()->first == c->next_write_seq) {
    Bytes payload = std::move(c->ready.begin()->second);
    c->ready.erase(c->ready.begin());
    c->next_write_seq += 1;
    if (payload.size() > options_.max_frame_bytes) {
      close_conn(sh, c);
      return false;
    }
    OutBuf ob;
    netio::encode_frame_header(ob.header,
                               static_cast<std::uint32_t>(payload.size()));
    const std::uint64_t total = 4 + payload.size();
    ob.payload = std::move(payload);
    ob.is_reply = true;
    c->wq.push_back(std::move(ob));
    c->wq_bytes += total;
    inflight_bytes_.fetch_add(total);
    added = true;
  }
  if (!added) return true;
  return try_write(sh, c);
}

bool ReactorServer::try_write(Shard& sh, Conn* c) {
  while (!c->wq.empty()) {
    // Scatter/gather straight from the queued reply buffers: the 4-byte
    // length header and the serializer's exactly-sized payload go out in
    // one sendmsg, across as many queued replies as fit the iovec budget.
    iovec iov[kMaxIov];
    std::size_t cnt = 0;
    for (const OutBuf& ob : c->wq) {
      if (cnt + 2 > kMaxIov) break;
      if (ob.off < 4) {
        iov[cnt].iov_base =
            const_cast<std::uint8_t*>(ob.header) + ob.off;
        iov[cnt].iov_len = 4 - ob.off;
        ++cnt;
        if (!ob.payload.empty()) {
          iov[cnt].iov_base = const_cast<std::uint8_t*>(ob.payload.data());
          iov[cnt].iov_len = ob.payload.size();
          ++cnt;
        }
      } else {
        const std::size_t poff = ob.off - 4;
        iov[cnt].iov_base =
            const_cast<std::uint8_t*>(ob.payload.data()) + poff;
        iov[cnt].iov_len = ob.payload.size() - poff;
        ++cnt;
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    ssize_t n = ::sendmsg(c->fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_write) {
          c->want_write = true;
          sh.loop.mod_fd(c->token, c->want_read, true);
        }
        if (!c->write_armed && options_.write_stall_timeout_ms != 0) {
          c->write_armed = true;
          const ConnId id = c->id;
          const std::size_t shard_idx =
              static_cast<std::size_t>(id & ((1u << kShardBits) - 1));
          c->write_timer = sh.loop.add_timer(
              netio::deadline_after_ms(options_.write_stall_timeout_ms),
              [this, shard_idx, id] {
                Shard& s = *shards_[shard_idx];
                auto it = s.conns.find(id);
                if (it == s.conns.end()) return;
                it->second->write_armed = false;
                // No progress for a full stall window: the reply is torn,
                // exactly as the old per-reply write deadline tore it.
                close_conn(s, it->second.get());
              });
        }
        return true;
      }
      close_conn(sh, c);
      return false;
    }
    // Progress was made: the stall clock restarts on the next blockage.
    if (c->write_armed) {
      sh.loop.cancel_timer(c->write_timer);
      c->write_armed = false;
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0 && !c->wq.empty()) {
      OutBuf& front = c->wq.front();
      const std::size_t total = 4 + front.payload.size();
      const std::size_t take = std::min(left, total - front.off);
      front.off += take;
      left -= take;
      if (front.off == total) {
        const bool count_drain = front.is_reply && draining_.load();
        c->wq_bytes -= total;
        inflight_bytes_.fetch_sub(total);
        c->wq.pop_front();
        if (count_drain && options_.events != nullptr) {
          // A request fully served — reply flushed — during the drain
          // grace window.
          options_.events->on_drain_completed();
        }
      }
    }
  }
  if (c->want_write) {
    c->want_write = false;
    sh.loop.mod_fd(c->token, c->want_read, false);
  }
  if (c->write_armed) {
    sh.loop.cancel_timer(c->write_timer);
    c->write_armed = false;
  }
  return maybe_close_done(sh, c);
}

bool ReactorServer::on_read_eof(Shard& sh, Conn* c) {
  // Half-close support: a client may shut down its write side and still
  // collect the replies to everything it pipelined.
  c->read_closed = true;
  if (c->want_read) {
    c->want_read = false;
    sh.loop.mod_fd(c->token, false, c->want_write);
  }
  update_timers(sh, c);
  return maybe_close_done(sh, c);
}

bool ReactorServer::maybe_close_done(Shard& sh, Conn* c) {
  if (!c->wq.empty()) return true;
  const bool done_serving = c->in_flight == 0 && c->ready.empty();
  if (!done_serving) return true;
  if (c->close_after_flush || c->read_closed || draining_.load()) {
    close_conn(sh, c);
    return false;
  }
  return true;
}

void ReactorServer::close_conn(Shard& sh, Conn* c) {
  if (c->idle_armed) sh.loop.cancel_timer(c->idle_timer);
  if (c->frame_armed) sh.loop.cancel_timer(c->frame_timer);
  if (c->write_armed) sh.loop.cancel_timer(c->write_timer);
  sh.loop.del_fd(c->token);
  ::close(c->fd);
  // Release the budget held by unanswered requests and unflushed replies.
  std::uint64_t held = c->wq_bytes;
  for (const auto& [seq, sz] : c->req_bytes) held += sz;
  inflight_bytes_.fetch_sub(held);
  if (!c->shed) open_conns_.fetch_sub(1);
  sh.conns.erase(c->id);  // destroys *c
}

void ReactorServer::update_timers(Shard& sh, Conn* c) {
  const bool partial = c->rbuf.size() > c->roff;
  // Slow-loris guard: a frame that has started must complete under the
  // per-frame deadline, measured from its first byte — the timer is armed
  // once and NOT reset by trickled progress.
  if (partial && !c->frame_armed && !c->read_closed &&
      options_.frame_read_timeout_ms != 0) {
    c->frame_armed = true;
    const ConnId id = c->id;
    const std::size_t shard_idx =
        static_cast<std::size_t>(id & ((1u << kShardBits) - 1));
    c->frame_timer = sh.loop.add_timer(
        netio::deadline_after_ms(options_.frame_read_timeout_ms),
        [this, shard_idx, id] {
          Shard& s = *shards_[shard_idx];
          auto it = s.conns.find(id);
          if (it == s.conns.end()) return;
          it->second->frame_armed = false;
          if (options_.events != nullptr) {
            options_.events->on_slow_loris_closed();
          }
          close_conn(s, it->second.get());
        });
  } else if (!partial && c->frame_armed) {
    sh.loop.cancel_timer(c->frame_timer);
    c->frame_armed = false;
  }
  // Idle timer: runs only while the connection is parked between requests
  // (no partial frame, nothing in flight, nothing to write) — a slow
  // handler or a slow flush is never misread as client idleness.
  const bool parked = !partial && c->in_flight == 0 && c->wq.empty() &&
                      c->ready.empty() && !c->read_closed;
  if (c->idle_armed) {
    sh.loop.cancel_timer(c->idle_timer);
    c->idle_armed = false;
  }
  if (parked && options_.idle_timeout_ms != 0) {
    c->idle_armed = true;
    const ConnId id = c->id;
    const std::size_t shard_idx =
        static_cast<std::size_t>(id & ((1u << kShardBits) - 1));
    c->idle_timer = sh.loop.add_timer(
        netio::deadline_after_ms(options_.idle_timeout_ms),
        [this, shard_idx, id] {
          Shard& s = *shards_[shard_idx];
          auto it = s.conns.find(id);
          if (it == s.conns.end()) return;
          it->second->idle_armed = false;
          close_conn(s, it->second.get());
        });
  }
}

void ReactorServer::begin_drain(std::size_t shard_idx) {
  Shard& sh = *shards_[shard_idx];
  std::vector<ConnId> idle;
  for (auto& [id, conn] : sh.conns) {
    Conn* c = conn.get();
    const bool partial = c->rbuf.size() > c->roff;
    const bool busy = c->in_flight > 0 || !c->wq.empty() ||
                      !c->ready.empty() || partial;
    if (!busy) {
      idle.push_back(id);
      continue;
    }
    if (!partial && !c->read_closed) {
      // Busy with fully-received work: serve it, read nothing more. A
      // partial frame keeps its read side until the frame completes
      // (parse_requests turns it off; the slow-loris timer bounds it).
      c->read_closed = true;
      c->want_read = false;
      sh.loop.mod_fd(c->token, false, c->want_write);
    }
  }
  for (ConnId id : idle) {
    auto it = sh.conns.find(id);
    if (it != sh.conns.end()) close_conn(sh, it->second.get());
  }
}

// ---------------------------------------------------------------------------
// TcpServer compatibility shim
// ---------------------------------------------------------------------------

namespace {

ReactorServerOptions map_legacy_options(const TcpServerOptions& o) {
  ReactorServerOptions r;
  r.max_frame_bytes = o.max_frame_bytes;
  r.write_stall_timeout_ms = o.io_timeout_ms;
  r.idle_timeout_ms = o.idle_timeout_ms;
  // The legacy fallback rule — frame_read_timeout_ms == 0 meant "use
  // io_timeout_ms" — is resolved here, once.
  r.frame_read_timeout_ms =
      o.frame_read_timeout_ms != 0 ? o.frame_read_timeout_ms : o.io_timeout_ms;
  r.shed_write_timeout_ms = o.busy_write_timeout_ms;
  r.max_connections = o.max_connections;
  // The legacy server had no write-buffer backpressure; keep it off so
  // existing call sites see exactly the old shedding behavior.
  r.conn_write_buffer_cap = 0;
  r.inflight_budget_bytes = 0;
  r.io_threads = 1;
  r.events = o.events;
  return r;
}

}  // namespace

TcpServer::TcpServer(Handler handler, TcpServerOptions options)
    : pool_(std::make_shared<HandlerPool>()) {
  auto shared_handler = std::make_shared<Handler>(std::move(handler));
  auto pool = pool_;
  reactor_ = std::make_unique<ReactorServer>(
      [shared_handler, pool](ConnId, ByteSpan request,
                             ReactorServer::CompletionFn done) {
        // The span dies with this call; the handler thread needs a copy.
        Bytes req(request.begin(), request.end());
        {
          std::lock_guard<std::mutex> lock(pool->mu);
          ++pool->live;
        }
        std::thread([shared_handler, pool, req = std::move(req),
                     done = std::move(done)]() mutable {
          Bytes reply;
          try {
            reply = (*shared_handler)(ByteSpan{req.data(), req.size()});
          } catch (...) {
            reply = encode_envelope(MsgType::kError, {});
          }
          done(std::move(reply));
          {
            std::lock_guard<std::mutex> lock(pool->mu);
            --pool->live;
          }
          pool->cv.notify_all();
        }).detach();
      },
      map_legacy_options(options));
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::wait_handlers() {
  // The old server joined its connection workers; blocking handlers got to
  // finish. The shim waits for its per-request threads the same way.
  std::unique_lock<std::mutex> lock(pool_->mu);
  pool_->cv.wait(lock, [this] { return pool_->live == 0; });
}

void TcpServer::stop() {
  reactor_->stop();
  wait_handlers();
}

void TcpServer::drain(std::uint32_t grace_ms) {
  reactor_->drain(grace_ms);
  wait_handlers();
}

}  // namespace lvq
