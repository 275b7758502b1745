#include "net/fault_injection.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "net/frame.hpp"

namespace lvq {

const char* fault_mode_name(FaultMode m) {
  switch (m) {
    case FaultMode::kNone: return "none";
    case FaultMode::kTimeout: return "timeout";
    case FaultMode::kDisconnect: return "disconnect";
    case FaultMode::kTruncateReply: return "truncate-reply";
    case FaultMode::kCorruptReply: return "corrupt-reply";
    case FaultMode::kGarbageReply: return "garbage-reply";
    case FaultMode::kDelayReply: return "delay-reply";
    case FaultMode::kOversizeReply: return "oversize-reply";
  }
  return "unknown";
}

namespace {

/// Draws the next fault: scripted entries first, then per-mode
/// probabilities in a fixed order (so a given seed replays exactly).
FaultMode draw_mode(const FaultPlan& plan, std::size_t& script_pos, Rng& rng) {
  if (script_pos < plan.script.size()) return plan.script[script_pos++];
  if (plan.timeout_prob > 0 && rng.chance(plan.timeout_prob))
    return FaultMode::kTimeout;
  if (plan.disconnect_prob > 0 && rng.chance(plan.disconnect_prob))
    return FaultMode::kDisconnect;
  if (plan.truncate_prob > 0 && rng.chance(plan.truncate_prob))
    return FaultMode::kTruncateReply;
  if (plan.corrupt_prob > 0 && rng.chance(plan.corrupt_prob))
    return FaultMode::kCorruptReply;
  if (plan.garbage_prob > 0 && rng.chance(plan.garbage_prob))
    return FaultMode::kGarbageReply;
  return FaultMode::kNone;
}

}  // namespace

FaultMode FaultInjectingTransport::next_mode() {
  return draw_mode(plan_, script_pos_, rng_);
}

Bytes FaultInjectingTransport::round_trip(ByteSpan request) {
  ++calls_;
  if (plan_.disconnect_after_bytes > 0 &&
      bytes_sent_ + bytes_received_ >= plan_.disconnect_after_bytes) {
    ++faults_;
    throw TransportError(TransportError::kDisconnect,
                         "injected byte-budget disconnect");
  }
  FaultMode mode = next_mode();
  switch (mode) {
    case FaultMode::kTimeout:
      ++faults_;
      throw TransportError(TransportError::kTimeout, "injected timeout");
    case FaultMode::kDisconnect:
      ++faults_;
      throw TransportError(TransportError::kDisconnect,
                           "injected disconnect");
    default: break;
  }
  Bytes reply = inner_.round_trip(request);
  bytes_sent_ += request.size();
  switch (mode) {
    case FaultMode::kTruncateReply:
      ++faults_;
      reply.resize(reply.size() / 2);
      break;
    case FaultMode::kCorruptReply:
      ++faults_;
      for (int i = 0; i < 3 && !reply.empty(); ++i) {
        reply[rng_.below(reply.size())] ^=
            static_cast<std::uint8_t>(rng_.next_u64() | 1);
      }
      break;
    case FaultMode::kGarbageReply: {
      ++faults_;
      Bytes garbage(rng_.below(reply.size() + 64) + 1);
      for (auto& b : garbage) b = static_cast<std::uint8_t>(rng_.next_u64());
      reply = std::move(garbage);
      break;
    }
    case FaultMode::kDelayReply:
      ++faults_;
      std::this_thread::sleep_for(std::chrono::milliseconds(plan_.delay_ms));
      break;
    default: break;
  }
  bytes_received_ += reply.size();
  return reply;
}

FlakyServer::FlakyServer(TcpServer::Handler handler, FaultPlan plan,
                         TcpServerOptions options)
    : handler_(std::move(handler)),
      plan_(std::move(plan)),
      options_(options),
      rng_(plan_.seed) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw TransportError(TransportError::kConnect, std::strerror(errno));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    throw TransportError(TransportError::kConnect, std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

FlakyServer::~FlakyServer() { stop(); }

void FlakyServer::stop() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& w : workers_) {
      if (w->fd >= 0) ::shutdown(w->fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  // Drain under the lock, join outside it: workers take mu_ to close
  // their fd on exit, so joining while holding it would deadlock.
  std::list<std::unique_ptr<Worker>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(workers_);
  }
  for (auto& w : drained) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void FlakyServer::accept_loop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Reap finished workers so the list tracks open connections only —
    // fault scripts force many short-lived reconnects.
    for (auto it = workers_.begin(); it != workers_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }
    workers_.push_back(std::make_unique<Worker>());
    Worker* w = workers_.back().get();
    w->fd = fd;
    w->thread = std::thread([this, w] { serve_connection(w); });
  }
}

FaultMode FlakyServer::next_mode() {
  std::lock_guard<std::mutex> lock(mu_);
  return draw_mode(plan_, script_pos_, rng_);
}

void FlakyServer::serve_connection(Worker* worker) {
  const int fd = worker->fd;
  const std::uint32_t cap = options_.max_frame_bytes;
  Bytes request;
  bool keep_open = true;
  while (keep_open) {
    netio::Deadline read_deadline =
        netio::deadline_after_ms(options_.idle_timeout_ms);
    if (netio::read_frame(fd, request, cap, read_deadline) !=
        netio::FrameResult::kOk) {
      break;
    }
    requests_seen_.fetch_add(1);
    FaultMode mode = next_mode();
    netio::Deadline write_deadline =
        netio::deadline_after_ms(options_.io_timeout_ms);
    switch (mode) {
      case FaultMode::kDisconnect:
        keep_open = false;
        break;
      case FaultMode::kTimeout: {
        // Stall: hold the reply back until the client gives up (it closes
        // the connection on its deadline), we hit stall_ms, or stop().
        auto stall_until = netio::Clock::now() +
                           std::chrono::milliseconds(plan_.stall_ms);
        while (!stopping_.load() && netio::Clock::now() < stall_until) {
          pollfd p{fd, POLLIN, 0};
          if (::poll(&p, 1, 20) > 0) {
            std::uint8_t probe;
            if (::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT) == 0) break;
          }
        }
        keep_open = false;
        break;
      }
      case FaultMode::kOversizeReply: {
        // Frame header claiming cap+1 bytes; the client must reject it
        // without allocating, let alone reading, that much.
        std::uint32_t lie = cap == 0xffffffffu ? cap : cap + 1;
        std::uint8_t header[4];
        netio::encode_frame_header(header, lie);
        netio::write_raw(fd, ByteSpan{header, 4}, write_deadline);
        keep_open = false;
        break;
      }
      case FaultMode::kTruncateReply: {
        Bytes reply = handler_(ByteSpan{request.data(), request.size()});
        Bytes frame = netio::encode_frame(
            ByteSpan{reply.data(), reply.size()});
        // Header promises the full reply; deliver only half, then die.
        std::size_t sent = 4 + reply.size() / 2;
        netio::write_raw(fd, ByteSpan{frame.data(), sent}, write_deadline);
        keep_open = false;
        break;
      }
      case FaultMode::kGarbageReply: {
        Bytes garbage;
        {
          std::lock_guard<std::mutex> lock(mu_);
          garbage.resize(rng_.below(256) + 1);
          for (auto& b : garbage)
            b = static_cast<std::uint8_t>(rng_.next_u64());
        }
        keep_open = netio::write_frame(fd,
                                       ByteSpan{garbage.data(), garbage.size()},
                                       cap, write_deadline) ==
                    netio::FrameResult::kOk;
        break;
      }
      case FaultMode::kCorruptReply: {
        Bytes reply = handler_(ByteSpan{request.data(), request.size()});
        {
          std::lock_guard<std::mutex> lock(mu_);
          for (int i = 0; i < 3 && !reply.empty(); ++i) {
            reply[rng_.below(reply.size())] ^=
                static_cast<std::uint8_t>(rng_.next_u64() | 1);
          }
        }
        keep_open = netio::write_frame(fd,
                                       ByteSpan{reply.data(), reply.size()},
                                       cap, write_deadline) ==
                    netio::FrameResult::kOk;
        break;
      }
      case FaultMode::kDelayReply:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan_.delay_ms));
        [[fallthrough]];
      case FaultMode::kNone: {
        Bytes reply = handler_(ByteSpan{request.data(), request.size()});
        keep_open = netio::write_frame(fd,
                                       ByteSpan{reply.data(), reply.size()},
                                       cap, write_deadline) ==
                    netio::FrameResult::kOk;
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ::close(fd);
    worker->fd = -1;
  }
  worker->done.store(true);
}

}  // namespace lvq
