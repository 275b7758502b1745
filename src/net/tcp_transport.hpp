// Real TCP client transport over loopback.
//
// The paper ran the light node (RPC client) and full node (RPC server) on
// separate machines; `LoopbackTransport` models only the byte counts.
// `TcpTransport` makes the split literal: a drop-in `Transport` speaking
// length-prefixed frames over a persistent socket to a server on
// 127.0.0.1. The serving side lives in net/reactor_server.hpp (epoll
// event-loop `ReactorServer`, plus the legacy `TcpServer` shim).
//
// Framing per direction: u32 little-endian payload length, then payload
// (see net/frame.hpp). Each request frame leaves in one send call: a
// header and payload sent as two writes, then a read, let Nagle hold the
// payload until the server's delayed ACK — ~44 ms per round trip on
// loopback. With one send the client needs no TCP_NODELAY, and sets none.
//
// The client is hardened against hostile or broken peers: every blocking
// socket operation is governed by a deadline, frame sizes are capped,
// failures surface as typed `TransportError`s, and the client
// transparently reconnects on the next round trip after a disconnect.
#pragma once

#include <cstdint>

#include "net/transport.hpp"
#include "net/transport_error.hpp"
#include "util/bytes.hpp"

namespace lvq {

struct TcpTransportOptions {
  /// Deadline for establishing (or re-establishing) the connection.
  std::uint32_t connect_timeout_ms = 5'000;
  /// Deadline for one complete round trip (send + receive). 0 = unlimited.
  std::uint32_t io_timeout_ms = 30'000;
  /// Largest frame sent or accepted. Checked against the payload's size_t
  /// length before any narrowing cast, so >4 GiB payloads are rejected
  /// explicitly instead of framed with a wrapped length.
  std::uint32_t max_frame_bytes = 1u << 30;
  /// Reconnect transparently at the start of a round trip when a previous
  /// failure closed the socket.
  bool auto_reconnect = true;
};

class TcpTransport final : public Transport {
 public:
  /// Connects to 127.0.0.1:port; throws TransportError(kConnect) on
  /// failure (including a connect that exceeds the deadline).
  explicit TcpTransport(std::uint16_t port, TcpTransportOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// One request/response exchange under options.io_timeout_ms. On any
  /// failure the socket is closed (so the next call reconnects) and a
  /// typed TransportError is thrown:
  ///   kOversize        request or response exceeds max_frame_bytes
  ///   kTimeout         deadline expired
  ///   kDisconnect      peer closed/reset the connection
  ///   kMalformedFrame  peer died mid-frame / violated the length prefix
  ///   kConnect         auto-reconnect failed
  Bytes round_trip(ByteSpan request) override;

  /// round_trip with the wire deadline clamped to min(io_timeout_ms,
  /// budget_ms): an attempt whose retry budget is nearly spent fails fast
  /// instead of waiting out a full fresh io timeout.
  Bytes round_trip_within(ByteSpan request, std::uint32_t budget_ms) override;

  bool connected() const { return fd_ >= 0; }
  /// Times a broken connection was transparently re-established.
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  void connect_with_deadline();
  Bytes round_trip_deadline(ByteSpan request, std::uint32_t timeout_ms);

  int fd_ = -1;
  std::uint16_t port_ = 0;
  TcpTransportOptions options_;
  std::uint64_t reconnects_ = 0;
};

}  // namespace lvq
