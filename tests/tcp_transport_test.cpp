// Tests for the real TCP loopback transport: the full query protocol over
// genuine sockets, concurrent clients, and failure handling.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "net/frame.hpp"
#include "net/reactor_server.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport_error.hpp"
#include "node/session.hpp"
#include "workload/workload.hpp"

namespace lvq {
namespace {

const ExperimentSetup& setup() {
  static ExperimentSetup s = [] {
    WorkloadConfig c;
    c.seed = 616;
    c.num_blocks = 32;
    c.background_txs_per_block = 8;
    c.profiles = {{"a", 5, 4}, {"ghost", 0, 0}};
    return make_setup(c);
  }();
  return s;
}

constexpr BloomGeometry kGeom{256, 6};

TEST(TcpTransport, EchoFrames) {
  TcpServer server([](ByteSpan req) { return Bytes(req.begin(), req.end()); });
  TcpTransport client(server.port());
  Bytes msg = {1, 2, 3, 4, 5};
  Bytes reply = client.round_trip(ByteSpan{msg.data(), msg.size()});
  EXPECT_EQ(reply, msg);
  EXPECT_EQ(client.bytes_sent(), 5u);
  EXPECT_EQ(client.bytes_received(), 5u);
}

TEST(TcpTransport, EmptyFrames) {
  TcpServer server([](ByteSpan) { return Bytes{}; });
  TcpTransport client(server.port());
  Bytes reply = client.round_trip({});
  EXPECT_TRUE(reply.empty());
}

TEST(TcpTransport, MultipleRoundTripsOnOneConnection) {
  int calls = 0;
  TcpServer server([&](ByteSpan req) {
    calls++;
    Bytes out(req.begin(), req.end());
    out.push_back(static_cast<std::uint8_t>(calls));
    return out;
  });
  TcpTransport client(server.port());
  for (int i = 1; i <= 5; ++i) {
    Bytes msg = {9};
    Bytes reply = client.round_trip(ByteSpan{msg.data(), msg.size()});
    ASSERT_EQ(reply.size(), 2u);
    EXPECT_EQ(reply[1], i);
  }
}

TEST(TcpTransport, FullQueryProtocolOverRealSockets) {
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  FullNode full(setup().workload, setup().derived, config);
  TcpServer server([&](ByteSpan req) { return full.handle_message(req); });

  TcpTransport transport(server.port());
  LightNode light(config);
  ASSERT_TRUE(light.sync_headers(transport));
  EXPECT_EQ(light.tip_height(), 32u);

  for (const AddressProfile& p : setup().workload->profiles) {
    auto result = light.query(transport, p.address);
    ASSERT_TRUE(result.outcome.ok) << result.outcome.detail;
    GroundTruth gt = scan_ground_truth(*setup().workload, p.address);
    EXPECT_EQ(result.outcome.history.total_txs(), gt.txs.size());
  }
}

TEST(TcpTransport, ResultsIdenticalToLoopback) {
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  FullNode full(setup().workload, setup().derived, config);
  TcpServer server([&](ByteSpan req) { return full.handle_message(req); });
  TcpTransport tcp(server.port());
  LoopbackTransport loop([&](ByteSpan req) { return full.handle_message(req); });

  LightNode light(config);
  light.set_headers(full.headers());
  const Address& addr = setup().workload->profiles[0].address;
  auto via_tcp = light.query(tcp, addr);
  auto via_loop = light.query(loop, addr);
  ASSERT_TRUE(via_tcp.outcome.ok);
  EXPECT_EQ(via_tcp.response_bytes, via_loop.response_bytes);
  EXPECT_EQ(via_tcp.request_bytes, via_loop.request_bytes);
  EXPECT_EQ(via_tcp.breakdown.total(), via_loop.breakdown.total());
}

TEST(TcpTransport, ConcurrentClients) {
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  FullNode full(setup().workload, setup().derived, config);
  TcpServer server([&](ByteSpan req) { return full.handle_message(req); });

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        TcpTransport transport(server.port());
        LightNode light(config);
        if (!light.sync_headers(transport)) {
          failures++;
          return;
        }
        const Address& addr =
            setup().workload->profiles[i % 2].address;
        auto result = light.query(transport, addr);
        if (!result.outcome.ok) failures++;
      } catch (const std::exception&) {
        failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpTransport, ConnectToClosedPortThrows) {
  std::uint16_t dead_port;
  {
    TcpServer tmp([](ByteSpan) { return Bytes{}; });
    dead_port = tmp.port();
  }  // server torn down; port released
  EXPECT_THROW(TcpTransport t(dead_port), std::runtime_error);
  try {
    TcpTransport t(dead_port);
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::kConnect);
  }
}

TEST(TcpTransport, StalledHandlerHitsDeadlineNotHang) {
  TcpServer server([](ByteSpan req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    return Bytes(req.begin(), req.end());
  });
  TcpTransportOptions opts;
  opts.io_timeout_ms = 100;
  TcpTransport client(server.port(), opts);
  Bytes msg = {1};
  auto start = std::chrono::steady_clock::now();
  try {
    client.round_trip(ByteSpan{msg.data(), msg.size()});
    FAIL() << "expected timeout";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::kTimeout);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
}

TEST(TcpTransport, OversizeRequestRejectedBeforeSend) {
  TcpServer server([](ByteSpan req) { return Bytes(req.begin(), req.end()); });
  TcpTransportOptions opts;
  opts.max_frame_bytes = 1024;
  TcpTransport client(server.port(), opts);
  Bytes big(2048, 0x55);
  try {
    client.round_trip(ByteSpan{big.data(), big.size()});
    FAIL() << "expected oversize rejection";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::kOversize);
  }
  // The connection was never dirtied: a small request still works.
  Bytes small = {1, 2};
  EXPECT_EQ(client.round_trip(ByteSpan{small.data(), small.size()}), small);
}

TEST(TcpTransport, ServerEnforcesItsOwnFrameCap) {
  TcpServerOptions sopts;
  sopts.max_frame_bytes = 64;
  TcpServer server([](ByteSpan req) { return Bytes(req.begin(), req.end()); },
                   sopts);
  TcpTransportOptions copts;
  copts.io_timeout_ms = 1'000;
  TcpTransport client(server.port(), copts);
  Bytes big(256, 0x77);
  // The server refuses to read past the cap and closes; the client sees a
  // typed error, never a hang.
  EXPECT_THROW(client.round_trip(ByteSpan{big.data(), big.size()}),
               TransportError);
}

TEST(TcpTransport, RoundTripAfterServerStopFailsTyped) {
  auto server = std::make_unique<TcpServer>(
      [](ByteSpan req) { return Bytes(req.begin(), req.end()); });
  TcpTransportOptions opts;
  opts.io_timeout_ms = 500;
  opts.connect_timeout_ms = 500;
  TcpTransport client(server->port(), opts);
  Bytes msg = {3};
  EXPECT_EQ(client.round_trip(ByteSpan{msg.data(), msg.size()}), msg);
  server->stop();
  server.reset();
  // First call notices the dead connection; a follow-up reconnect attempt
  // to the released port fails with a typed error too. Nothing hangs.
  for (int i = 0; i < 2; ++i) {
    try {
      client.round_trip(ByteSpan{msg.data(), msg.size()});
      FAIL() << "expected failure against stopped server";
    } catch (const TransportError&) {
    }
  }
}

TEST(TcpServer, ReapsFinishedConnectionWorkers) {
  TcpServer server([](ByteSpan req) { return Bytes(req.begin(), req.end()); });
  for (int i = 0; i < 16; ++i) {
    TcpTransport client(server.port());
    Bytes msg = {static_cast<std::uint8_t>(i)};
    client.round_trip(ByteSpan{msg.data(), msg.size()});
  }  // each client disconnects here
  // Workers notice the close and mark themselves done; active_workers()
  // reaps them. Without reaping this would report 16.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t live = 16;
  while (std::chrono::steady_clock::now() < deadline) {
    live = server.active_workers();
    if (live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(live, 0u);
}

TEST(TcpTransport, BatchQueryOverSockets) {
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  FullNode full(setup().workload, setup().derived, config);
  TcpServer server([&](ByteSpan req) { return full.handle_message(req); });
  TcpTransport transport(server.port());
  LightNode light(config);
  ASSERT_TRUE(light.sync_headers(transport));
  std::vector<Address> addrs = {setup().workload->profiles[0].address,
                                setup().workload->profiles[1].address};
  auto results = light.query_batch(transport, addrs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].outcome.ok);
  EXPECT_TRUE(results[1].outcome.ok);
}

Bytes patterned(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + (i >> 11));
  }
  return out;
}

// A frame's header and payload must leave in one send call: sent as two,
// a client's request becomes write-write-read and Nagle holds the payload
// until the server's delayed ACK (~44 ms a round trip on loopback). A
// SOCK_SEQPACKET pair keeps each send one record, so a single recv shows
// exactly what one send carried.
TEST(WriteFrame, HeaderAndPayloadLeaveInOneSend) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{100} << 10}) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sv), 0);
    const Bytes payload = patterned(n);
    ASSERT_EQ(netio::write_frame(sv[0], ByteSpan{payload.data(), n}, 1u << 20,
                                 netio::deadline_after_ms(5'000)),
              netio::FrameResult::kOk);
    Bytes got(4 + n + 1);
    const ssize_t r = ::recv(sv[1], got.data(), got.size(), 0);
    ::close(sv[0]);
    ::close(sv[1]);
    ASSERT_EQ(r, static_cast<ssize_t>(4 + n)) << "payload of " << n << " B";
    ByteSpan view;
    std::size_t frame_len = 0;
    ASSERT_EQ(netio::parse_frame(ByteSpan{got.data(), 4 + n}, 1u << 20, &view,
                                 &frame_len),
              netio::ParseStatus::kOk);
    EXPECT_EQ(frame_len, 4 + n);
    EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin(),
                           payload.end()));
  }
}

// A payload far over the send buffer goes out in many partial sendmsg
// calls; each must resume mid-iovec so the stream stays byte-identical.
TEST(WriteFrame, PartialWritesAdvanceAcrossIovecs) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)),
            0);
  // Non-blocking, like TcpTransport's socket: sendmsg returns short counts.
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL, 0) | O_NONBLOCK),
            0);
  const Bytes payload = patterned(std::size_t{4} << 20);
  Bytes wire;
  std::thread reader([&] {
    std::uint8_t buf[16 * 1024];
    for (;;) {
      const ssize_t r = ::recv(sv[1], buf, sizeof(buf), 0);
      if (r <= 0) break;
      wire.insert(wire.end(), buf, buf + r);
    }
  });
  const netio::FrameResult result = netio::write_frame(
      sv[0], ByteSpan{payload.data(), payload.size()}, 8u << 20,
      netio::deadline_after_ms(30'000));
  ::close(sv[0]);
  reader.join();
  ::close(sv[1]);
  ASSERT_EQ(result, netio::FrameResult::kOk);
  ASSERT_EQ(wire.size(), 4 + payload.size());
  ByteSpan view;
  ASSERT_EQ(netio::parse_frame(ByteSpan{wire.data(), wire.size()}, 8u << 20,
                               &view, nullptr),
            netio::ParseStatus::kOk);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin(),
                         payload.end()));
}

}  // namespace
}  // namespace lvq
