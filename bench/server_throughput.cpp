// Closed-loop throughput/latency benchmark for the serving engine
// (supplementary to §VII: the paper reports proof sizes; a node operator
// cares how many verifiable queries a box can answer per second).
//
// A fixed set of client threads issues repeated-address kQueryRequest
// traffic against a ServingEngine in two regimes per worker count:
//
//   cold  — cache disabled: every request regenerates its proof via the
//           tree walk (no proof index), the work the cache amortizes.
//   warm  — response cache enabled and pre-warmed: repeats are served
//           from it.
//
// A third regime exercises the C10k serving path end to end: a forked
// client process opens 1k / 10k real loopback connections against a
// ReactorServer and drives a fixed number of in-flight warm-cache
// queries round-robin across every connection, so p99 at 10k conns
// measures the event loop's per-connection overhead, not a change in
// offered load. A churn soak (connect / one query / disconnect in a
// tight loop) covers accept-path and teardown costs. The client forks
// because 10k client fds + 10k server fds exceed a single process's fd
// budget on the default rlimit.
//
// Results go to stdout and to BENCH_server.json (--out=...) so CI can
// track the serving-path perf trajectory (tools/bench_check.py gates on
// it). Extra knobs on top of the shared bench flags: --clients (8),
// --measure-ms (400), --out, --admit-min-us (0; response-cache admission
// threshold for the warm cells), --proof-index (0; 1 runs the cold/warm
// sweep against the proof-indexed node, where both regimes are
// memory-bound and the ratio collapses), --scale-conns (comma list,
// default "1000,10000"; empty disables the connection-scaling phase).
// The overload and connection-scaling phases always use the indexed
// node — see the node setup in main().
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/reactor_server.hpp"
#include "server/serving_engine.hpp"

using namespace lvq;
using namespace lvq::bench;

namespace {

struct CellResult {
  std::uint32_t workers = 0;
  bool warm = false;
  std::uint64_t requests = 0;
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double cache_hit_rate = 0;
  std::uint64_t admitted = 0;
  std::uint64_t bypassed = 0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  std::size_t i = static_cast<std::size_t>(q * (sorted_us.size() - 1));
  return sorted_us[i];
}

CellResult run_cell(const FullNode& full, const std::vector<Address>& addrs,
                    std::uint32_t workers, bool warm, std::uint32_t clients,
                    std::uint64_t measure_ms, std::uint64_t cache_bytes,
                    std::uint64_t admit_min_us) {
  ServingEngineOptions opts;
  opts.workers = workers;
  opts.queue_depth = clients;  // closed loop: nothing is ever shed
  opts.cache_bytes = warm ? cache_bytes : 0;
  // Warm cells pass the admission threshold explicitly (default 0: admit
  // everything) so the warm regime always measures hit-path cost even on
  // a machine fast enough to assemble under the production default; the
  // admitted/bypassed counters land in the JSON either way.
  opts.cache_admit_min_us = admit_min_us;
  ServingEngine engine(full, opts);

  std::vector<Bytes> requests;
  for (const Address& a : addrs) {
    Writer w;
    QueryRequest{a}.serialize(w);
    requests.push_back(encode_envelope(MsgType::kQueryRequest,
                                       ByteSpan{w.data().data(), w.data().size()}));
  }
  if (warm) {  // one pass fills the response cache
    for (const Bytes& r : requests) {
      engine.handle(ByteSpan{r.data(), r.size()});
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> done{0};
  std::vector<std::vector<double>> lat_us(clients);
  std::vector<std::thread> threads;
  Timer wall;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t i = c;  // stagger the address cycle across clients
      while (!stop.load(std::memory_order_relaxed)) {
        const Bytes& req = requests[i++ % requests.size()];
        Timer t;
        Bytes reply = engine.handle(ByteSpan{req.data(), req.size()});
        lat_us[c].push_back(t.seconds() * 1e6);
        if (reply.empty() ||
            reply[0] != static_cast<std::uint8_t>(MsgType::kQueryResponse)) {
          std::fprintf(stderr, "unexpected reply type\n");
          std::abort();
        }
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  double elapsed = wall.seconds();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  MetricsSnapshot snap = engine.snapshot();
  CellResult r;
  r.workers = workers;
  r.warm = warm;
  r.requests = done.load();
  r.qps = static_cast<double>(r.requests) / elapsed;
  r.p50_us = percentile(all, 0.50);
  r.p90_us = percentile(all, 0.90);
  r.p99_us = percentile(all, 0.99);
  const std::uint64_t lookups = snap.cache_hits + snap.cache_misses;
  r.cache_hit_rate =
      lookups == 0 ? 0 : static_cast<double>(snap.cache_hits) / lookups;
  r.admitted = snap.cache_admitted;
  r.bypassed = snap.cache_bypassed;
  return r;
}

struct OverloadResult {
  std::uint32_t workers = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t clients = 0;
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t busy = 0;
  double served_qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double busy_rate = 0;
};

/// Overload regime: ~4x more closed-loop clients than the engine has
/// capacity (workers + queue). The engine must shed the excess with kBusy
/// while the requests it does accept keep a bounded p99 — an overloaded
/// server that stays honest beats one that serves everything slowly.
OverloadResult run_overload(const FullNode& full,
                            const std::vector<Address>& addrs,
                            std::uint64_t measure_ms) {
  ServingEngineOptions opts;
  opts.workers = 4;
  opts.queue_depth = 8;
  opts.cache_bytes = 0;  // every served request does real proof assembly
  ServingEngine engine(full, opts);
  const std::uint32_t clients = 32;  // ~4x (workers + queue_depth)

  std::vector<Bytes> requests;
  for (const Address& a : addrs) {
    Writer w;
    QueryRequest{a}.serialize(w);
    requests.push_back(encode_envelope(
        MsgType::kQueryRequest, ByteSpan{w.data().data(), w.data().size()}));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> busy{0};
  std::vector<std::vector<double>> lat_us(clients);
  std::vector<std::thread> threads;
  Timer wall;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const Bytes& req = requests[i++ % requests.size()];
        Timer t;
        Bytes reply = engine.handle(ByteSpan{req.data(), req.size()});
        offered.fetch_add(1, std::memory_order_relaxed);
        if (!reply.empty() &&
            reply[0] == static_cast<std::uint8_t>(MsgType::kBusy)) {
          busy.fetch_add(1, std::memory_order_relaxed);
          // Minimal client backoff on shed (what RetryTransport does): a
          // zero-backoff spin would measure admission-lock contention, not
          // serving capacity.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        if (reply.empty() ||
            reply[0] != static_cast<std::uint8_t>(MsgType::kQueryResponse)) {
          std::fprintf(stderr, "unexpected reply type under overload\n");
          std::abort();
        }
        lat_us[c].push_back(t.seconds() * 1e6);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  double elapsed = wall.seconds();

  std::vector<double> all;
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  OverloadResult r;
  r.workers = opts.workers;
  r.queue_depth = opts.queue_depth;
  r.clients = clients;
  r.offered = offered.load();
  r.served = served.load();
  r.busy = busy.load();
  r.served_qps = static_cast<double>(r.served) / elapsed;
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.busy_rate = r.offered == 0
                    ? 0
                    : static_cast<double>(r.busy) / static_cast<double>(r.offered);
  return r;
}

// ---------------------------------------------------------------------------
// Connection-scaling phase: C10k against the ReactorServer.

/// Wire-format result a client child writes back over its pipe. Plain
/// PODs only — the struct crosses a process boundary.
struct ScaleWire {
  std::uint64_t conns = 0;
  std::uint64_t requests = 0;
  double elapsed_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct ChurnWire {
  std::uint64_t cycles = 0;
  std::uint64_t failures = 0;
  double elapsed_s = 0;
  double p99_us = 0;
};

struct ScaleCell {
  std::uint64_t target_conns = 0;
  ScaleWire w;
  double qps() const { return w.elapsed_s > 0 ? w.requests / w.elapsed_s : 0; }
};

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Bytes frame_request(const Bytes& payload) {
  Bytes wire;
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  wire.push_back(static_cast<std::uint8_t>(n & 0xff));
  wire.push_back(static_cast<std::uint8_t>((n >> 8) & 0xff));
  wire.push_back(static_cast<std::uint8_t>((n >> 16) & 0xff));
  wire.push_back(static_cast<std::uint8_t>((n >> 24) & 0xff));
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

/// Raise the soft fd limit to the hard one and return how many
/// connections we can actually afford (with slack for epoll/pipes/std
/// fds). Scales the target down LOUDLY rather than failing quietly.
std::uint64_t clamp_conns_to_rlimit(std::uint64_t target) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return target;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);  // best effort
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  const std::uint64_t slack = 64;
  const std::uint64_t afford =
      rl.rlim_cur > slack ? static_cast<std::uint64_t>(rl.rlim_cur) - slack : 0;
  if (afford < target) {
    std::fprintf(stderr,
                 "WARNING: fd limit %llu cannot hold %llu connections; "
                 "scaling down to %llu\n",
                 static_cast<unsigned long long>(rl.rlim_cur),
                 static_cast<unsigned long long>(target),
                 static_cast<unsigned long long>(afford));
    return afford;
  }
  return target;
}

/// Client child for one scaling cell. Opens `target` connections, keeps
/// a fixed number of requests in flight, and issues them round-robin
/// across ALL connections so every one of the 10k sockets sees traffic
/// and the server's full connection table stays hot. One request in
/// flight per connection at most; replies are matched per connection.
ScaleWire run_scale_client(std::uint16_t port, std::uint64_t target,
                           const std::vector<Bytes>& requests,
                           std::uint64_t measure_ms) {
  ScaleWire out;
  const std::uint64_t conns = clamp_conns_to_rlimit(target);
  std::vector<Bytes> wires;
  for (const Bytes& r : requests) wires.push_back(frame_request(r));

  struct ConnState {
    int fd = -1;
    bool busy = false;
    std::chrono::steady_clock::time_point sent;
    Bytes rbuf;
  };
  std::vector<ConnState> cs(conns);
  int ep = ::epoll_create1(0);
  if (ep < 0) return out;
  for (std::uint64_t i = 0; i < conns; ++i) {
    cs[i].fd = connect_loopback(port);
    if (cs[i].fd < 0) {
      std::fprintf(stderr, "connect %llu/%llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(conns),
                   std::strerror(errno));
      out.conns = i;
      return out;
    }
    ::fcntl(cs[i].fd, F_SETFL, O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, cs[i].fd, &ev);
  }
  out.conns = conns;

  const std::uint64_t inflight_cap = std::min<std::uint64_t>(64, conns);
  std::uint64_t inflight = 0;
  std::uint64_t rr = 0;       // round-robin connection cursor
  std::uint64_t req_ix = 0;   // request-payload cursor
  std::vector<double> lat_us;
  lat_us.reserve(1 << 16);

  auto issue_on = [&](ConnState& c) {
    const Bytes& w = wires[req_ix++ % wires.size()];
    std::size_t off = 0;
    while (off < w.size()) {
      ssize_t n = ::send(c.fd, w.data() + off, w.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;  // tiny frame on a fresh socket; retry momentarily
      } else {
        return false;
      }
    }
    c.busy = true;
    c.sent = std::chrono::steady_clock::now();
    inflight++;
    return true;
  };
  auto issue_next = [&] {
    for (std::uint64_t scan = 0; scan < conns; ++scan) {
      ConnState& c = cs[rr++ % conns];
      if (c.busy || c.fd < 0) continue;
      return issue_on(c);
    }
    return false;
  };

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(measure_ms);
  for (std::uint64_t i = 0; i < inflight_cap; ++i) issue_next();

  std::vector<epoll_event> evs(256);
  bool stopping = false;
  auto drain_deadline = deadline + std::chrono::seconds(5);
  while (inflight > 0 || !stopping) {
    const auto now = std::chrono::steady_clock::now();
    if (!stopping && now >= deadline) stopping = true;
    if (stopping && now >= drain_deadline) break;
    int n = ::epoll_wait(ep, evs.data(), static_cast<int>(evs.size()), 100);
    for (int e = 0; e < n; ++e) {
      ConnState& c = cs[evs[e].data.u64];
      if (c.fd < 0) continue;
      char buf[16 * 1024];
      for (;;) {
        ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.rbuf.insert(c.rbuf.end(), buf, buf + r);
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        ::close(c.fd);  // EOF or error: connection is gone
        c.fd = -1;
        if (c.busy) inflight--;
        break;
      }
      // One request in flight per connection, so at most one complete
      // reply frame is pending in rbuf.
      if (c.fd >= 0 && c.busy && c.rbuf.size() >= 4) {
        const std::uint32_t len = static_cast<std::uint32_t>(c.rbuf[0]) |
                                  (static_cast<std::uint32_t>(c.rbuf[1]) << 8) |
                                  (static_cast<std::uint32_t>(c.rbuf[2]) << 16) |
                                  (static_cast<std::uint32_t>(c.rbuf[3]) << 24);
        if (c.rbuf.size() >= 4ull + len) {
          lat_us.push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - c.sent)
                  .count());
          c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + 4 + len);
          c.busy = false;
          inflight--;
          out.requests++;
          if (!stopping) issue_next();
        }
      }
    }
  }
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  std::sort(lat_us.begin(), lat_us.end());
  out.p50_us = percentile(lat_us, 0.50);
  out.p99_us = percentile(lat_us, 0.99);
  ::close(ep);
  for (ConnState& c : cs) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return out;
}

/// Client child for the churn soak: a handful of threads each loop
/// connect -> one query round trip -> close for the measure window.
/// Exercises accept, registration, and teardown under sustained rate.
ChurnWire run_churn_client(std::uint16_t port, const Bytes& request,
                           std::uint64_t measure_ms) {
  ChurnWire out;
  const Bytes wire = frame_request(request);
  constexpr int kChurners = 8;
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::vector<double>> lat(kChurners);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(measure_ms);
  std::vector<std::thread> threads;
  for (int t = 0; t < kChurners; ++t) {
    threads.emplace_back([&, t] {
      while (std::chrono::steady_clock::now() < deadline) {
        const auto t0 = std::chrono::steady_clock::now();
        int fd = connect_loopback(port);
        if (fd < 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        bool ok = true;
        std::size_t off = 0;
        while (ok && off < wire.size()) {
          ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL);
          if (n <= 0) ok = false;
          else off += static_cast<std::size_t>(n);
        }
        Bytes rbuf;
        while (ok) {  // blocking socket: read until one full frame
          char buf[16 * 1024];
          ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
          if (r <= 0) {
            ok = false;
            break;
          }
          rbuf.insert(rbuf.end(), buf, buf + r);
          if (rbuf.size() >= 4) {
            const std::uint32_t len =
                static_cast<std::uint32_t>(rbuf[0]) |
                (static_cast<std::uint32_t>(rbuf[1]) << 8) |
                (static_cast<std::uint32_t>(rbuf[2]) << 16) |
                (static_cast<std::uint32_t>(rbuf[3]) << 24);
            if (rbuf.size() >= 4ull + len) break;
          }
        }
        ::close(fd);
        if (ok) {
          cycles.fetch_add(1, std::memory_order_relaxed);
          lat[t].push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  out.cycles = cycles.load();
  out.failures = failures.load();
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.p99_us = percentile(all, 0.99);
  return out;
}

/// Forks a client child, runs `fn` in it, and reads its POD result back
/// over a pipe. The child only touches sockets and its own memory — the
/// same fork-without-exec discipline the store test suite relies on.
template <typename Wire, typename Fn>
bool run_in_child(Wire* out, Fn fn) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    Wire w = fn();
    const char* p = reinterpret_cast<const char*>(&w);
    std::size_t off = 0;
    while (off < sizeof(w)) {
      ssize_t n = ::write(fds[1], p + off, sizeof(w) - off);
      if (n <= 0) _exit(2);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  ::close(fds[1]);
  char* p = reinterpret_cast<char*>(out);
  std::size_t off = 0;
  bool ok = true;
  while (off < sizeof(*out)) {
    ssize_t n = ::read(fds[0], p + off, sizeof(*out) - off);
    if (n <= 0) {
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Env env(argc, argv);
  print_title("Serving-engine throughput — cold vs warm cache",
              "supplementary to §VII (paper reports sizes only)");

  const std::uint32_t clients =
      static_cast<std::uint32_t>(env.flags.get_u64("clients", 8));
  const std::uint64_t measure_ms = env.flags.get_u64("measure-ms", 400);
  // Whole-profile responses grow with the chain; the per-shard budget must
  // hold the largest one or heavy addresses never cache (see
  // ShardedByteCache::put's oversize rule).
  const std::uint64_t cache_bytes = env.flags.get_u64("cache-mb", 256) << 20;
  // Admission threshold for warm cells. Default 0 (admit everything): a
  // machine that assembles under the production default would otherwise
  // bypass the cache and silently turn every warm row into a cold row.
  const std::uint64_t admit_min_us = env.flags.get_u64("admit-min-us", 0);
  const std::string out_path =
      env.flags.get_str("out", "BENCH_server.json");

  const std::uint32_t k = env.bf_hashes;
  ProtocolConfig config{Design::kLvq, BloomGeometry{30 * 1024, k}, 8};
  // Two chain states over the same workload. The cold/warm worker sweep
  // runs against the tree-walk node (--proof-index=0 semantics): "cold"
  // means every request truly regenerates its proof, which is the work
  // the warm cache amortizes — against the indexed node both regimes
  // are memory-bound on the same response bytes and the ratio says
  // nothing about the cache. The overload and connection-scaling phases
  // keep the proof index (the production configuration): their gates
  // bound absolute tail latency, which must not depend on a deliberately
  // slow cold path. --proof-index=1 restores the old single-node sweep.
  ChainBuildOptions build_opts;
  build_opts.proof_index = env.flags.get_bool("proof-index", false);
  FullNode full(env.setup.workload, env.setup.derived, config, build_opts);
  ChainBuildOptions indexed_opts;
  indexed_opts.proof_index = true;
  FullNode full_indexed(env.setup.workload, env.setup.derived, config,
                        indexed_opts);
  std::vector<Address> addrs;
  for (const AddressProfile& p : env.setup.workload->profiles) {
    addrs.push_back(p.address);
  }

  std::printf("%8s %6s %10s %12s %10s %10s %10s %8s\n", "workers", "cache",
              "requests", "qps", "p50-us", "p90-us", "p99-us", "hit%");
  std::vector<CellResult> results;
  for (std::uint32_t workers : {1u, 4u, 16u}) {
    for (bool warm : {false, true}) {
      CellResult r = run_cell(full, addrs, workers, warm, clients, measure_ms,
                              cache_bytes, admit_min_us);
      results.push_back(r);
      std::printf("%8u %6s %10llu %12.1f %10.1f %10.1f %10.1f %8.1f\n",
                  r.workers, r.warm ? "warm" : "cold",
                  static_cast<unsigned long long>(r.requests), r.qps, r.p50_us,
                  r.p90_us, r.p99_us, r.cache_hit_rate * 100.0);
      std::fflush(stdout);
    }
  }

  OverloadResult ov = run_overload(full_indexed, addrs, measure_ms);
  std::printf("%8u %6s %10llu %12.1f %10s %10.1f %10.1f %7.1f%%\n", ov.workers,
              "over", static_cast<unsigned long long>(ov.served), ov.served_qps,
              "-", ov.p50_us, ov.p99_us, ov.busy_rate * 100.0);
  std::fflush(stdout);

  // Connection-scaling phase: warm-cache queries over real sockets at 1k
  // and 10k concurrent connections, then a connection-churn soak. One
  // ReactorServer instance serves every cell so the 10k row also proves
  // the connection table survives the 1k cell's traffic.
  std::vector<std::uint64_t> scale_targets;
  {
    std::string spec = env.flags.get_str("scale-conns", "1000,10000");
    std::uint64_t cur = 0;
    bool have = false;
    for (char ch : spec + ",") {
      if (ch >= '0' && ch <= '9') {
        cur = cur * 10 + static_cast<std::uint64_t>(ch - '0');
        have = true;
      } else if (have) {
        if (cur > 0) scale_targets.push_back(cur);
        cur = 0;
        have = false;
      }
    }
  }
  std::vector<ScaleCell> scale_cells;
  ChurnWire churn;
  bool churn_ok = false;
  if (!scale_targets.empty()) {
    std::vector<Bytes> requests;
    for (const Address& a : addrs) {
      Writer w;
      QueryRequest{a}.serialize(w);
      requests.push_back(encode_envelope(
          MsgType::kQueryRequest, ByteSpan{w.data().data(), w.data().size()}));
    }
    ServingEngineOptions eopts;
    eopts.workers = 4;
    eopts.queue_depth = 256;
    eopts.cache_bytes = cache_bytes;
    eopts.cache_admit_min_us = admit_min_us;
    ServingEngine engine(full_indexed, eopts);
    for (const Bytes& r : requests) {  // pre-warm the response cache
      engine.handle(ByteSpan{r.data(), r.size()});
    }
    ReactorServerOptions ropts;
    ropts.io_threads = 1;
    ReactorServer server(
        [&engine](ConnId conn, ByteSpan req, ReactorServer::CompletionFn done) {
          engine.submit(conn, req, std::move(done));
        },
        ropts);

    std::printf("\n%12s %10s %10s %12s %10s %10s\n", "target-conns", "conns",
                "requests", "qps", "p50-us", "p99-us");
    for (std::uint64_t target : scale_targets) {
      ScaleCell cell;
      cell.target_conns = target;
      if (!run_in_child(&cell.w, [&] {
            return run_scale_client(server.port(), target, requests,
                                    measure_ms);
          })) {
        std::fprintf(stderr, "FAIL: scale client child for %llu conns\n",
                     static_cast<unsigned long long>(target));
        return 1;
      }
      scale_cells.push_back(cell);
      std::printf("%12llu %10llu %10llu %12.1f %10.1f %10.1f\n",
                  static_cast<unsigned long long>(cell.target_conns),
                  static_cast<unsigned long long>(cell.w.conns),
                  static_cast<unsigned long long>(cell.w.requests),
                  cell.qps(), cell.w.p50_us, cell.w.p99_us);
      std::fflush(stdout);
    }

    churn_ok = run_in_child(&churn, [&] {
      return run_churn_client(server.port(), requests[0], measure_ms);
    });
    if (!churn_ok) {
      std::fprintf(stderr, "FAIL: churn client child\n");
      return 1;
    }
    std::printf("%12s %10s %10llu %12.1f %10s %10.1f  (%llu failures)\n",
                "churn", "-", static_cast<unsigned long long>(churn.cycles),
                churn.elapsed_s > 0 ? churn.cycles / churn.elapsed_s : 0.0, "-",
                churn.p99_us, static_cast<unsigned long long>(churn.failures));
    std::fflush(stdout);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"server_throughput\",\n");
  std::fprintf(f, "  \"blocks\": %llu,\n",
               static_cast<unsigned long long>(env.workload_config.num_blocks));
  std::fprintf(f, "  \"clients\": %u,\n", clients);
  std::fprintf(f, "  \"measure_ms\": %llu,\n",
               static_cast<unsigned long long>(measure_ms));
  std::fprintf(f, "  \"admit_min_us\": %llu,\n",
               static_cast<unsigned long long>(admit_min_us));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"cache\": \"%s\", \"requests\": %llu, "
                 "\"qps\": %.1f, \"p50_us\": %.1f, \"p90_us\": %.1f, "
                 "\"p99_us\": %.1f, \"cache_hit_rate\": %.4f, "
                 "\"admitted\": %llu, \"bypassed\": %llu}%s\n",
                 r.workers, r.warm ? "warm" : "cold",
                 static_cast<unsigned long long>(r.requests), r.qps, r.p50_us,
                 r.p90_us, r.p99_us, r.cache_hit_rate,
                 static_cast<unsigned long long>(r.admitted),
                 static_cast<unsigned long long>(r.bypassed),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_warm_over_cold\": {");
  bool first = true;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const CellResult& cold = results[i];
    const CellResult& warm = results[i + 1];
    std::fprintf(f, "%s\"workers_%u\": %.2f", first ? "" : ", ", cold.workers,
                 cold.qps > 0 ? warm.qps / cold.qps : 0.0);
    first = false;
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"overload\": {\"workers\": %u, \"queue_depth\": %u, "
               "\"clients\": %u, \"offered\": %llu, \"served\": %llu, "
               "\"busy\": %llu, \"served_qps\": %.1f, \"p50_us\": %.1f, "
               "\"p99_us\": %.1f, \"busy_rate\": %.4f}%s\n",
               ov.workers, ov.queue_depth, ov.clients,
               static_cast<unsigned long long>(ov.offered),
               static_cast<unsigned long long>(ov.served),
               static_cast<unsigned long long>(ov.busy), ov.served_qps,
               ov.p50_us, ov.p99_us, ov.busy_rate,
               scale_cells.empty() ? "" : ",");
  if (!scale_cells.empty()) {
    std::fprintf(f, "  \"conn_scaling\": [\n");
    for (std::size_t i = 0; i < scale_cells.size(); ++i) {
      const ScaleCell& c = scale_cells[i];
      std::fprintf(f,
                   "    {\"target_conns\": %llu, \"conns\": %llu, "
                   "\"requests\": %llu, \"qps\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f}%s\n",
                   static_cast<unsigned long long>(c.target_conns),
                   static_cast<unsigned long long>(c.w.conns),
                   static_cast<unsigned long long>(c.w.requests), c.qps(),
                   c.w.p50_us, c.w.p99_us,
                   i + 1 < scale_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"churn\": {\"cycles\": %llu, \"failures\": %llu, "
                 "\"cycles_per_sec\": %.1f, \"p99_us\": %.1f}\n",
                 static_cast<unsigned long long>(churn.cycles),
                 static_cast<unsigned long long>(churn.failures),
                 churn.elapsed_s > 0 ? churn.cycles / churn.elapsed_s : 0.0,
                 churn.p99_us);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // The warm cache must never cost throughput. It used to be gated at a
  // 5x speedup, but the proof index made the cold path fast enough that a
  // fixed multiple over it is meaningless — regression tracking of the
  // absolute cold/warm numbers lives in tools/bench_check.py instead.
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    if (results[i + 1].qps < results[i].qps) {
      std::fprintf(stderr,
                   "FAIL: warm cache slower than cold at %u workers "
                   "(cold %.1f qps, warm %.1f qps)\n",
                   results[i].workers, results[i].qps, results[i + 1].qps);
      return 1;
    }
  }
  // Overload sanity: at ~4x capacity the engine must both shed (kBusy) and
  // keep serving — an engine that does only one of the two is broken.
  if (ov.served == 0 || ov.busy == 0) {
    std::fprintf(stderr,
                 "FAIL: overload cell expected both served and shed traffic "
                 "(served %llu, busy %llu)\n",
                 static_cast<unsigned long long>(ov.served),
                 static_cast<unsigned long long>(ov.busy));
    return 1;
  }
  // Scaling sanity: with offered load held fixed (same in-flight cap),
  // p99 must stay monotone-or-flat as the connection count grows — a
  // superlinear event-loop (per-event scan of the connection table, say)
  // shows up here long before it shows up in averages. The bound is
  // generous (3x or +5ms, whichever is looser) because CI runners are
  // noisy; the gate is for collapses, not jitter.
  if (scale_cells.size() >= 2) {
    const ScaleCell& lo = scale_cells.front();
    const ScaleCell& hi = scale_cells.back();
    const double ceiling =
        std::max(3.0 * lo.w.p99_us, lo.w.p99_us + 5000.0);
    if (hi.w.p99_us > ceiling) {
      std::fprintf(stderr,
                   "FAIL: p99 not monotone-or-flat across connection counts "
                   "(%llu conns: %.1f us, %llu conns: %.1f us, ceiling "
                   "%.1f us)\n",
                   static_cast<unsigned long long>(lo.w.conns), lo.w.p99_us,
                   static_cast<unsigned long long>(hi.w.conns), hi.w.p99_us,
                   ceiling);
      return 1;
    }
    if (lo.w.requests == 0 || hi.w.requests == 0 || churn.cycles == 0) {
      std::fprintf(stderr, "FAIL: connection-scaling cell served no traffic\n");
      return 1;
    }
  }
  return 0;
}
