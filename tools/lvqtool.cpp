// lvqtool — command-line front end for the LVQ stack.
//
//   lvqtool gen    --out=chain.dat [--blocks=512] [--txs-per-block=40]
//                  [--seed=1] [--design=lvq] [--bf-kb=8] [--bf-hashes=10]
//                  [--segment-length=128]
//   lvqtool info   --chain=chain.dat
//   lvqtool query  --chain=chain.dat --address=1ABC... [design flags]
//   lvqtool query  --connect=PORT    --address=1ABC... [design flags]
//                  [--peers=P1,P2,..] [--timeout-ms=N] [--retries=N]
//   lvqtool proof  --chain=chain.dat --address=1ABC... --out=proof.bin
//   lvqtool verify --chain=chain.dat --address=1ABC... --proof=proof.bin
//   lvqtool serve  --chain=chain.dat [--seconds=N] [design flags]
//                  [--workers=N] [--queue-depth=N] [--cache-mb=N]
//                  [--max-conns=N]
//   lvqtool stats  --connect=PORT
//   lvqtool append --chain=chain.dat [--blocks=N] [--txs-per-block=N]
//                  [--seed=N] [design flags]
//
// `gen` builds a synthetic ledger (with the Table III profile addresses
// printed for querying) and persists it; the other commands load that
// ledger, rebuild the authenticated context, and run the full-node /
// light-node pipeline offline. `proof`+`verify` demonstrate that a query
// result is a self-contained artifact: it can be saved, shipped, and
// verified later against headers alone. `serve` fronts the full node with
// the serving engine (worker pool, proof cache, kBusy backpressure);
// `stats` queries a running server's metrics over the kStats RPC.
// `append` grows an existing ledger in place through the incremental
// ChainBuilder path (ChainContext::extend) and reports how long the
// extend took versus the cold rebuild it replaced; a running `serve`
// picks the new blocks up on SIGHUP without restarting — it extends its
// live context by the file's new tail and rebinds the engine's cache,
// reporting the rebind latency.
//
// `serve` and `append` also take --store=DIR (src/store/): the durable
// columnar store is opened or created, every build/extend writes through
// to it, and a warm start reopens the persisted context instead of
// rebuilding — O(read + decode), no re-hashing. With --store and no
// --chain, SIGHUP re-reads the store's committed tip (another process may
// have appended) and extends the live context from disk. `store-info`
// prints a store's superblock summary and optionally CRC-verifies every
// committed record (--verify).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include <memory>
#include <vector>

#include "chain/chain_io.hpp"
#include "core/chain_builder.hpp"
#include "net/failover_transport.hpp"
#include "store/disk_chain_store.hpp"
#include "net/reactor_server.hpp"
#include "net/retry_transport.hpp"
#include "net/tcp_transport.hpp"
#include "node/session.hpp"
#include "server/serving_engine.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "workload/workload.hpp"

using namespace lvq;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lvqtool <gen|info|query|proof|verify|serve|stats|"
               "append|store-info> [--flags]\n"
               "  gen    --out=FILE [--blocks=N --txs-per-block=N --seed=N]\n"
               "  info   --chain=FILE\n"
               "  query  --chain=FILE|--connect=PORT --address=ADDR\n"
               "         [--peers=P1,P2,.. --timeout-ms=N --retries=N "
               "--deadline-ms=N]\n"
               "  proof  --chain=FILE --address=ADDR --out=FILE\n"
               "  verify --chain=FILE --address=ADDR --proof=FILE\n"
               "  serve  --chain=FILE|--store=DIR [--seconds=N --workers=N "
               "--queue-depth=N\n"
               "         --cache-mb=N --cache-admit-min-us=N --max-conns=N "
               "--io-threads=N\n"
               "         --drain-grace-ms=N]\n"
               "         (--store persists the chain; a warm start reopens "
               "it without\n"
               "         rebuilding. SIGTERM/SIGINT drains in-flight "
               "requests, then exits)\n"
               "  stats  --connect=PORT\n"
               "  append --chain=FILE|--store=DIR [--blocks=N "
               "--txs-per-block=N --seed=N]\n"
               "         (SIGHUP a running serve to pick the new tail up)\n"
               "  store-info --store=DIR [--verify]\n"
               "         (prints the committed superblock summary; --verify "
               "CRC-checks\n"
               "         every committed record, including lazy segbf "
               "pages)\n"
               "design flags (gen/query/proof/verify/serve/append): "
               "--design=lvq|"
               "lvq-no-bmt|lvq-no-smt|strawman|strawman-variant\n"
               "  --bf-kb=K --bf-hashes=K --segment-length=M\n");
  return 2;
}

std::map<std::string, Design> design_names() {
  return {
      {"strawman", Design::kStrawman},
      {"strawman-variant", Design::kStrawmanVariant},
      {"lvq-no-bmt", Design::kLvqNoBmt},
      {"lvq-no-smt", Design::kLvqNoSmt},
      {"lvq", Design::kLvq},
  };
}

ProtocolConfig config_from_flags(const Flags& flags) {
  ProtocolConfig config;
  std::string name = flags.get_str("design", "lvq");
  auto names = design_names();
  auto it = names.find(name);
  if (it == names.end()) {
    std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
    std::exit(2);
  }
  config.design = it->second;
  config.bloom.size_bytes =
      static_cast<std::uint32_t>(flags.get_u64("bf-kb", 8)) * 1024;
  config.bloom.hash_count =
      static_cast<std::uint32_t>(flags.get_u64("bf-hashes", 10));
  config.segment_length =
      static_cast<std::uint32_t>(flags.get_u64("segment-length", 128));
  return config;
}

ExperimentSetup load_setup(const std::string& path) {
  ChainStore chain = load_chain(path);
  std::vector<std::vector<Transaction>> bodies;
  bodies.reserve(chain.tip_height());
  for (const auto& b : chain.blocks()) bodies.push_back(b->txs);
  return make_setup_from_blocks(std::move(bodies));
}

Address parse_address(const Flags& flags) {
  std::string text = flags.get_str("address", "");
  auto addr = Address::from_string(text);
  if (!addr) {
    std::fprintf(stderr, "bad or missing --address\n");
    std::exit(2);
  }
  return *addr;
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(static_cast<std::size_t>(size));
  if (!data.empty() && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    std::fprintf(stderr, "short read from %s\n", path.c_str());
    std::exit(2);
  }
  std::fclose(f);
  return data;
}

void write_file(const std::string& path, ByteSpan data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f || std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fclose(f);
}

int cmd_gen(const Flags& flags) {
  std::string out = flags.get_str("out", "");
  if (out.empty()) return usage();
  WorkloadConfig wc;
  wc.seed = flags.get_u64("seed", 1);
  wc.num_blocks = static_cast<std::uint32_t>(flags.get_u64("blocks", 512));
  wc.background_txs_per_block =
      static_cast<std::uint32_t>(flags.get_u64("txs-per-block", 40));
  // Scale the Table III profiles to the chain length.
  double scale = static_cast<double>(wc.num_blocks) / 4096.0;
  wc.profiles.clear();
  for (ProfileSpec p : table3_profiles()) {
    p.target_blocks = static_cast<std::uint32_t>(p.target_blocks * scale);
    p.target_txs = static_cast<std::uint32_t>(p.target_txs * scale);
    if (p.target_txs > 0 && p.target_blocks == 0) p.target_blocks = 1;
    if (p.target_txs < p.target_blocks) p.target_txs = p.target_blocks;
    wc.profiles.push_back(p);
  }

  ProtocolConfig config = config_from_flags(flags);
  ExperimentSetup setup = make_setup(wc);
  ChainContext ctx(setup.workload, setup.derived, config);
  save_chain(ctx.chain(), out);

  std::printf("wrote %llu blocks (%s) to %s [scheme %s]\n",
              static_cast<unsigned long long>(ctx.tip_height()),
              human_bytes([&] {
                std::uint64_t n = 0;
                for (const auto& b : ctx.chain().blocks()) n += b->serialized_size();
                return n;
              }()).c_str(),
              out.c_str(), header_scheme_name(config.scheme()));
  std::printf("interesting addresses:\n");
  for (const AddressProfile& p : setup.workload->profiles) {
    std::printf("  %-6s %s  (%u txs, %u blocks)\n", p.label.c_str(),
                p.address.to_string().c_str(), p.total_txs, p.total_blocks);
  }
  return 0;
}

int cmd_info(const Flags& flags) {
  std::string path = flags.get_str("chain", "");
  if (path.empty()) return usage();
  ChainStore chain = load_chain(path);
  std::uint64_t txs = 0, bytes = 0, addrs = 0;
  for (const auto& b : chain.blocks()) {
    txs += b->txs.size();
    bytes += b->serialized_size();
    addrs += b->address_counts().size();
  }
  std::printf("chain    : %llu blocks, %llu txs, %s\n",
              static_cast<unsigned long long>(chain.tip_height()),
              static_cast<unsigned long long>(txs),
              human_bytes(bytes).c_str());
  std::printf("scheme   : %s\n",
              header_scheme_name(chain.at_height(1).header.scheme));
  std::printf("avg/block: %.1f txs, %.1f unique addresses, %s\n",
              static_cast<double>(txs) / static_cast<double>(chain.tip_height()),
              static_cast<double>(addrs) / static_cast<double>(chain.tip_height()),
              human_bytes(bytes / chain.tip_height()).c_str());
  std::printf("tip hash : %s\n",
              chain.at_height(chain.tip_height()).header.hash().hex().c_str());
  return 0;
}

int print_query_result(const Address& address,
                       const LightNode::QueryResult& result) {
  if (!result.outcome.ok) {
    std::printf("verification FAILED: %s (%s)\n",
                verify_error_name(result.outcome.error),
                result.outcome.detail.c_str());
    return 1;
  }
  const VerifiedHistory& h = result.outcome.history;
  std::printf("address  : %s\n", address.to_string().c_str());
  std::printf("verified : %llu txs in %zu blocks (complete: %s)\n",
              static_cast<unsigned long long>(h.total_txs()), h.blocks.size(),
              h.fully_complete() ? "yes" : "no");
  std::printf("balance  : %s\n", format_amount(h.balance()).c_str());
  std::printf("proof    : %s over the wire\n",
              human_bytes(result.response_bytes).c_str());
  return 0;
}

int cmd_query(const Flags& flags, bool save_proof) {
  Address address = parse_address(flags);
  ProtocolConfig config = config_from_flags(flags);

  std::uint64_t port = flags.get_u64("connect", 0);
  std::string peers_csv = flags.get_str("peers", "");
  if ((port != 0 || !peers_csv.empty()) && !save_proof) {
    // Remote mode: sync headers and query over real sockets, with
    // per-round-trip deadlines, bounded retries, and multi-peer failover.
    std::vector<std::uint16_t> ports;
    if (port != 0) ports.push_back(static_cast<std::uint16_t>(port));
    for (std::size_t pos = 0; pos < peers_csv.size();) {
      std::size_t comma = peers_csv.find(',', pos);
      if (comma == std::string::npos) comma = peers_csv.size();
      std::string tok = peers_csv.substr(pos, comma - pos);
      if (!tok.empty()) {
        char* end = nullptr;
        unsigned long v = std::strtoul(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || v == 0 || v > 65535) {
          std::fprintf(stderr, "bad --peers entry '%s' (want a port 1-65535)\n",
                       tok.c_str());
          return 1;
        }
        ports.push_back(static_cast<std::uint16_t>(v));
      }
      pos = comma + 1;
    }

    TcpTransportOptions topts;
    topts.io_timeout_ms =
        static_cast<std::uint32_t>(flags.get_u64("timeout-ms", 5'000));
    RetryPolicy policy;
    policy.max_attempts =
        static_cast<std::uint32_t>(flags.get_u64("retries", 2)) + 1;
    // One total budget across every attempt (and propagated to the server
    // in a kDeadline envelope) instead of a fresh timeout per retry; 0
    // keeps the per-attempt-only behaviour.
    policy.total_budget_ms =
        static_cast<std::uint32_t>(flags.get_u64("deadline-ms", 0));

    std::vector<std::unique_ptr<TcpTransport>> sockets;
    std::vector<std::unique_ptr<RetryTransport>> retriers;
    std::vector<Transport*> peers;
    for (std::uint16_t p : ports) {
      try {
        sockets.push_back(std::make_unique<TcpTransport>(p, topts));
        retriers.push_back(
            std::make_unique<RetryTransport>(*sockets.back(), policy));
        peers.push_back(retriers.back().get());
      } catch (const TransportError& e) {
        std::fprintf(stderr, "peer 127.0.0.1:%u unreachable (%s), skipping\n",
                     p, e.what());
      }
    }
    if (peers.empty()) {
      std::fprintf(stderr, "no reachable peers\n");
      return 1;
    }

    FailoverTransport failover(peers);
    LightNode light(config);
    if (!light.sync_headers(failover)) {
      std::fprintf(stderr, "header sync failed: every peer timed out, "
                           "disconnected, or replied with headers that do not "
                           "verify (design flags must match the server's)\n");
      return 1;
    }
    std::printf("synced   : %llu headers (%s) from %zu peer%s\n",
                static_cast<unsigned long long>(light.tip_height()),
                human_bytes(light.header_storage_bytes()).c_str(),
                peers.size(), peers.size() == 1 ? "" : "s");
    auto res = light.query_any(peers, address);
    if (peers.size() > 1) {
      std::printf("peer     : #%zu answered (%zu tried, %zu wire failures, "
                  "%zu proofs rejected)\n",
                  res.peer_index, res.peers_tried, res.transport_failures,
                  res.rejected_proofs);
    }
    return print_query_result(address, res.result);
  }

  std::string path = flags.get_str("chain", "");
  if (path.empty()) return usage();
  ExperimentSetup setup = load_setup(path);
  QuerySession session(setup, config);

  if (save_proof) {
    std::string out = flags.get_str("out", "");
    if (out.empty()) return usage();
    QueryResponse resp = session.full_node().query(address);
    Writer w;
    resp.serialize(w);
    write_file(out, ByteSpan{w.data().data(), w.data().size()});
    std::printf("wrote %s proof (%s) to %s\n", design_name(config.design),
                human_bytes(w.size()).c_str(), out.c_str());
    return 0;
  }

  return print_query_result(address, session.query(address));
}

double millis_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

volatile std::sig_atomic_t g_sighup = 0;
void on_sighup(int) { g_sighup = 1; }

volatile std::sig_atomic_t g_shutdown = 0;
void on_shutdown(int) { g_shutdown = 1; }

/// SIGHUP refresh for `serve`: reloads the ledger file, verifies it is a
/// strict extension of what is being served, extends the live context by
/// the new tail (O(new blocks)), and rebinds the engine's cache. When a
/// store is attached the extension writes through to it, so the new tail
/// is durable before the engine starts serving it.
void refresh_from_file(const std::string& path, FullNode& full,
                       ServingEngine& engine, DiskChainStore* store) {
  ChainStore reloaded = load_chain(path);
  const std::uint64_t tip = full.tip_height();
  if (reloaded.tip_height() < tip) {
    std::fprintf(stderr, "refresh: %s has %llu blocks, serving %llu — "
                         "not an extension, ignoring\n",
                 path.c_str(),
                 static_cast<unsigned long long>(reloaded.tip_height()),
                 static_cast<unsigned long long>(tip));
    return;
  }
  // The merkle root is scheme-independent, so it checks body identity even
  // when the file was generated under different design flags.
  if (reloaded.at_height(tip).header.merkle_root !=
      full.context()->chain().at_height(tip).header.merkle_root) {
    std::fprintf(stderr, "refresh: %s diverges from the served chain at "
                         "height %llu, ignoring\n",
                 path.c_str(), static_cast<unsigned long long>(tip));
    return;
  }
  if (reloaded.tip_height() == tip) {
    std::printf("refresh: no new blocks in %s\n", path.c_str());
    std::fflush(stdout);
    return;
  }
  std::vector<std::vector<Transaction>> tail;
  tail.reserve(reloaded.tip_height() - tip);
  for (std::uint64_t h = tip + 1; h <= reloaded.tip_height(); ++h) {
    tail.push_back(reloaded.at_height(h).txs);
  }
  const auto t0 = std::chrono::steady_clock::now();
  ChainBuildOptions bopts;
  bopts.store = store;
  full.append_blocks(std::move(tail), bopts);
  const double extend_ms = millis_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  engine.rebind();
  std::printf("refresh: extended %llu -> %llu (extend %.2f ms, "
              "rebind %.2f ms)\n",
              static_cast<unsigned long long>(tip),
              static_cast<unsigned long long>(full.tip_height()), extend_ms,
              millis_since(t1));
  std::fflush(stdout);
}

/// SIGHUP refresh for a store-only `serve` (no --chain): re-reads the
/// store's committed tip with a fresh read-only handle — another process
/// (`lvqtool append --store`) may have appended — and extends the live
/// context in RAM. No write-through: the blocks are already durable.
void refresh_from_store(const std::string& dir, const ProtocolConfig& config,
                        FullNode& full, ServingEngine& engine) {
  DiskChainStore::Options ro_opts;
  ro_opts.read_only = true;
  auto ro = DiskChainStore::open(dir, config, ro_opts);
  const std::uint64_t tip = full.tip_height();
  if (ro->tip_height() < tip) {
    std::fprintf(stderr, "refresh: store %s committed at %llu, serving %llu "
                         "— not an extension, ignoring\n",
                 dir.c_str(),
                 static_cast<unsigned long long>(ro->tip_height()),
                 static_cast<unsigned long long>(tip));
    return;
  }
  if (ro->tip_height() == tip) {
    std::printf("refresh: no new blocks in %s\n", dir.c_str());
    std::fflush(stdout);
    return;
  }
  auto fresh = ro->load_context();
  if (fresh->chain().at_height(tip).header.merkle_root !=
      full.context()->chain().at_height(tip).header.merkle_root) {
    std::fprintf(stderr, "refresh: store %s diverges from the served chain "
                         "at height %llu, ignoring\n",
                 dir.c_str(), static_cast<unsigned long long>(tip));
    return;
  }
  std::vector<std::vector<Transaction>> tail;
  tail.reserve(fresh->tip_height() - tip);
  for (std::uint64_t h = tip + 1; h <= fresh->tip_height(); ++h) {
    tail.push_back(fresh->chain().at_height(h).txs);
  }
  const auto t0 = std::chrono::steady_clock::now();
  full.append_blocks(std::move(tail));
  const double extend_ms = millis_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  engine.rebind();
  std::printf("refresh: extended %llu -> %llu from store (extend %.2f ms, "
              "rebind %.2f ms)\n",
              static_cast<unsigned long long>(tip),
              static_cast<unsigned long long>(full.tip_height()), extend_ms,
              millis_since(t1));
  std::fflush(stdout);
}

int cmd_serve(const Flags& flags) {
  std::string path = flags.get_str("chain", "");
  std::string store_dir = flags.get_str("store", "");
  if (path.empty() && store_dir.empty()) return usage();
  ProtocolConfig config = config_from_flags(flags);

  std::unique_ptr<DiskChainStore> store;
  std::shared_ptr<const ChainContext> ctx;
  if (!store_dir.empty()) {
    store = DiskChainStore::open(store_dir, config);
    if (store->tip_height() > 0) {
      const auto t0 = std::chrono::steady_clock::now();
      ctx = store->load_context();
      std::printf("reopened %s: %llu blocks in %.2f ms (sealed node-BFs "
                  "mmap-lazy, no rehashing)\n",
                  store_dir.c_str(),
                  static_cast<unsigned long long>(ctx->tip_height()),
                  millis_since(t0));
    }
  }
  if (!ctx) {
    if (path.empty()) {
      std::fprintf(stderr, "store %s is empty — pass --chain=FILE to seed "
                           "it\n",
                   store_dir.c_str());
      return 2;
    }
    ExperimentSetup setup = load_setup(path);
    ChainBuildOptions bopts;
    bopts.store = store.get();
    ctx = ChainBuilder::build(setup.workload, setup.derived, config, bopts);
  }
  // A store-only server never writes again; drop the read-write handle so
  // `lvqtool append --store` in another process can become the writer, and
  // SIGHUP can pick its commits up through fresh read-only opens.
  if (path.empty()) store.reset();
  FullNode full(ctx);

  ServingEngineOptions eopts;
  eopts.workers = static_cast<std::uint32_t>(flags.get_u64("workers", 4));
  eopts.queue_depth =
      static_cast<std::uint32_t>(flags.get_u64("queue-depth", 64));
  eopts.cache_bytes = flags.get_u64("cache-mb", 64) << 20;
  // Cost-aware admission threshold; 0 caches every cacheable reply.
  eopts.cache_admit_min_us =
      flags.get_u64("cache-admit-min-us", eopts.cache_admit_min_us);
  ServingEngine engine(full, eopts);

  ReactorServerOptions sopts;
  sopts.max_connections =
      static_cast<std::uint32_t>(flags.get_u64("max-conns", 0));
  sopts.io_threads =
      static_cast<std::uint32_t>(flags.get_u64("io-threads", 1));
  // Socket-layer incidents (slow-loris closes, drain completions,
  // backpressure sheds) land in the same kStats snapshot as the engine's
  // counters.
  sopts.events = &engine.metrics();
  // The async path end to end: the epoll loop parses a frame, submit()
  // queues it on the worker pool, and the completion marshals the reply
  // back to the owning loop — no thread ever blocks per connection.
  ReactorServer server(
      [&engine](ConnId conn, ByteSpan req, ReactorServer::CompletionFn done) {
        engine.submit(conn, req, std::move(done));
      },
      sopts);
  std::printf("serving %llu blocks [%s] on 127.0.0.1:%u "
              "(%u workers, queue %u, cache %s, %u io threads; "
              "SIGHUP reloads %s)\n",
              static_cast<unsigned long long>(full.tip_height()),
              design_name(config.design), server.port(), eopts.workers,
              eopts.queue_depth, human_bytes(eopts.cache_bytes).c_str(),
              sopts.io_threads,
              path.empty() ? store_dir.c_str() : path.c_str());
  std::fflush(stdout);
  std::signal(SIGHUP, on_sighup);
  std::signal(SIGTERM, on_shutdown);
  std::signal(SIGINT, on_shutdown);

  std::uint64_t seconds = flags.get_u64("seconds", 0);
  const std::uint32_t drain_grace_ms =
      static_cast<std::uint32_t>(flags.get_u64("drain-grace-ms", 5'000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (g_shutdown) break;
    if (g_sighup) {
      g_sighup = 0;
      try {
        if (!path.empty()) {
          refresh_from_file(path, full, engine, store.get());
        } else {
          refresh_from_store(store_dir, config, full, engine);
        }
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "refresh failed: %s\n", e.what());
      }
    }
    if (seconds != 0 && std::chrono::steady_clock::now() >= deadline) break;
  }
  // Orderly exit on SIGTERM/SIGINT or deadline: stop accepting, let
  // in-flight requests finish their frames within the grace period, then
  // hard-stop whatever remains. No client ever sees a half-written reply
  // from a graceful shutdown.
  std::printf("draining (grace %u ms)...\n", drain_grace_ms);
  std::fflush(stdout);
  server.drain(drain_grace_ms);
  MetricsSnapshot final_stats = engine.snapshot();
  std::printf("drained: %llu requests completed during grace\n",
              static_cast<unsigned long long>(final_stats.drain_completed));
  engine.stop();
  return 0;
}

int cmd_append(const Flags& flags) {
  std::string path = flags.get_str("chain", "");
  std::string store_dir = flags.get_str("store", "");
  if (path.empty() && store_dir.empty()) return usage();
  ProtocolConfig config = config_from_flags(flags);

  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<DiskChainStore> store;
  std::shared_ptr<const ChainContext> ctx;
  bool warm = false;
  if (!store_dir.empty()) {
    store = DiskChainStore::open(store_dir, config);
    if (store->tip_height() > 0) {
      ctx = store->load_context();
      warm = true;
    }
  }
  if (!ctx) {
    if (path.empty()) {
      std::fprintf(stderr, "store %s is empty — pass --chain=FILE to seed "
                           "it\n",
                   store_dir.c_str());
      return 2;
    }
    ExperimentSetup setup = load_setup(path);
    ChainBuildOptions bopts;
    bopts.store = store.get();
    ctx = ChainBuilder::build(setup.workload, setup.derived, config, bopts);
  }
  const double build_ms = millis_since(t0);
  FullNode full(ctx);
  const std::uint64_t old_tip = full.tip_height();

  WorkloadConfig wc;
  // Offset the seed by the tip so successive appends produce fresh blocks.
  wc.seed = flags.get_u64("seed", 1) + old_tip;
  wc.num_blocks = static_cast<std::uint32_t>(flags.get_u64("blocks", 16));
  wc.background_txs_per_block =
      static_cast<std::uint32_t>(flags.get_u64("txs-per-block", 40));
  wc.profiles.clear();
  Workload extra = generate_workload(wc);

  const auto t1 = std::chrono::steady_clock::now();
  ChainBuildOptions extend_opts;
  extend_opts.store = store.get();
  full.append_blocks(std::move(extra.blocks), extend_opts);
  const double extend_ms = millis_since(t1);
  if (!path.empty()) save_chain(full.context()->chain(), path);

  std::printf("appended %llu blocks: tip %llu -> %llu [%s]\n",
              static_cast<unsigned long long>(full.tip_height() - old_tip),
              static_cast<unsigned long long>(old_tip),
              static_cast<unsigned long long>(full.tip_height()),
              design_name(config.design));
  std::printf("extend   : %.2f ms incremental (%s of the %llu-"
              "block base took %.2f ms)\n",
              extend_ms, warm ? "warm store reopen" : "cold rebuild",
              static_cast<unsigned long long>(old_tip), build_ms);
  std::printf("tip hash : %s\n",
              full.context()
                  ->chain()
                  .at_height(full.tip_height())
                  .header.hash()
                  .hex()
                  .c_str());
  if (store) {
    std::printf("store    : committed tip %llu, %s on disk\n",
                static_cast<unsigned long long>(store->tip_height()),
                human_bytes(store->info().total_bytes).c_str());
  }
  return 0;
}

int cmd_store_info(const Flags& flags) {
  std::string dir = flags.get_str("store", "");
  if (dir.empty()) return usage();
  // peek() reads the superblock alone, so store-info needs no design
  // flags — the store says which ProtocolConfig it was built under.
  DiskChainStore::Info info = DiskChainStore::peek(dir);
  std::printf("store    : %s (format v%u, commit seq %llu)\n", dir.c_str(),
              info.version, static_cast<unsigned long long>(info.seqno));
  std::printf("design   : %s (bf %u KiB x %u hashes, segment length %u)\n",
              design_name(info.config.design),
              info.config.bloom.size_bytes / 1024,
              info.config.bloom.hash_count, info.config.segment_length);
  std::printf("tip      : height %llu, hash %s\n",
              static_cast<unsigned long long>(info.tip_height),
              info.tip_hash.hex().c_str());
  for (const auto& c : info.columns) {
    std::printf("  %-12s %8llu records  %10s\n", c.name.c_str(),
                static_cast<unsigned long long>(c.records),
                human_bytes(c.bytes).c_str());
  }
  std::printf("total    : %s on disk\n", human_bytes(info.total_bytes).c_str());
  if (flags.get_bool("verify", false)) {
    DiskChainStore::Options ro_opts;
    ro_opts.read_only = true;
    auto store = DiskChainStore::open(dir, info.config, ro_opts);
    std::string err;
    if (!store->verify_checksums(&err)) {
      std::printf("checksums: FAILED — %s\n", err.c_str());
      return 1;
    }
    std::printf("checksums: OK (every committed record, all columns)\n");
  }
  return 0;
}

int cmd_stats(const Flags& flags) {
  std::uint64_t port = flags.get_u64("connect", 0);
  if (port == 0 || port > 65535) return usage();
  TcpTransportOptions topts;
  topts.io_timeout_ms =
      static_cast<std::uint32_t>(flags.get_u64("timeout-ms", 5'000));
  TcpTransport transport(static_cast<std::uint16_t>(port), topts);
  Bytes req = encode_envelope(MsgType::kStatsRequest, {});
  Bytes reply = transport.round_trip(ByteSpan{req.data(), req.size()});
  auto [type, payload] = decode_envelope(ByteSpan{reply.data(), reply.size()});
  if (type != MsgType::kStatsResponse) {
    std::fprintf(stderr, "peer does not speak kStats (reply type %u) — "
                         "is it running behind the serving engine?\n",
                 static_cast<unsigned>(type));
    return 1;
  }
  Reader r(payload);
  MetricsSnapshot snap = MetricsSnapshot::deserialize(r);
  r.expect_done();
  std::printf("%s", snap.to_text().c_str());
  return 0;
}

int cmd_verify(const Flags& flags) {
  std::string path = flags.get_str("chain", "");
  std::string proof_path = flags.get_str("proof", "");
  if (path.empty() || proof_path.empty()) return usage();
  Address address = parse_address(flags);
  ProtocolConfig config = config_from_flags(flags);

  // The light node only needs headers; derive them from the ledger here
  // (a deployed client would have synced them long ago).
  ExperimentSetup setup = load_setup(path);
  FullNode full(setup.workload, setup.derived, config);
  LightNode light(config);
  light.set_headers(full.headers());

  Bytes blob = read_file(proof_path);
  try {
    Reader r(ByteSpan{blob.data(), blob.size()});
    QueryResponse resp = QueryResponse::deserialize(r, config);
    VerifyOutcome out = light.verify(address, resp);
    if (!out.ok) {
      std::printf("REJECTED: %s (%s)\n", verify_error_name(out.error),
                  out.detail.c_str());
      return 1;
    }
    std::printf("OK: %llu txs in %zu blocks, balance %s, complete: %s\n",
                static_cast<unsigned long long>(out.history.total_txs()),
                out.history.blocks.size(),
                format_amount(out.history.balance()).c_str(),
                out.history.fully_complete() ? "yes" : "no");
    return 0;
  } catch (const SerializeError& e) {
    std::printf("REJECTED: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  Flags flags(argc, argv);
  try {
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "info") return cmd_info(flags);
    if (cmd == "query") return cmd_query(flags, /*save_proof=*/false);
    if (cmd == "proof") return cmd_query(flags, /*save_proof=*/true);
    if (cmd == "verify") return cmd_verify(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "stats") return cmd_stats(flags);
    if (cmd == "append") return cmd_append(flags);
    if (cmd == "store-info") return cmd_store_info(flags);
  } catch (const std::runtime_error& e) {  // includes SerializeError
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
