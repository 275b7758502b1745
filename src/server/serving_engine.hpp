// Query-serving engine: the layer between a ReactorServer (or any
// transport front end) and a FullNode.
//
// The engine owns queueing, shedding, deadlines, one response cache and
// metrics; the backend — FullNode::handle_message in node mode — owns
// every proof byte. Three concerns, each missing from the bare
// thread-per-connection server:
//
//  * Bounded concurrency — a fixed-size worker pool executes requests; a
//    bounded queue absorbs bursts; past that the engine sheds load with a
//    kBusy envelope instead of stacking up threads or latency without
//    limit. RetryTransport treats kBusy as retryable, so well-behaved
//    clients back off and come back.
//
//  * Proof reuse — proofs are immutable for a fixed (address, tip,
//    config), so the engine keeps a sharded lock-free-read cache of whole
//    encoded replies keyed by (epoch, request bytes). Admission is
//    cost-aware — only replies whose measured assembly time cleared
//    `cache_admit_min_us` are stored, so sub-threshold indexed cold
//    builds do not evict entries that actually amortize work — and a
//    reply too large for a cache shard is counted as bypassed, not
//    admitted.
//
//  * Observability — every request feeds a ServerMetrics registry
//    (counters + latency histogram) served inline via the kStats RPC and
//    `lvqtool stats`.
//
// Cached and freshly built replies are byte-identical by construction: a
// cache entry is a stored copy of a backend reply.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/message.hpp"
#include "node/full_node.hpp"
#include "server/metrics.hpp"
#include "server/proof_cache.hpp"

namespace lvq {

struct ServingEngineOptions {
  /// Worker threads executing requests. Clamped to >= 1.
  std::uint32_t workers = 4;
  /// Requests allowed to wait beyond the ones being executed. A request
  /// arriving with the queue full and no idle worker is shed with kBusy.
  /// 0 means "no waiting": at most `workers` requests in flight.
  std::uint32_t queue_depth = 64;
  /// Response-cache budget in bytes; 0 disables the cache.
  std::uint64_t cache_bytes = 64ull << 20;
  /// Lock shards of the response cache. A reply larger than one shard's
  /// share of `cache_bytes` is never stored.
  std::uint32_t cache_shards = 8;
  /// Priority-aware degradation: once no worker is idle and the queue is
  /// at least this fraction full, bulk requests (batch/range/multi/full
  /// header sync) are shed with kBusy while interactive traffic (single
  /// queries, headers-since, stats) keeps the remaining queue space — under
  /// overload the cheap latency-sensitive requests survive longest.
  /// >= 1.0 disables the early shedding.
  double bulk_shed_fraction = 0.5;
  /// Cost-aware response-cache admission: a served cacheable reply is
  /// stored only when its measured assembly time (queue wait excluded —
  /// the clock starts when a worker picks the request up) is at least this
  /// many microseconds. The default keeps sub-millisecond indexed cold
  /// builds out of the cache — recomputing them costs less than the
  /// eviction pressure they exert — while anything slow enough to matter
  /// is admitted. 0 admits everything that fits a shard.
  std::uint64_t cache_admit_min_us = 1000;
};

/// Identifies the connection a request arrived on (same alias as in
/// net/reactor_server.hpp; redeclared so this header stays independent of
/// the socket layer). The engine itself treats it as opaque.
using ConnId = std::uint64_t;

class ServingEngine {
 public:
  using Handler = std::function<Bytes(ByteSpan)>;
  /// Delivers the reply for one submitted request. Always invoked exactly
  /// once — inline (stats, cache hits, sheds), from a worker thread, or
  /// with kBusy during stop() for jobs that never reached a worker.
  using CompletionFn = std::function<void(Bytes reply)>;

  /// Serves `node` (non-owning; must outlive the engine or be swapped out
  /// via rebind before destruction) through FullNode::handle_message.
  explicit ServingEngine(const FullNode& node,
                         ServingEngineOptions options = {});

  /// Generic mode: pool + queue + metrics + response cache over an
  /// arbitrary handler (tests, non-FullNode backends).
  explicit ServingEngine(Handler backend, ServingEngineOptions options = {});

  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Blocking RPC entry point, safe to call from any number of threads
  /// (loopback transports, tests). kStats requests and
  /// response-cache hits are answered inline; everything else runs on the
  /// worker pool, or comes back as a kBusy envelope when the queue is
  /// full. After stop(), every request is answered kBusy.
  ///
  /// A request wrapped in a kDeadline envelope (PROTOCOL.md §7) is peeled
  /// before caching/dispatch — cache keys and replies depend only on the
  /// inner request, so wrapped and bare forms are byte-identical — and the
  /// budget becomes a server-side deadline: a job still queued past it is
  /// dropped with kExpired, and a reply that finishes past it is answered
  /// kExpired and not cached.
  Bytes handle(ByteSpan request);

  /// Non-blocking entry point for the reactor server: everything handle()
  /// does, but the reply is delivered through `done` instead of a blocking
  /// future. Fast cases (kStats, response-cache hits, sheds, malformed
  /// deadline envelopes) invoke `done` inline before returning; queued
  /// work invokes it later from a worker thread. `done` is called exactly
  /// once in every path, including stop(). `request` is only read during
  /// the call — the caller's buffer can be reused immediately. `conn_id`
  /// is carried opaquely (reserved for per-conn accounting).
  void submit(ConnId conn_id, ByteSpan request, CompletionFn done);

  /// Points the engine at a new chain state (tip advanced, reorg, or an
  /// entirely different node). Waits for in-flight requests to drain,
  /// bumps the cache epoch — every cached response keys on the epoch, so
  /// the whole response cache is invalidated atomically — and clears it.
  void rebind(const FullNode& node);

  /// Re-reads the bound node's current tip after it grew in place (e.g.
  /// FullNode::append_blocks). Same epoch/drain semantics as rebind(node);
  /// requires FullNode mode. Cost is O(1) plus the drain — the node's
  /// append already did the incremental derivation.
  void rebind();

  /// Epoch bump without changing nodes (manual invalidation).
  void invalidate();

  /// Full metrics snapshot, including gauges and cache stats. This is the
  /// kStatsResponse payload.
  MetricsSnapshot snapshot() const;

  /// The live registry — also a TcpServerEvents sink, so a fronting
  /// ReactorServer can report slow-loris closes, drain completions, and
  /// backpressure sheds into the same snapshot (wire it via
  /// ReactorServerOptions::events).
  ServerMetrics& metrics() { return metrics_; }

  /// Stops workers and unblocks queued callers with kBusy. Idempotent;
  /// also called by the destructor.
  void stop();

  const ServingEngineOptions& options() const { return options_; }

 private:
  struct Job {
    Bytes request;  // inner request, deadline wrapper already peeled
    netio::Deadline deadline = netio::kNoDeadline;
    /// Finishes metrics for the request and hands the reply to the
    /// submitter. Invoked exactly once: by a worker, or by stop() with
    /// kBusy for jobs that never reached one.
    CompletionFn complete;
  };

  void start_workers();
  void worker_loop();
  /// Executes one request on a worker: runs the backend, answers kExpired
  /// (uncached) if `deadline` passed meanwhile, then makes the cost-aware
  /// response-cache admission decision.
  Bytes process(ByteSpan request, netio::Deadline deadline);
  static bool bulk_request(std::uint8_t type);
  /// Response-cache key: epoch prefix + raw request bytes. Lock-free —
  /// the epoch pair is read from atomics; a torn (generation, tip) read
  /// during a rebind can only build a key nothing was ever stored under
  /// (generations never repeat), i.e. a spurious miss, never a stale hit.
  Bytes response_cache_key(ByteSpan request) const;
  static bool cacheable_request(std::uint8_t type);

  Handler backend_;
  const FullNode* node_;  // null in generic mode
  ServingEngineOptions options_;
  ShardedByteCache response_cache_;
  ServerMetrics metrics_;

  /// Guards node_ and serializes epoch transitions. Shared-held for the
  /// duration of request execution, so rebind() (unique) doubles as a
  /// drain barrier. The warm path does NOT take it: the epoch pair itself
  /// lives in atomics so cache-hit readers stay lock-free.
  mutable std::shared_mutex epoch_mu_;
  std::atomic<std::uint64_t> epoch_tip_{0};
  std::atomic<std::uint64_t> epoch_generation_{0};

  mutable std::mutex mu_;  // guards queue_, idle_workers_, stopping_
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Job>> queue_;
  std::size_t idle_workers_ = 0;
  bool stopping_ = false;
  std::atomic<std::uint64_t> in_flight_{0};
  std::vector<std::thread> threads_;
};

}  // namespace lvq
