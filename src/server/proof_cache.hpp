// Sharded byte cache with a lock-free read path, for proof serving.
//
// Proofs are immutable for a fixed (address, tip, config): the serving
// engine exploits that by caching whole encoded responses keyed by
// (epoch, request bytes). The warm path is the whole
// point of the cache, so readers take zero locks on a hit: an epoch guard
// (util/epoch.hpp) pins the reclamation epoch, bucket heads are atomic
// pointers into chains of heap nodes whose key/value bytes never change
// after publish, and the value is copied out with nothing held but the
// pin. Writers (put/clear and the eviction sweep) serialize on one mutex
// per shard and retire displaced nodes through the epoch domain, so a
// reader mid-copy keeps its node alive without reference counting and
// without ever blocking on, or being blocked by, a writer.
//
// Eviction is CLOCK/second-chance and runs entirely on the write path:
// readers mark a per-node `touched` flag (one relaxed store, skipped when
// already set), and an insert that pushes a shard over budget sweeps
// buckets from a cursor, dropping untouched entries and clearing
// survivors' flags; a second forced pass guarantees progress when
// everything is hot. The just-inserted node is never its own victim.
//
// Values are opaque byte strings. Capacity is a byte budget (keys + values
// + a fixed per-entry overhead), split evenly across shards. A capacity of
// 0 disables the cache: get() always misses and put() stores nothing, so
// callers need no special casing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/bytes.hpp"

namespace lvq {

class ShardedByteCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };

  /// `capacity_bytes` 0 disables the cache; `shards` is clamped to >= 1.
  explicit ShardedByteCache(std::uint64_t capacity_bytes,
                            std::size_t shards = 8);

  /// Drains every entry and waits for the epoch domain to reclaim them, so
  /// node memory never outlives the cache. Callers must have stopped
  /// concurrent get()/put() by now (the serving engine's worker join and
  /// drain barrier guarantee that).
  ~ShardedByteCache();

  ShardedByteCache(const ShardedByteCache&) = delete;
  ShardedByteCache& operator=(const ShardedByteCache&) = delete;

  bool enabled() const { return capacity_bytes_ > 0; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Lock-free. Pins the reclamation epoch, probes the shard's bucket
  /// chain, copies the value into `*out` with no lock held, and marks the
  /// entry recently used. Returns false (and counts a miss) when absent or
  /// disabled.
  bool get(ByteSpan key, Bytes* out);

  /// Inserts or replaces key -> value under the shard's write mutex, then
  /// runs the batched CLOCK sweep if the shard is over budget. A replace
  /// publishes a whole new node, so readers switch atomically between old
  /// and new bytes. Returns whether the entry was stored: false when the
  /// cache is disabled or the entry is too large for one shard's entire
  /// budget.
  bool put(ByteSpan key, ByteSpan value);

  /// Drops every entry (epoch invalidation). Counters survive. Readers
  /// concurrently probing keep whatever node they already reached until
  /// they unpin.
  void clear();

  Stats stats() const;

 private:
  /// Chain node. `key`/`value`/`hash` are immutable once the node is
  /// published; `next` is only written by the shard's single writer (an
  /// unlink re-points it past a retired node, which readers may still
  /// traverse safely); `touched` is the CLOCK reference bit, set by
  /// readers and cleared by the eviction sweep.
  struct Node {
    std::uint64_t hash = 0;
    std::atomic<bool> touched{false};
    std::atomic<Node*> next{nullptr};
    Bytes key;
    Bytes value;
  };

  struct Shard {
    std::vector<std::atomic<Node*>> buckets;
    std::uint64_t bucket_mask = 0;
    // Reader-side counters: relaxed, they are statistics not invariants.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    // Writer state, all under write_mu.
    mutable std::mutex write_mu;
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t clock_cursor = 0;
  };

  /// Budgeted footprint of one entry; the constant approximates node
  /// overhead so the byte cap tracks real memory, not just payload.
  static std::uint64_t entry_cost(std::size_t key_size,
                                  std::size_t value_size) {
    return key_size + value_size + 96;
  }

  Shard& shard_for(std::uint64_t hash);
  /// Unlinks `node` (whose predecessor in the chain is `prev`, or null
  /// when it heads bucket `bucket`) and retires it to the epoch domain.
  /// Caller holds write_mu.
  void unlink_locked(Shard& shard, std::size_t bucket, Node* prev,
                     Node* node);
  /// CLOCK sweep until the shard fits its budget; never evicts `keep`.
  /// Caller holds write_mu.
  void evict_to_fit_locked(Shard& shard, const Node* keep);

  std::uint64_t capacity_bytes_;
  std::uint64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lvq
