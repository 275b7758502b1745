#include "server/proof_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/epoch.hpp"

namespace lvq {

namespace {

/// FNV-1a 64. Proof cache keys are trusted bytes built by the engine (the
/// attacker-controlled request is only a suffix), so a seedless hash is
/// fine here; flooding one shard costs the attacker nothing more than
/// flooding the whole cache.
std::uint64_t fnv1a(ByteSpan data) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

bool key_matches(const Bytes& stored, ByteSpan key) {
  return stored.size() == key.size() &&
         std::equal(stored.begin(), stored.end(), key.begin());
}

/// Rough per-entry footprint used to size the bucket array: enough buckets
/// that chains stay short at full capacity, clamped so a tiny test cache
/// does not allocate a page of heads and a huge one does not allocate
/// megabytes of empty slots.
std::size_t bucket_count_for(std::uint64_t shard_capacity) {
  const std::uint64_t target = shard_capacity / 2048;
  const std::uint64_t clamped =
      std::clamp<std::uint64_t>(target, 16, std::uint64_t{1} << 16);
  return static_cast<std::size_t>(std::bit_ceil(clamped));
}

}  // namespace

ShardedByteCache::ShardedByteCache(std::uint64_t capacity_bytes,
                                   std::size_t shards)
    : capacity_bytes_(capacity_bytes) {
  if (shards == 0) shards = 1;
  shard_capacity_ = capacity_bytes_ / shards;
  if (capacity_bytes_ > 0 && shard_capacity_ == 0) shard_capacity_ = 1;
  const std::size_t buckets =
      capacity_bytes_ > 0 ? bucket_count_for(shard_capacity_) : 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->buckets = std::vector<std::atomic<Node*>>(buckets);
    shard->bucket_mask = buckets - 1;
    shards_.push_back(std::move(shard));
  }
}

ShardedByteCache::~ShardedByteCache() {
  clear();
  // Our retired nodes must not outlive this object: wait for any reader
  // still pinned at an older epoch (there should be none — see header).
  EpochDomain::instance().synchronize();
}

ShardedByteCache::Shard& ShardedByteCache::shard_for(std::uint64_t hash) {
  return *shards_[hash % shards_.size()];
}

bool ShardedByteCache::get(ByteSpan key, Bytes* out) {
  if (!enabled()) return false;
  const std::uint64_t h = fnv1a(key);
  Shard& shard = shard_for(h);
  {
    EpochDomain::Guard guard;
    const std::size_t bucket = h & shard.bucket_mask;
    for (Node* node = shard.buckets[bucket].load(); node != nullptr;
         node = node->next.load()) {
      if (node->hash != h || !key_matches(node->key, key)) continue;
      // CLOCK reference bit; skip the store when already set so a hot
      // entry costs readers nothing but a load.
      if (!node->touched.load(std::memory_order_relaxed)) {
        node->touched.store(true, std::memory_order_relaxed);
      }
      if (out) out->assign(node->value.begin(), node->value.end());
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool ShardedByteCache::put(ByteSpan key, ByteSpan value) {
  if (!enabled()) return false;
  const std::uint64_t cost = entry_cost(key.size(), value.size());
  if (cost > shard_capacity_) return false;  // would evict the whole shard
  const std::uint64_t h = fnv1a(key);
  Shard& shard = shard_for(h);
  std::lock_guard<std::mutex> lock(shard.write_mu);
  const std::size_t bucket = h & shard.bucket_mask;

  // Replace = unlink the old node, publish a fresh one: readers switch
  // atomically between complete values, never a torn mix. (Responses are
  // deterministic so a same-key overwrite only happens across epochs,
  // where the key changes too — but stay correct if a caller overwrites
  // anyway.)
  bool replaced = false;
  Node* prev = nullptr;
  for (Node* node = shard.buckets[bucket].load(std::memory_order_relaxed);
       node != nullptr; node = node->next.load(std::memory_order_relaxed)) {
    if (node->hash == h && key_matches(node->key, key)) {
      unlink_locked(shard, bucket, prev, node);
      replaced = true;
      break;
    }
    prev = node;
  }

  Node* fresh = new Node();
  fresh->hash = h;
  fresh->key.assign(key.begin(), key.end());
  fresh->value.assign(value.begin(), value.end());
  fresh->next.store(shard.buckets[bucket].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  shard.buckets[bucket].store(fresh);  // seq_cst publish
  shard.bytes += cost;
  shard.entries += 1;
  if (!replaced) shard.insertions += 1;
  if (shard.bytes > shard_capacity_) evict_to_fit_locked(shard, fresh);
  return true;
}

void ShardedByteCache::unlink_locked(Shard& shard, std::size_t bucket,
                                     Node* prev, Node* node) {
  Node* next = node->next.load(std::memory_order_relaxed);
  if (prev != nullptr) {
    prev->next.store(next);  // seq_cst: unlink precedes the epoch bump
  } else {
    shard.buckets[bucket].store(next);
  }
  shard.bytes -= entry_cost(node->key.size(), node->value.size());
  shard.entries -= 1;
  EpochDomain::instance().retire(
      node, [](void* p) noexcept { delete static_cast<Node*>(p); });
}

void ShardedByteCache::evict_to_fit_locked(Shard& shard, const Node* keep) {
  const std::size_t buckets = shard.buckets.size();
  // Pass 0 honors the reference bit (clearing it in passing); pass 1 is
  // forced so a shard where every entry is hot still makes room.
  for (int pass = 0; pass < 2 && shard.bytes > shard_capacity_; ++pass) {
    const bool force = pass == 1;
    for (std::size_t step = 0;
         step < buckets && shard.bytes > shard_capacity_; ++step) {
      const std::size_t bucket = shard.clock_cursor++ & shard.bucket_mask;
      Node* prev = nullptr;
      Node* node = shard.buckets[bucket].load(std::memory_order_relaxed);
      while (node != nullptr && shard.bytes > shard_capacity_) {
        Node* next = node->next.load(std::memory_order_relaxed);
        if (node == keep ||
            (!force && node->touched.load(std::memory_order_relaxed))) {
          node->touched.store(false, std::memory_order_relaxed);
          prev = node;
        } else {
          unlink_locked(shard, bucket, prev, node);
          shard.evictions += 1;
        }
        node = next;
      }
    }
  }
}

void ShardedByteCache::clear() {
  EpochDomain& domain = EpochDomain::instance();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->write_mu);
    for (auto& head : shard->buckets) {
      Node* node = head.load(std::memory_order_relaxed);
      head.store(nullptr);  // seq_cst: whole chain unreachable at once
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        domain.retire(
            node, [](void* p) noexcept { delete static_cast<Node*>(p); });
        node = next;
      }
    }
    shard->bytes = 0;
    shard->entries = 0;
  }
}

ShardedByteCache::Stats ShardedByteCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->write_mu);
    s.hits += shard->hits.load(std::memory_order_relaxed);
    s.misses += shard->misses.load(std::memory_order_relaxed);
    s.insertions += shard->insertions;
    s.evictions += shard->evictions;
    s.entries += shard->entries;
    s.bytes += shard->bytes;
  }
  return s;
}

}  // namespace lvq
