// Lock-free warm-path tests: epoch-based reclamation (EpochDomain), the
// rewritten ShardedByteCache (lock-free readers, CLOCK eviction), the
// engine's cost-aware response-cache admission, and byte identity of
// point, batch, and range replies served through the engine. The *Churn
// suites hammer readers against writers / rebind and run under TSan in CI
// (the nightly job raises LVQ_CACHE_SOAK_MS).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/message.hpp"
#include "node/session.hpp"
#include "server/metrics.hpp"
#include "server/proof_cache.hpp"
#include "server/serving_engine.hpp"
#include "util/epoch.hpp"
#include "workload/workload.hpp"

namespace lvq {
namespace {

std::uint64_t soak_ms(std::uint64_t default_ms) {
  if (const char* env = std::getenv("LVQ_CACHE_SOAK_MS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return default_ms;
}

ByteSpan as_span(const Bytes& b) { return ByteSpan{b.data(), b.size()}; }

// ---- EpochDomain ----

std::atomic<int> g_freed{0};

void counting_deleter(void* p) noexcept {
  g_freed.fetch_add(1);
  delete static_cast<int*>(p);
}

TEST(EpochDomain, RetireWaitsForPinnedReader) {
  EpochDomain& dom = EpochDomain::instance();
  g_freed.store(0);

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochDomain::Guard g;
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  // The reader pinned an epoch at or before this retire's stamp, so no
  // amount of collecting may run the deleter yet.
  dom.retire(new int(42), &counting_deleter);
  dom.collect();
  EXPECT_EQ(g_freed.load(), 0);

  release.store(true);
  reader.join();
  dom.synchronize();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(EpochDomain, GuardsNestWithoutDeadlock) {
  EpochDomain& dom = EpochDomain::instance();
  g_freed.store(0);
  {
    EpochDomain::Guard outer;
    {
      EpochDomain::Guard inner;  // same thread, nested: must not spin
      dom.retire(new int(7), &counting_deleter);
    }
    // Still pinned by `outer`: the retired block must survive a collect.
    dom.collect();
    EXPECT_EQ(g_freed.load(), 0);
  }
  dom.synchronize();
  EXPECT_EQ(g_freed.load(), 1);
}

// ---- ShardedByteCache basics (beyond server_engine_test's suite) ----

Bytes soak_key(std::uint64_t k) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((k >> (8 * i)) & 0xff);
  }
  return b;
}

// Deterministic value per key so concurrent readers can validate hits
// without any shared expected-state table.
Bytes soak_value(std::uint64_t k) {
  Bytes v(64 + k % 128);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>((k * 31 + i) & 0xff);
  }
  return v;
}

TEST(ProofCacheLockFree, RoundTripAndOverwrite) {
  ShardedByteCache cache(1 << 16, 4);
  Bytes k = soak_key(1);
  cache.put(as_span(k), as_span(soak_value(1)));
  Bytes out;
  ASSERT_TRUE(cache.get(as_span(k), &out));
  EXPECT_EQ(out, soak_value(1));

  // Overwrite publishes a fresh node; readers must see old or new bytes,
  // never a mix — single-threaded here, so simply the new value.
  cache.put(as_span(k), as_span(soak_value(2)));
  ASSERT_TRUE(cache.get(as_span(k), &out));
  EXPECT_EQ(out, soak_value(2));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ProofCacheLockFree, BudgetHoldsUnderManyInserts) {
  constexpr std::uint64_t kCapacity = 1 << 14;
  ShardedByteCache cache(kCapacity, 2);
  for (std::uint64_t k = 0; k < 600; ++k) {
    Bytes key = soak_key(k);
    Bytes val = soak_value(k);
    cache.put(as_span(key), as_span(val));
  }
  ShardedByteCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, kCapacity);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Readers spin lock-free on a mixed hit/miss key set while one writer per
// shard-ish inserts, overwrites, and periodically clears. Every hit must
// return the full deterministic value for its key — a torn read, a
// use-after-free, or a key/value mismatch all land in the mismatch
// counter (and TSan catches the silent races).
TEST(ProofCacheChurn, ConcurrentReadersSurviveWriterChurn) {
  const std::uint64_t duration = soak_ms(300);
  constexpr std::uint64_t kKeys = 256;
  ShardedByteCache cache(1 << 15, 4);  // small: constant eviction pressure

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t) * 17;
      Bytes out;
      while (!stop.load(std::memory_order_relaxed)) {
        Bytes key = soak_key(i % kKeys);
        if (cache.get(as_span(key), &out)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (out != soak_value(i % kKeys)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++i;
      }
    });
  }

  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Bytes key = soak_key(i % kKeys);
      Bytes val = soak_value(i % kKeys);
      cache.put(as_span(key), as_span(val));
      if (++i % 4096 == 0) cache.clear();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(duration));
  stop.store(true);
  for (std::thread& r : readers) r.join();
  writer.join();

  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  ShardedByteCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
}

// ---- Cost-aware admission (generic-handler engine) ----

Bytes make_fake_query_request(std::uint8_t tag) {
  Bytes body{tag, 1, 2, 3};
  return encode_envelope(MsgType::kQueryRequest, as_span(body));
}

TEST(CacheAdmission, FastResponsesBypassTheCache) {
  ServingEngineOptions opts;
  opts.workers = 1;
  opts.cache_admit_min_us = 10'000'000;  // nothing is ever this slow
  ServingEngine engine([](ByteSpan req) { return Bytes(req.begin(), req.end()); },
                       opts);
  Bytes req = make_fake_query_request(9);
  Bytes first = engine.handle(as_span(req));
  EXPECT_EQ(engine.handle(as_span(req)), first);

  MetricsSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.cache_bypassed, 2u);
  EXPECT_EQ(snap.cache_admitted, 0u);
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_entries, 0u);
}

TEST(CacheAdmission, ZeroThresholdAdmitsAndServesHits) {
  ServingEngineOptions opts;
  opts.workers = 1;
  opts.cache_admit_min_us = 0;
  ServingEngine engine([](ByteSpan req) { return Bytes(req.begin(), req.end()); },
                       opts);
  Bytes req = make_fake_query_request(7);
  Bytes first = engine.handle(as_span(req));
  EXPECT_EQ(engine.handle(as_span(req)), first);

  MetricsSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.cache_admitted, 1u);
  EXPECT_GE(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_bypassed, 0u);
}

TEST(CacheAdmission, SlowResponsesClearTheDefaultThreshold) {
  ServingEngineOptions opts;
  opts.workers = 1;
  opts.cache_admit_min_us = 1000;
  ServingEngine engine(
      [](ByteSpan req) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        return Bytes(req.begin(), req.end());
      },
      opts);
  Bytes req = make_fake_query_request(5);
  Bytes first = engine.handle(as_span(req));
  EXPECT_EQ(engine.handle(as_span(req)), first);

  MetricsSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.cache_admitted, 1u);
  EXPECT_GE(snap.cache_hits, 1u);
}

TEST(ProofCacheLockFree, OversizePutIsRefused) {
  ShardedByteCache cache(4096, 4);  // 1 KiB per shard
  Bytes key = soak_key(3);
  Bytes big(2048, 0xab);
  EXPECT_FALSE(cache.put(as_span(key), as_span(big)));
  EXPECT_FALSE(cache.get(as_span(key), nullptr));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_TRUE(cache.put(as_span(key), as_span(soak_value(3))));

  ShardedByteCache disabled(0);
  EXPECT_FALSE(disabled.put(as_span(key), as_span(soak_value(3))));
}

// A reply that clears the admission threshold but cannot fit a cache shard
// is not stored, so the engine must count it as bypassed, never admitted.
TEST(CacheAdmission, OversizeReplyCountsAsBypassed) {
  ServingEngineOptions opts;
  opts.workers = 1;
  opts.cache_bytes = 4096;
  opts.cache_shards = 4;
  opts.cache_admit_min_us = 0;
  ServingEngine engine(
      [](ByteSpan req) {
        Bytes reply(req.begin(), req.end());
        reply.resize(4096, 0x5a);
        return reply;
      },
      opts);
  Bytes req = make_fake_query_request(11);
  Bytes first = engine.handle(as_span(req));
  EXPECT_EQ(engine.handle(as_span(req)), first);

  MetricsSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.cache_admitted, 0u);
  EXPECT_EQ(snap.cache_bypassed, 2u);
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_entries, 0u);
}

// ---- Engine replies match the backend for every query shape ----

const ExperimentSetup& setup() {
  static ExperimentSetup s = [] {
    WorkloadConfig c;
    c.seed = 4242;
    c.num_blocks = 32;
    c.background_txs_per_block = 8;
    c.profiles = {{"busy", 12, 8}, {"rare", 2, 2}, {"ghost", 0, 0}};
    return make_setup(c);
  }();
  return s;
}

constexpr BloomGeometry kGeom{256, 6};

Bytes make_query_request(const Address& a) {
  Writer w;
  QueryRequest{a}.serialize(w);
  return encode_envelope(MsgType::kQueryRequest, as_span(w.data()));
}

Bytes make_batch_request(const std::vector<Address>& addrs) {
  Writer w;
  w.varint(addrs.size());
  for (const Address& a : addrs) a.serialize(w);
  return encode_envelope(MsgType::kBatchQueryRequest, as_span(w.data()));
}

Bytes make_range_request(const Address& a, std::uint64_t from,
                         std::uint64_t to) {
  Writer w;
  RangeQueryRequest{a, from, to}.serialize(w);
  return encode_envelope(MsgType::kRangeQueryRequest, as_span(w.data()));
}

// Points, a batch over the same addresses, a whole-chain range and
// partial ranges through the engine stay byte-identical to the backend.
TEST(ShapeNormalizedKeys, PointFillServesBatchAndRange) {
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  FullNode full(setup().workload, setup().derived, config);
  ServingEngineOptions opts;
  opts.workers = 2;
  opts.cache_admit_min_us = 0;
  ServingEngine engine(full, opts);

  std::vector<Address> addrs;
  for (const AddressProfile& p : setup().workload->profiles) {
    addrs.push_back(p.address);
  }

  for (const Address& a : addrs) {
    Bytes req = make_query_request(a);
    EXPECT_EQ(engine.handle(as_span(req)), full.handle_message(as_span(req)));
  }

  Bytes batch = make_batch_request(addrs);
  EXPECT_EQ(engine.handle(as_span(batch)), full.handle_message(as_span(batch)));

  Bytes range = make_range_request(addrs[0], 1, full.tip_height());
  EXPECT_EQ(engine.handle(as_span(range)), full.handle_message(as_span(range)));

  // Partial ranges mix whole segments with anchored pieces; bytes still
  // match the backend exactly.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> spans = {
      {5, 20}, {1, 7}, {17, 32}};
  for (auto [from, to] : spans) {
    Bytes r = make_range_request(addrs[0], from, to);
    EXPECT_EQ(engine.handle(as_span(r)), full.handle_message(as_span(r)))
        << "range [" << from << ", " << to << "]";
  }
  EXPECT_EQ(engine.snapshot().responses_error, 0u);
}

// Out-of-range requests get the backend's error envelope, byte for byte.
TEST(ShapeNormalizedKeys, InvalidRangesMatchBackendErrors) {
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  FullNode full(setup().workload, setup().derived, config);
  ServingEngine engine(full);
  const Address& a = setup().workload->profiles[0].address;
  Bytes beyond = make_range_request(a, 1, full.tip_height() + 5);
  EXPECT_EQ(engine.handle(as_span(beyond)),
            full.handle_message(as_span(beyond)));
}

// ---- Engine churn: lock-free readers vs rebind/invalidate/eviction ----

// Readers hammer point/batch/range requests while the main thread swaps
// the engine between two chain states (pure append apart), invalidates,
// and a deliberately tiny cache keeps eviction running. Every reply must
// be byte-exact for ONE of the two published states — torn responses,
// stale-epoch leaks, and reclamation races all surface as mismatches (or
// under TSan, as reports). CI runs this suite under TSan; the nightly
// soak raises LVQ_CACHE_SOAK_MS.
TEST(EngineChurn, RepliesAlwaysMatchOnePublishedState) {
  const std::uint64_t duration = soak_ms(300);
  const auto& bodies = setup().workload->blocks;
  std::vector<std::vector<Transaction>> prefix(bodies.begin(),
                                               bodies.end() - 8);
  ProtocolConfig config{Design::kLvq, kGeom, 8};
  ExperimentSetup s_a = make_setup_from_blocks(prefix);
  ExperimentSetup s_b = make_setup_from_blocks(bodies);
  FullNode node_a(s_a.workload, s_a.derived, config);
  FullNode node_b(s_b.workload, s_b.derived, config);

  std::vector<Address> addrs;
  for (const AddressProfile& p : setup().workload->profiles) {
    addrs.push_back(p.address);
  }
  std::vector<Bytes> requests;
  for (const Address& a : addrs) requests.push_back(make_query_request(a));
  requests.push_back(make_batch_request(addrs));
  // Valid on both tips (24 and 32).
  requests.push_back(make_range_request(addrs[0], 3, 20));

  std::vector<Bytes> ref_a, ref_b;
  for (const Bytes& r : requests) {
    ref_a.push_back(node_a.handle_message(as_span(r)));
    ref_b.push_back(node_b.handle_message(as_span(r)));
  }

  ServingEngineOptions opts;
  opts.workers = 2;
  opts.queue_depth = 32;
  opts.cache_bytes = 1 << 15;  // tiny on purpose: eviction churn
  opts.cache_admit_min_us = 0;
  ServingEngine engine(node_a, opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t pick = i++ % requests.size();
        Bytes reply = engine.handle(as_span(requests[pick]));
        if (reply != ref_a[pick] && reply != ref_b[pick]) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(duration);
  bool on_b = false;
  while (std::chrono::steady_clock::now() < deadline) {
    engine.rebind(on_b ? node_a : node_b);
    on_b = !on_b;
    engine.invalidate();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  MetricsSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.responses_error, 0u);

  // Settled: the engine serves whichever node it last bound, byte-exact.
  // (`on_b` true means the previous iteration bound node_b.)
  const std::vector<Bytes>& settled = on_b ? ref_b : ref_a;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(engine.handle(as_span(requests[i])), settled[i]);
  }
}

}  // namespace
}  // namespace lvq
