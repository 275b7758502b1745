// Server metrics registry.
//
// Lock-free counters and a fixed-bucket latency histogram for the serving
// engine, snapshotted into a wire-serializable `MetricsSnapshot` so
// benchmarks, soak tests, and `lvqtool stats` read real numbers from a
// running server instead of guessing from wall clocks. Everything is
// relaxed atomics: metrics never order anything, they only count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "net/server_events.hpp"
#include "util/serialize.hpp"

namespace lvq {

/// Latency histogram: bucket i counts requests whose total service time
/// (queue wait + execution) fell in [2^i, 2^{i+1}) microseconds; bucket 0
/// also absorbs sub-microsecond requests and the last bucket absorbs
/// everything slower (2^21 µs ≈ 2.1 s).
constexpr std::size_t kLatencyBucketCount = 22;

/// Per-envelope-type request counters, indexed by the raw MsgType byte;
/// slot 0 counts requests too short to carry a type byte.
constexpr std::size_t kMsgTypeSlots = 16;

/// Coarse request classes for per-class latency histograms (snapshot v3).
/// The buckets answer "is interactive traffic slow?" without a per-type
/// histogram explosion: single-address proof queries, bulk sync/batch
/// traffic, and everything else (stats, headers-since, unknown).
enum class RequestClass : std::uint8_t { kQuery = 0, kBulk = 1, kControl = 2 };
constexpr std::size_t kRequestClassCount = 3;

const char* request_class_name(RequestClass c);

/// One request class's latency histogram (same bucket layout as the
/// global one: bucket i counts [2^i, 2^{i+1}) microseconds).
struct ClassLatency {
  std::array<std::uint64_t, kLatencyBucketCount> buckets{};
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;

  bool operator==(const ClassLatency&) const = default;

  double mean_us() const {
    return count == 0
               ? 0.0
               : static_cast<double>(total_us) / static_cast<double>(count);
  }
  /// Upper-edge quantile estimate; 0 with no samples.
  double quantile_us(double q) const;
};

/// Point-in-time copy of every counter plus the engine's gauges. This is
/// the kStatsResponse payload; the wire format is documented in
/// docs/PROTOCOL.md.
struct MetricsSnapshot {
  // Counters.
  std::uint64_t requests_total = 0;
  std::uint64_t responses_error = 0;  // kError envelopes returned
  std::uint64_t rejected_busy = 0;    // kBusy envelopes returned (queue full)

  // Resilience counters (snapshot v2, PROTOCOL.md §7).
  std::uint64_t rejected_degraded = 0;  // bulk requests shed early under load
  std::uint64_t expired_in_queue = 0;   // dropped: deadline passed while queued
  std::uint64_t deadline_aborted = 0;   // dropped: reply finished past deadline
  std::uint64_t drain_completed = 0;    // requests finished during drain grace
  std::uint64_t slow_loris_closed = 0;  // connections closed mid-frame timeout

  // Reactor backpressure (snapshot v3): requests answered kBusy by the
  // per-connection write-buffer cap or the global in-flight byte budget.
  std::uint64_t backpressure_shed = 0;

  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  // Response proof cache (encoded replies keyed by request + epoch).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_evictions = 0;

  // Reserved: the removed BMT segment sub-cache's counters. They stay on
  // the wire (PROTOCOL.md §6) and are always 0.
  std::uint64_t segment_hits = 0;
  std::uint64_t segment_misses = 0;
  std::uint64_t segment_entries = 0;
  std::uint64_t segment_bytes = 0;
  std::uint64_t segment_evictions = 0;

  // Gauges at snapshot time.
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t workers = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t epoch_tip = 0;
  std::uint64_t epoch_generation = 0;

  std::array<std::uint64_t, kMsgTypeSlots> requests_by_type{};

  std::array<std::uint64_t, kLatencyBucketCount> latency_buckets{};
  std::uint64_t latency_count = 0;
  std::uint64_t latency_total_us = 0;

  // Per-class latency histograms (snapshot v3), indexed by RequestClass.
  std::array<ClassLatency, kRequestClassCount> class_latency{};

  // Cost-aware cache admission (snapshot v4): served cacheable responses
  // stored into the response cache vs. not stored — their measured
  // assembly time was under the engine's cache_admit_min_us threshold, or
  // the reply was too large for a cache shard.
  std::uint64_t cache_admitted = 0;
  std::uint64_t cache_bypassed = 0;

  bool operator==(const MetricsSnapshot&) const = default;

  void serialize(Writer& w) const;
  /// Throws SerializeError on a malformed payload.
  static MetricsSnapshot deserialize(Reader& r);

  double mean_latency_us() const {
    return latency_count == 0 ? 0.0
                              : static_cast<double>(latency_total_us) /
                                    static_cast<double>(latency_count);
  }

  /// Upper-bound estimate of the q-quantile (0 < q <= 1) from the
  /// histogram: the upper edge of the bucket where the cumulative count
  /// crosses q. Returns 0 with no samples.
  double latency_quantile_us(double q) const;

  /// Multi-line human rendering (what `lvqtool stats` prints).
  std::string to_text() const;
};

/// The live registry the engine writes into. All methods are thread-safe
/// and wait-free. Implements TcpServerEvents so the socket layer's
/// resilience incidents land in the same snapshot.
class ServerMetrics final : public TcpServerEvents {
 public:
  void on_request(std::uint8_t type_slot, std::uint64_t request_bytes) {
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(request_bytes, std::memory_order_relaxed);
    by_type_[type_slot < kMsgTypeSlots ? type_slot : 0].fetch_add(
        1, std::memory_order_relaxed);
  }

  void on_reply(std::uint8_t type_slot, std::uint64_t reply_bytes,
                bool error_reply, std::uint64_t latency_us) {
    bytes_out_.fetch_add(reply_bytes, std::memory_order_relaxed);
    if (error_reply) responses_error_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t b = bucket_for(latency_us);
    latency_buckets_[b].fetch_add(1, std::memory_order_relaxed);
    latency_count_.fetch_add(1, std::memory_order_relaxed);
    latency_total_us_.fetch_add(latency_us, std::memory_order_relaxed);
    const auto c = static_cast<std::size_t>(class_for(type_slot));
    class_buckets_[c][b].fetch_add(1, std::memory_order_relaxed);
    class_count_[c].fetch_add(1, std::memory_order_relaxed);
    class_total_us_[c].fetch_add(latency_us, std::memory_order_relaxed);
  }

  /// A shed request: counted separately and kept out of the latency
  /// histogram, which covers served requests only.
  void on_busy(std::uint64_t reply_bytes) {
    bytes_out_.fetch_add(reply_bytes, std::memory_order_relaxed);
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A bulk request shed before the queue was full — priority-aware
  /// degradation under load (also counted in rejected_busy because the
  /// client sees the same kBusy envelope).
  void on_degraded(std::uint64_t reply_bytes) {
    on_busy(reply_bytes);
    rejected_degraded_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A queued request dropped because its propagated deadline had already
  /// passed when a worker picked it up (kExpired reply).
  void on_expired_in_queue(std::uint64_t reply_bytes) {
    bytes_out_.fetch_add(reply_bytes, std::memory_order_relaxed);
    expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A reply that finished after its deadline, answered kExpired instead
  /// and not cached.
  void on_deadline_aborted(std::uint64_t reply_bytes) {
    bytes_out_.fetch_add(reply_bytes, std::memory_order_relaxed);
    deadline_aborted_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A request fully served while the server was draining.
  void on_drain_completed() override {
    drain_completed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A connection closed because the peer started a frame but never
  /// finished it within the per-frame read deadline.
  void on_slow_loris_closed() override {
    slow_loris_closed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A request answered kBusy by the reactor's write-buffer cap or global
  /// in-flight byte budget.
  void on_backpressure_shed() override {
    backpressure_shed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A served cacheable response stored in the response cache (its
  /// assembly time cleared the admission threshold and it fit a shard).
  void on_cache_admitted() {
    cache_admitted_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A served cacheable response NOT cached: assembly was cheaper than the
  /// admission threshold, so caching it would only pollute the budget, or
  /// the reply was larger than a cache shard.
  void on_cache_bypassed() {
    cache_bypassed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copies the counter/histogram half into `out` (the engine fills the
  /// gauges and cache stats).
  void fill(MetricsSnapshot& out) const;

  static std::size_t bucket_for(std::uint64_t latency_us) {
    if (latency_us <= 1) return 0;
    std::size_t b = 0;
    while (latency_us >>= 1) ++b;
    return b < kLatencyBucketCount ? b : kLatencyBucketCount - 1;
  }

  /// Maps a raw MsgType byte onto its latency class.
  static RequestClass class_for(std::uint8_t type_slot) {
    switch (type_slot) {
      case 1:  // kQueryRequest
        return RequestClass::kQuery;
      case 3:   // kHeadersRequest (full sync)
      case 7:   // kBatchQueryRequest
      case 9:   // kRangeQueryRequest
      case 11:  // kMultiQueryRequest
        return RequestClass::kBulk;
      default:
        return RequestClass::kControl;
    }
  }

 private:
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> responses_error_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> rejected_degraded_{0};
  std::atomic<std::uint64_t> expired_in_queue_{0};
  std::atomic<std::uint64_t> deadline_aborted_{0};
  std::atomic<std::uint64_t> drain_completed_{0};
  std::atomic<std::uint64_t> slow_loris_closed_{0};
  std::atomic<std::uint64_t> backpressure_shed_{0};
  std::atomic<std::uint64_t> cache_admitted_{0};
  std::atomic<std::uint64_t> cache_bypassed_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::array<std::atomic<std::uint64_t>, kMsgTypeSlots> by_type_{};
  std::array<std::atomic<std::uint64_t>, kLatencyBucketCount>
      latency_buckets_{};
  std::atomic<std::uint64_t> latency_count_{0};
  std::atomic<std::uint64_t> latency_total_us_{0};
  std::array<std::array<std::atomic<std::uint64_t>, kLatencyBucketCount>,
             kRequestClassCount>
      class_buckets_{};
  std::array<std::atomic<std::uint64_t>, kRequestClassCount> class_count_{};
  std::array<std::atomic<std::uint64_t>, kRequestClassCount>
      class_total_us_{};
};

}  // namespace lvq
