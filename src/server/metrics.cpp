#include "server/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace lvq {

namespace {

constexpr std::uint8_t kSnapshotVersion = 4;

const char* type_slot_name(std::size_t slot) {
  switch (slot) {
    case 1: return "query";
    case 3: return "headers";
    case 6: return "headers-since";
    case 7: return "batch";
    case 9: return "range";
    case 11: return "multi";
    case 13: return "stats";
    default: return nullptr;  // response/one-off types never arrive as requests
  }
}

void append_line(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

std::string human_us(double us) {
  char buf[64];
  if (us < 1'000.0) {
    std::snprintf(buf, sizeof(buf), "%.0f us", us);
  } else if (us < 1'000'000.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", us / 1'000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", us / 1'000'000.0);
  }
  return buf;
}

}  // namespace

void ServerMetrics::fill(MetricsSnapshot& out) const {
  out.requests_total = requests_total_.load(std::memory_order_relaxed);
  out.responses_error = responses_error_.load(std::memory_order_relaxed);
  out.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
  out.rejected_degraded = rejected_degraded_.load(std::memory_order_relaxed);
  out.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  out.deadline_aborted = deadline_aborted_.load(std::memory_order_relaxed);
  out.drain_completed = drain_completed_.load(std::memory_order_relaxed);
  out.slow_loris_closed = slow_loris_closed_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMsgTypeSlots; ++i) {
    out.requests_by_type[i] = by_type_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kLatencyBucketCount; ++i) {
    out.latency_buckets[i] =
        latency_buckets_[i].load(std::memory_order_relaxed);
  }
  out.latency_count = latency_count_.load(std::memory_order_relaxed);
  out.latency_total_us = latency_total_us_.load(std::memory_order_relaxed);
  out.backpressure_shed = backpressure_shed_.load(std::memory_order_relaxed);
  for (std::size_t c = 0; c < kRequestClassCount; ++c) {
    ClassLatency& cl = out.class_latency[c];
    for (std::size_t i = 0; i < kLatencyBucketCount; ++i) {
      cl.buckets[i] = class_buckets_[c][i].load(std::memory_order_relaxed);
    }
    cl.count = class_count_[c].load(std::memory_order_relaxed);
    cl.total_us = class_total_us_[c].load(std::memory_order_relaxed);
  }
  out.cache_admitted = cache_admitted_.load(std::memory_order_relaxed);
  out.cache_bypassed = cache_bypassed_.load(std::memory_order_relaxed);
}

void MetricsSnapshot::serialize(Writer& w) const {
  w.u8(kSnapshotVersion);
  w.varint(requests_total);
  w.varint(responses_error);
  w.varint(rejected_busy);
  w.varint(rejected_degraded);
  w.varint(expired_in_queue);
  w.varint(deadline_aborted);
  w.varint(drain_completed);
  w.varint(slow_loris_closed);
  w.varint(bytes_in);
  w.varint(bytes_out);
  w.varint(cache_hits);
  w.varint(cache_misses);
  w.varint(cache_entries);
  w.varint(cache_bytes);
  w.varint(cache_evictions);
  w.varint(segment_hits);
  w.varint(segment_misses);
  w.varint(segment_entries);
  w.varint(segment_bytes);
  w.varint(segment_evictions);
  w.varint(queue_depth);
  w.varint(queue_capacity);
  w.varint(workers);
  w.varint(in_flight);
  w.varint(epoch_tip);
  w.varint(epoch_generation);
  w.varint(requests_by_type.size());
  for (std::uint64_t v : requests_by_type) w.varint(v);
  w.varint(latency_buckets.size());
  for (std::uint64_t v : latency_buckets) w.varint(v);
  w.varint(latency_count);
  w.varint(latency_total_us);
  // v3 fields, appended after everything v2 carried.
  w.varint(backpressure_shed);
  w.varint(class_latency.size());
  for (const ClassLatency& cl : class_latency) {
    w.varint(cl.buckets.size());
    for (std::uint64_t v : cl.buckets) w.varint(v);
    w.varint(cl.count);
    w.varint(cl.total_us);
  }
  // v4 fields: cost-aware cache admission counters.
  w.varint(cache_admitted);
  w.varint(cache_bypassed);
}

MetricsSnapshot MetricsSnapshot::deserialize(Reader& r) {
  if (r.u8() != kSnapshotVersion) {
    throw SerializeError("unsupported stats snapshot version");
  }
  MetricsSnapshot s;
  s.requests_total = r.varint();
  s.responses_error = r.varint();
  s.rejected_busy = r.varint();
  s.rejected_degraded = r.varint();
  s.expired_in_queue = r.varint();
  s.deadline_aborted = r.varint();
  s.drain_completed = r.varint();
  s.slow_loris_closed = r.varint();
  s.bytes_in = r.varint();
  s.bytes_out = r.varint();
  s.cache_hits = r.varint();
  s.cache_misses = r.varint();
  s.cache_entries = r.varint();
  s.cache_bytes = r.varint();
  s.cache_evictions = r.varint();
  s.segment_hits = r.varint();
  s.segment_misses = r.varint();
  s.segment_entries = r.varint();
  s.segment_bytes = r.varint();
  s.segment_evictions = r.varint();
  s.queue_depth = r.varint();
  s.queue_capacity = r.varint();
  s.workers = r.varint();
  s.in_flight = r.varint();
  s.epoch_tip = r.varint();
  s.epoch_generation = r.varint();
  std::uint64_t n = r.varint();
  if (n != s.requests_by_type.size()) {
    throw SerializeError("bad request-type table size");
  }
  for (std::uint64_t& v : s.requests_by_type) v = r.varint();
  n = r.varint();
  if (n != s.latency_buckets.size()) {
    throw SerializeError("bad latency bucket count");
  }
  for (std::uint64_t& v : s.latency_buckets) v = r.varint();
  s.latency_count = r.varint();
  s.latency_total_us = r.varint();
  s.backpressure_shed = r.varint();
  n = r.varint();
  if (n != s.class_latency.size()) {
    throw SerializeError("bad latency class count");
  }
  for (ClassLatency& cl : s.class_latency) {
    n = r.varint();
    if (n != cl.buckets.size()) {
      throw SerializeError("bad class latency bucket count");
    }
    for (std::uint64_t& v : cl.buckets) v = r.varint();
    cl.count = r.varint();
    cl.total_us = r.varint();
  }
  s.cache_admitted = r.varint();
  s.cache_bypassed = r.varint();
  return s;
}

namespace {

double histogram_quantile_us(
    const std::array<std::uint64_t, kLatencyBucketCount>& buckets,
    std::uint64_t count, double q) {
  if (count == 0) return 0.0;
  std::uint64_t target =
      static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5);
  if (target == 0) target = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      return static_cast<double>(1ull << (i + 1));  // bucket upper edge
    }
  }
  return static_cast<double>(1ull << buckets.size());
}

}  // namespace

const char* request_class_name(RequestClass c) {
  switch (c) {
    case RequestClass::kQuery: return "query";
    case RequestClass::kBulk: return "bulk";
    case RequestClass::kControl: return "control";
  }
  return "?";
}

double ClassLatency::quantile_us(double q) const {
  return histogram_quantile_us(buckets, count, q);
}

double MetricsSnapshot::latency_quantile_us(double q) const {
  return histogram_quantile_us(latency_buckets, latency_count, q);
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  append_line(out, "requests : %" PRIu64 " total, %" PRIu64
                   " error replies, %" PRIu64 " shed busy",
              requests_total, responses_error, rejected_busy);
  append_line(out, "shedding : %" PRIu64 " degraded bulk, %" PRIu64
                   " expired in queue, %" PRIu64 " deadline aborted, %" PRIu64
                   " backpressure",
              rejected_degraded, expired_in_queue, deadline_aborted,
              backpressure_shed);
  append_line(out, "drain    : %" PRIu64 " completed in grace, %" PRIu64
                   " slow-loris closed",
              drain_completed, slow_loris_closed);
  std::string mix;
  for (std::size_t i = 0; i < requests_by_type.size(); ++i) {
    if (requests_by_type[i] == 0) continue;
    const char* name = type_slot_name(i);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s %" PRIu64, mix.empty() ? "" : ", ",
                  name ? name : "other", requests_by_type[i]);
    mix += buf;
  }
  append_line(out, "mix      : %s", mix.empty() ? "(none)" : mix.c_str());
  append_line(out, "wire     : %" PRIu64 " bytes in, %" PRIu64 " bytes out",
              bytes_in, bytes_out);
  const std::uint64_t lookups = cache_hits + cache_misses;
  append_line(out, "cache    : %" PRIu64 " hits / %" PRIu64
                   " misses (%.1f%%), %" PRIu64 " entries, %" PRIu64
                   " bytes, %" PRIu64 " evictions",
              cache_hits, cache_misses,
              lookups == 0 ? 0.0
                           : 100.0 * static_cast<double>(cache_hits) /
                                 static_cast<double>(lookups),
              cache_entries, cache_bytes, cache_evictions);
  append_line(out, "admission: %" PRIu64 " admitted, %" PRIu64
                   " bypassed (under threshold or over a shard)",
              cache_admitted, cache_bypassed);
  append_line(out, "pool     : %" PRIu64 " workers, %" PRIu64
                   " in flight, queue %" PRIu64 "/%" PRIu64,
              workers, in_flight, queue_depth, queue_capacity);
  append_line(out, "epoch    : tip %" PRIu64 ", generation %" PRIu64,
              epoch_tip, epoch_generation);
  append_line(out,
              "latency  : n=%" PRIu64 ", mean %s, p50 <= %s, p90 <= %s, "
              "p99 <= %s",
              latency_count, human_us(mean_latency_us()).c_str(),
              human_us(latency_quantile_us(0.50)).c_str(),
              human_us(latency_quantile_us(0.90)).c_str(),
              human_us(latency_quantile_us(0.99)).c_str());
  for (std::size_t c = 0; c < class_latency.size(); ++c) {
    const ClassLatency& cl = class_latency[c];
    if (cl.count == 0) continue;
    append_line(out,
                " %-8s: n=%" PRIu64 ", mean %s, p50 <= %s, p90 <= %s, "
                "p99 <= %s",
                request_class_name(static_cast<RequestClass>(c)), cl.count,
                human_us(cl.mean_us()).c_str(),
                human_us(cl.quantile_us(0.50)).c_str(),
                human_us(cl.quantile_us(0.90)).c_str(),
                human_us(cl.quantile_us(0.99)).c_str());
  }
  return out;
}

}  // namespace lvq
