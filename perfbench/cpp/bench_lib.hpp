// Building blocks of the end-to-end benchmark that are independent of the
// serving stack: seeded samplers, the percentile rule, reply fingerprints,
// the replay transport, the span recorder and process counters. They live
// apart from the workload code so the benchmark's own tests can pin them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chain/address.hpp"
#include "net/transport.hpp"
#include "util/bytes.hpp"

namespace perfbench {

using lvq::Address;
using lvq::Bytes;
using lvq::ByteSpan;

// ---------------------------------------------------------------- sampling

/// splitmix64: small, fast and identical on every platform, so a seed
/// names the same inputs everywhere (std distributions do not promise
/// that across standard libraries).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);
  /// Exponential inter-arrival gap for a Poisson process of `rate` per unit.
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for `stream` from a run seed.
std::uint64_t substream(std::uint64_t seed, std::uint64_t stream);

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from phase start) of `count` requests of a
/// Poisson process with mean `rate` per second.
std::vector<double> poisson_arrivals(Rng& rng, double rate, std::size_t count);

/// A request mix with an exact composition: `deck` lists each kind as
/// many times as it occurs per deck, and every consecutive deck-sized run
/// of the stream is a seeded shuffle of it. Unlike independent draws, the
/// share of each kind (and so which kind the tail percentiles land in)
/// does not wander with the seed.
std::vector<int> deck_sequence(Rng& rng, const std::vector<int>& deck,
                               std::size_t count);

/// `k` distinct indices of [0, n), in seeded order.
std::vector<std::size_t> sample_distinct(Rng& rng, std::size_t n,
                                         std::size_t k);

/// `k` distinct addresses of `pool`, in seeded order.
std::vector<Address> sample_addresses(const std::vector<Address>& pool,
                                      Rng& rng, std::size_t k);

// ------------------------------------------------------------- statistics

/// Nearest-rank q-quantile, or nullopt when fewer than ten samples lie
/// beyond it (a p99 needs at least 1000 samples). Reporting a tail the
/// sample cannot support would make it a measure of one or two requests.
std::optional<double> percentile(std::vector<double> values, double q);

/// Samples that lie beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Median without the support rule (small repeat counts such as set-up).
double median(std::vector<double> values);

/// Each value replaced by the median of the values that share its key.
/// A closed loop that repeats a fixed set of calls times each call many
/// times; the median of a call's repeats is its cost with interference
/// that hit fewer than half of them (a descheduled vCPU, a busy
/// neighbour) left out. Length and order are kept, so percentiles and
/// means of the result weigh every call as often as it ran.
std::vector<double> typical_by_key(const std::vector<std::uint32_t>& keys,
                                   const std::vector<double>& values);

// ---------------------------------------------------------- reply checks

/// Length plus FNV-1a-64 of a reply. FNV-1a maps any single-byte change
/// to a different digest (each step is a bijection of the state), so a
/// flipped byte can never pass.
struct Fingerprint {
  std::uint64_t length = 0;
  std::uint64_t fnv = 0;
  bool operator==(const Fingerprint&) const = default;
};
std::uint64_t fnv1a64(ByteSpan data);
Fingerprint fingerprint(ByteSpan data);

// ------------------------------------------------------------- requests

Bytes point_request(const Address& a);
Bytes range_request(const Address& a, std::uint64_t from, std::uint64_t to);
Bytes batch_request(const std::vector<Address>& as);
Bytes multi_request(const std::vector<Address>& as);

// ------------------------------------------------------ replay transport

/// Answers each request with a frame recorded earlier for the same
/// request bytes, so the light node's decode and verify run with no
/// server, socket or prover underneath. An unrecorded request throws
/// TransportError(kDisconnect) — the benchmark counts it as an error.
class ReplayTransport final : public lvq::Transport {
 public:
  void record(Bytes request, Bytes reply);
  std::size_t size() const { return frames_.size(); }
  Bytes round_trip(ByteSpan request) override;

 private:
  std::map<Bytes, Bytes> frames_;
};

// ----------------------------------------------------------------- spans

std::int64_t now_ns();

/// One timed call into a layer. `parent` is the span that caused it (0 for
/// a root) and `request` ties every span of one request together.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// In-memory span log. Recording costs one mutex-guarded push per span;
/// spans are written out only when the run ends.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on); }
  /// Records a finished span and returns its id: its 1-based position in
  /// spans(), or 0 when disabled.
  std::uint64_t record(std::string name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t request);
  std::vector<Span> spans() const;
  /// Writes one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to it). Indexed like `spans`.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

// ------------------------------------------------------ process counters

struct ProcCounters {
  double cpu_ms = 0;
  std::uint64_t minflt = 0;
  std::uint64_t majflt = 0;
  std::uint64_t nvcsw = 0;
  std::uint64_t nivcsw = 0;
};
ProcCounters proc_counters();
/// A /proc/self/status field in KiB (VmHWM, VmRSS), 0 when absent.
std::uint64_t proc_status_kb(const char* field);
/// Resets VmHWM to the current RSS (Linux clear_refs "5"); false when the
/// kernel refuses, in which case VmHWM keeps the whole process's peak.
bool reset_peak_rss();

// ------------------------------------------------------------------ JSON

/// Flat JSON object builder for the result line.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
