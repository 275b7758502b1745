#include "bench_lib.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/range_query.hpp"
#include "net/message.hpp"
#include "net/transport_error.hpp"
#include "util/serialize.hpp"

namespace perfbench {

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~0ull - (~0ull % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t substream(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed * 0x9e3779b97f4a7c15ull + stream);
  r.next();
  return r.next();
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("zipf over zero ranks");
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - cdf_.begin());
}

std::vector<double> poisson_arrivals(Rng& rng, double rate,
                                     std::size_t count) {
  std::vector<double> out(count);
  double t = 0;
  for (double& x : out) {
    t += rng.exponential(rate);
    x = t;
  }
  return out;
}

std::vector<int> deck_sequence(Rng& rng, const std::vector<int>& deck,
                               std::size_t count) {
  std::vector<int> out;
  out.reserve(count + deck.size());
  while (out.size() < count) {
    std::vector<int> d = deck;
    for (std::size_t i = d.size(); i > 1; --i) {
      std::swap(d[i - 1], d[rng.below(i)]);
    }
    out.insert(out.end(), d.begin(), d.end());
  }
  out.resize(count);
  return out;
}

std::vector<std::size_t> sample_distinct(Rng& rng, std::size_t n,
                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample larger than population");
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + rng.below(n - i)]);
  }
  idx.resize(k);
  return idx;
}

std::vector<Address> sample_addresses(const std::vector<Address>& pool,
                                      Rng& rng, std::size_t k) {
  std::vector<Address> out;
  for (std::size_t i : sample_distinct(rng, pool.size(), k)) {
    out.push_back(pool[i]);
  }
  return out;
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - std::max<std::size_t>(rank, 1);
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0 || samples_beyond(n, q) < 10) return std::nullopt;
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double> typical_by_key(const std::vector<std::uint32_t>& keys,
                                   const std::vector<double>& values) {
  if (keys.size() != values.size()) {
    throw std::invalid_argument("one key per value");
  }
  std::map<std::uint32_t, std::vector<double>> by_key;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    by_key[keys[i]].push_back(values[i]);
  }
  std::map<std::uint32_t, double> typical;
  for (const auto& [key, v] : by_key) typical[key] = median(v);
  std::vector<double> out;
  out.reserve(keys.size());
  for (std::uint32_t key : keys) out.push_back(typical[key]);
  return out;
}

std::uint64_t fnv1a64(ByteSpan data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

Fingerprint fingerprint(ByteSpan data) {
  return Fingerprint{data.size(), fnv1a64(data)};
}

namespace {
Bytes envelope(lvq::MsgType type, const lvq::Writer& w) {
  return lvq::encode_envelope(type, ByteSpan{w.data().data(), w.data().size()});
}
Bytes address_list(lvq::MsgType type, const std::vector<Address>& as) {
  lvq::Writer w;
  w.varint(as.size());
  for (const Address& a : as) a.serialize(w);
  return envelope(type, w);
}
}  // namespace

Bytes point_request(const Address& a) {
  lvq::Writer w;
  a.serialize(w);
  return envelope(lvq::MsgType::kQueryRequest, w);
}

Bytes range_request(const Address& a, std::uint64_t from, std::uint64_t to) {
  lvq::Writer w;
  lvq::RangeQueryRequest{a, from, to}.serialize(w);
  return envelope(lvq::MsgType::kRangeQueryRequest, w);
}

Bytes batch_request(const std::vector<Address>& as) {
  return address_list(lvq::MsgType::kBatchQueryRequest, as);
}

Bytes multi_request(const std::vector<Address>& as) {
  return address_list(lvq::MsgType::kMultiQueryRequest, as);
}

void ReplayTransport::record(Bytes request, Bytes reply) {
  frames_[std::move(request)] = std::move(reply);
}

Bytes ReplayTransport::round_trip(ByteSpan request) {
  auto it = frames_.find(Bytes(request.begin(), request.end()));
  if (it == frames_.end()) {
    throw lvq::TransportError(lvq::TransportError::kDisconnect,
                              "replay: request was never recorded");
  }
  bytes_sent_ += request.size();
  bytes_received_ += it->second.size();
  return it->second;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::record(std::string name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{std::move(name), start_ns, end_ns, id, parent, request});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    auto it = by_id.find(s.parent);
    if (s.parent != 0 && it != by_id.end()) {
      kids[it->second].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (cur_hi < a) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = static_cast<double>(hi - lo - covered) / 1e6;
  }
  return out;
}

ProcCounters proc_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ProcCounters{ms(ru.ru_utime) + ms(ru.ru_stime),
                      static_cast<std::uint64_t>(ru.ru_minflt),
                      static_cast<std::uint64_t>(ru.ru_majflt),
                      static_cast<std::uint64_t>(ru.ru_nvcsw),
                      static_cast<std::uint64_t>(ru.ru_nivcsw)};
}

std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::stoull(line.substr(n + 1));
    }
  }
  return 0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  fields_.push_back({key, buf});
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.push_back({key, "\"" + json_escape(value) + "\""});
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.push_back({key, json});
  return *this;
}

std::string JsonObject::dump() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json_escape(fields_[i].first) << "\":" << fields_[i].second;
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
