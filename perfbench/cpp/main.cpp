// lvqbench: the end-to-end benchmark's measuring program.
//
//   lvqbench prepare --cache DIR   (builds the cached store and panel)
//   lvqbench run   --workload W --seed N --seconds S --trace 0|1
//                  --cache DIR --work DIR
//   lvqbench serve ...   (started by `run` for the socket workloads)
//
// `run` prints JSON lines; the last one holds the run's measurements and
// perfbench/run.py turns it into the benchmark's result line.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_lib.hpp"
#include "core/multi_query.hpp"
#include "core/query_view.hpp"
#include "core/range_query.hpp"
#include "crypto/sha256.hpp"
#include "layers.hpp"
#include "main.hpp"
#include "net/message.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport_error.hpp"
#include "node/full_node.hpp"
#include "node/light_node.hpp"
#include "stack.hpp"
#include "store/disk_chain_store.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

void emit(const std::string& tag, const JsonObject& o) {
  std::cout << JsonObject().raw(tag, o.dump()).dump() << std::endl;
}

/// Extracts a top-level numeric field from a flat JSON line.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) throw std::runtime_error("no " + key + " in " + json);
  return std::stod(json.substr(at + needle.size()));
}

// ------------------------------------------------------------- requests

enum Kind : int { kPoint = 0, kRange = 1, kBatch = 2, kMulti = 3 };

lvq::MsgType reply_type(int kind) {
  switch (kind) {
    case kRange: return lvq::MsgType::kRangeQueryResponse;
    case kBatch: return lvq::MsgType::kBatchQueryResponse;
    case kMulti: return lvq::MsgType::kMultiQueryResponse;
    default: return lvq::MsgType::kQueryResponse;
  }
}

struct Request {
  double due_s = 0;  // offset from the phase start
  int kind = kPoint;
  /// poll-zipf: identifies equal requests (rank, or kPollAddresses + p for
  /// Addr<p>); unused by fresh-mix, whose requests never repeat.
  std::uint32_t key = 0;
  std::vector<Address> addresses;
  std::uint64_t from = 0, to = 0;
  Bytes bytes;
};

/// Seeded request streams. Each workload draws its phases from one stream
/// so no request is reused where the workload promises freshness.
class RequestSource {
 public:
  RequestSource(const std::string& workload, const Panel& panel,
                std::uint64_t seed, std::uint64_t tip)
      : workload_(workload), panel_(panel), tip_(tip),
        rng_(substream(seed, 1)), arrivals_(substream(seed, 2)) {
    if (workload_ == "poll-zipf") {
      Rng set_rng(kPollSetSeed);
      for (std::size_t i :
           sample_distinct(set_rng, panel.background.size(), kPollAddresses)) {
        polled_.push_back(panel.background[i]);
      }
      zipf_ = std::make_unique<ZipfSampler>(kPollAddresses, kPollZipfS);
    } else {
      fresh_order_ = sample_distinct(rng_, panel.background.size(),
                                     panel.background.size());
      // Per 100 requests: 70 points; 10 ranges ending at the tip, two
      // each of 16, 64, 256, 1024 and 4096 blocks; 12 batches of 2..7
      // addresses (each size twice); 8 multis of 2..8 addresses (8 twice).
      // Fixed shares keep the slow tail made of the same requests in every
      // run. Multis and long ranges cost the most CPU; their shares keep
      // the server well below saturation at the offered rate, where a
      // noisy host moves latency least.
      deck_.assign(70, kPoint);
      for (int len = 0; len < 5; ++len) {
        deck_.insert(deck_.end(), 2, kRange | (len << 4));
      }
      for (int size = 2; size <= 7; ++size) {
        deck_.insert(deck_.end(), 2, kBatch | (size << 4));
      }
      for (int size = 2; size <= 8; ++size) {
        deck_.insert(deck_.end(), size == 8 ? 2 : 1, kMulti | (size << 4));
      }
    }
  }

  /// `count` requests arriving as a Poisson process of `rate` per second.
  std::vector<Request> next(double rate, std::size_t count) {
    std::vector<double> due = poisson_arrivals(arrivals_, rate, count);
    std::vector<int> kinds;
    if (workload_ == "poll-zipf") {
      // Every 50th poll is heavy, cycling Addr6, Addr5, Addr4, Addr5 (per
      // 200: one Addr6, two Addr5, one Addr4). Even spacing keeps heavy
      // replies from piling onto each other by chance, which would make
      // the tail they form jump from seed to seed.
      kinds.assign(count, 0);
      const int cycle[] = {6, 5, 4, 5};
      const std::size_t offset = rng_.below(kPollHeavyEvery);
      for (std::size_t i = offset, j = 0; i < count; i += kPollHeavyEvery, ++j) {
        kinds[i] = cycle[j % 4];
      }
    } else {
      kinds = deck_sequence(rng_, deck_, count);
    }
    std::vector<Request> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = workload_ == "poll-zipf" ? poll(kinds[i]) : fresh(kinds[i]);
      out[i].due_s = due[i];
    }
    return out;
  }

 private:
  Request poll(int pick) {
    Request r;
    if (pick == 0) {
      const std::size_t rank = zipf_->sample(rng_);
      r.key = static_cast<std::uint32_t>(rank);
      r.addresses = {polled_[rank]};
    } else {
      r.key = static_cast<std::uint32_t>(kPollAddresses + pick);
      r.addresses = {panel_.profiles[pick - 1]};
    }
    r.bytes = point_request(r.addresses[0]);
    return r;
  }

  Address fresh_address() {
    if (fresh_next_ >= fresh_order_.size()) {
      throw std::runtime_error("background pool exhausted");
    }
    return panel_.background[fresh_order_[fresh_next_++]];
  }

  Request fresh(int code) {
    const int kind = code & 15;
    Request r;
    r.kind = kind;
    switch (kind) {
      case kPoint:
        r.addresses = {fresh_address()};
        r.bytes = point_request(r.addresses[0]);
        break;
      case kRange:
        r.addresses = {fresh_address()};
        r.to = tip_;
        r.from = tip_ + 1 - std::min<std::uint64_t>(tip_, 16ull << (2 * (code >> 4)));
        r.bytes = range_request(r.addresses[0], r.from, r.to);
        break;
      default: {
        for (int i = 0; i < (code >> 4); ++i) r.addresses.push_back(fresh_address());
        r.bytes = kind == kBatch ? batch_request(r.addresses)
                                 : multi_request(r.addresses);
      }
    }
    return r;
  }

  std::string workload_;
  const Panel& panel_;
  std::uint64_t tip_;
  Rng rng_;
  Rng arrivals_;
  std::vector<int> deck_;
  std::vector<Address> polled_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<std::size_t> fresh_order_;
  std::size_t fresh_next_ = 0;
};

/// Short label of a request for the report: Addr4..Addr6, point, range,
/// batch<n> or multi<n>.
std::string describe(const Request& r) {
  switch (r.kind) {
    case kPoint:
      return r.key >= kPollAddresses && r.key <= kPollAddresses + 6
                 ? "Addr" + std::to_string(r.key - kPollAddresses)
                 : "point";
    case kRange: return "range";
    case kBatch: return "batch" + std::to_string(r.addresses.size());
    default: return "multi" + std::to_string(r.addresses.size());
  }
}

// ------------------------------------------------------ open-loop sender

/// The q-quantile where the sample supports it, else the maximum: for
/// health checks that must say something about short phases.
double tail(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  if (auto p = percentile(v, q)) return *p;
  return *std::max_element(v.begin(), v.end());
}

enum Status : std::uint8_t { kOk, kBusy, kExpired, kErrorReply, kTransport, kWrong };

struct Outcome {
  std::int64_t due = 0, took = 0, send = 0, done = 0;
  Status status = kOk;
  Fingerprint fp;
  std::uint64_t trace_id = 0;
  Bytes kept;  // reply bytes, for sampled requests only
};

struct PhaseStats {
  std::string name;
  double rate = 0;
  double seconds = 0;
  std::size_t attempted = 0, failed = 0;
  std::size_t busy = 0, expired = 0, error_reply = 0, transport = 0, wrong = 0;
  std::optional<double> p50, p99;
  double p99_raw = 0;  // nearest rank, no support rule (SLO decisions)
  double lateness_p99_ms = 0;
  std::size_t backlog_end = 0;
  double reply_bytes_mean = 0;
  double reply_bytes_total = 0;
  bool pass = false;
  /// The slowest requests as (latency ms, what was asked): what the tail
  /// percentile is made of.
  std::vector<std::pair<double, std::string>> slowest;
};

/// Sends `reqs` on schedule over `conns` (one synchronous TcpTransport per
/// sender thread). A request is timed from when it was due; a request that
/// waits for a free connection is queued work of the system under test,
/// while generator lateness is only the delay beyond the moment a sender
/// was free and the request was due.
std::vector<Outcome> drive(std::vector<std::unique_ptr<lvq::TcpTransport>>& conns,
                           const std::vector<Request>& reqs,
                           const std::vector<char>& keep, bool traced,
                           std::vector<std::uint64_t>& conn_seq,
                           std::int64_t* start_out) {
  std::vector<Outcome> out(reqs.size());
  std::atomic<std::size_t> next{0};
  const std::int64_t start = now_ns() + 20'000'000;  // senders get ready
  *start_out = start;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= reqs.size()) return;
        Outcome& o = out[i];
        o.took = now_ns();
        o.due = start + static_cast<std::int64_t>(reqs[i].due_s * 1e9);
        if (o.took < o.due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(o.due - o.took));
        }
        if (traced) o.trace_id = (static_cast<std::uint64_t>(c) << 32) | conn_seq[c]++;
        o.send = now_ns();
        Bytes reply;
        try {
          reply = conns[c]->round_trip(ByteSpan{reqs[i].bytes.data(),
                                                reqs[i].bytes.size()});
        } catch (const lvq::TransportError&) {
          o.status = kTransport;
        }
        o.done = now_ns();
        if (o.status == kTransport) continue;
        if (lvq::is_busy_envelope(reply)) {
          o.status = kBusy;
        } else if (lvq::is_expired_envelope(reply)) {
          o.status = kExpired;
        } else if (reply.empty() ||
                   reply[0] != static_cast<std::uint8_t>(reply_type(reqs[i].kind))) {
          o.status = kErrorReply;
        }
        o.fp = fingerprint(ByteSpan{reply.data(), reply.size()});
        if (keep[i]) o.kept = std::move(reply);
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

PhaseStats summarize(const std::string& name, double rate,
                     const std::vector<Request>& reqs,
                     const std::vector<Outcome>& out, std::int64_t start,
                     double slo_ms) {
  PhaseStats s;
  s.name = name;
  s.rate = rate;
  s.attempted = out.size();
  std::vector<double> lat, late;
  std::int64_t end_sched = start, last_done = start;
  double bytes = 0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Outcome& o = out[i];
    end_sched = std::max(end_sched, o.due);
    last_done = std::max(last_done, o.done);
    late.push_back(ms_between(std::max(o.due, o.took), o.send));
    switch (o.status) {
      case kOk:
        lat.push_back(ms_between(o.due, o.done));
        bytes += static_cast<double>(o.fp.length);
        ++ok;
        break;
      case kBusy: ++s.busy; break;
      case kExpired: ++s.expired; break;
      case kErrorReply: ++s.error_reply; break;
      case kTransport: ++s.transport; break;
      case kWrong: ++s.wrong; break;
    }
  }
  s.failed = s.attempted - ok;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double ms = out[i].status == kOk ? ms_between(out[i].due, out[i].done)
                                           : INFINITY;
    s.slowest.emplace_back(ms, describe(reqs[i]));
  }
  const std::size_t keep = std::min<std::size_t>(s.slowest.size(), 15);
  std::partial_sort(s.slowest.begin(), s.slowest.begin() + keep, s.slowest.end(),
                    std::greater<>());
  s.slowest.resize(keep);
  // A failed request misses every latency limit.
  for (std::size_t i = 0; i < s.failed; ++i) lat.push_back(INFINITY);
  s.p50 = percentile(lat, 0.50);
  s.p99 = percentile(lat, 0.99);
  if (!lat.empty()) {
    std::vector<double> sorted = lat;
    std::sort(sorted.begin(), sorted.end());
    s.p99_raw = sorted[std::min(sorted.size() - 1,
                                static_cast<std::size_t>(std::ceil(0.99 * sorted.size())) - 1)];
  }
  s.lateness_p99_ms = tail(late, 0.99);
  for (const Outcome& o : out) s.backlog_end += o.send > end_sched ? 1 : 0;
  s.seconds = static_cast<double>(last_done - start) / 1e9;
  s.reply_bytes_total = bytes;
  s.reply_bytes_mean = ok ? bytes / static_cast<double>(ok) : 0;
  const double error_rate =
      s.attempted ? static_cast<double>(s.failed) / static_cast<double>(s.attempted) : 1;
  s.pass = s.p99_raw <= slo_ms && error_rate <= 0.01 &&
           static_cast<double>(s.backlog_end) <= rate * slo_ms / 1e3;
  return s;
}

JsonObject phase_json(const PhaseStats& s) {
  JsonObject o;
  o.str("name", s.name)
      .num("rate", s.rate)
      .num("seconds", s.seconds)
      .num("attempted", static_cast<double>(s.attempted))
      .num("failed", static_cast<double>(s.failed))
      .num("busy", static_cast<double>(s.busy))
      .num("expired", static_cast<double>(s.expired))
      .num("error_reply", static_cast<double>(s.error_reply))
      .num("transport", static_cast<double>(s.transport))
      .num("wrong", static_cast<double>(s.wrong))
      .num("p50_ms", s.p50.value_or(NAN))
      .num("p99_ms", s.p99.value_or(NAN))
      .num("p99_raw_ms", s.p99_raw)
      .num("p99_samples_beyond",
           static_cast<double>(samples_beyond(s.attempted, 0.99)))
      .num("lateness_p99_ms", s.lateness_p99_ms)
      .num("backlog_end", static_cast<double>(s.backlog_end))
      .num("reply_bytes_mean", s.reply_bytes_mean)
      .num("pass", s.pass);
  std::string slowest = "[";
  for (const auto& [ms, what] : s.slowest) {
    slowest += (slowest.size() > 1 ? "," : "") +
               JsonObject().num("ms", ms).str("what", what).dump();
  }
  o.raw("slowest", slowest + "]");
  return o;
}

// --------------------------------------------------------- server child

/// The serving process, started from this binary and driven over pipes.
class ServerProcess {
 public:
  explicit ServerProcess(const Args& a) {
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      throw std::runtime_error("pipe failed");
    }
    std::vector<std::string> argv = {
        "lvqbench",  "serve",         "--workload", a.workload,
        "--seed",    std::to_string(a.seed), "--trace", a.trace ? "1" : "0",
        "--cache",   a.cache,         "--work",     a.work};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> cargv;
      for (std::string& s : argv) cargv.push_back(s.data());
      cargv.push_back(nullptr);
      ::execv("/proc/self/exe", cargv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_ = ::fdopen(to_child[1], "w");
    out_ = ::fdopen(from_child[0], "r");
  }
  ~ServerProcess() { finish(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::string read_line() {
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, out_)) {
      line += buf;
      if (!line.empty() && line.back() == '\n') {
        line.pop_back();
        return line;
      }
    }
    throw std::runtime_error("server exited: " + line);
  }

  std::string command(const std::string& cmd) {
    std::fprintf(in_, "%s\n", cmd.c_str());
    std::fflush(in_);
    return read_line();
  }

  /// Sends QUIT and waits for the server to exit; returns its exit status.
  int finish() {
    if (pid_ <= 0) return status_;
    std::fprintf(in_, "QUIT\n");
    std::fclose(in_);
    int st = 0;
    ::waitpid(pid_, &st, 0);
    std::fclose(out_);
    pid_ = -1;
    status_ = WIFEXITED(st) ? WEXITSTATUS(st) : 128;
    return status_;
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  FILE* in_ = nullptr;
  FILE* out_ = nullptr;
};

// ----------------------------------------------------------- reply checks

/// Verifies one sampled fresh-mix reply against the headers of the tip
/// that served it (read from the reply; a later tip would reject it).
bool verify_sample(const Request& req, const Bytes& reply,
                   const std::vector<lvq::BlockHeader>& headers,
                   const lvq::ProtocolConfig& config) {
  try {
    auto [type, body] = lvq::decode_envelope(ByteSpan{reply.data(), reply.size()});
    if (type != reply_type(req.kind)) return false;
    lvq::Reader r(body);
    auto light_at = [&](std::uint64_t tip) {
      if (tip == 0 || tip > headers.size()) {
        throw std::runtime_error("reply tip outside the synced chain");
      }
      lvq::LightNode ln(config);
      ln.set_headers(std::vector<lvq::BlockHeader>(headers.begin(),
                                                   headers.begin() + tip));
      return ln;
    };
    switch (req.kind) {
      case kPoint: {
        auto view = lvq::QueryResponseView::deserialize(r, config);
        return light_at(view.tip_height).verify(req.addresses[0], view).ok;
      }
      case kRange: {
        auto resp = lvq::RangeQueryResponse::deserialize(r, config);
        if (resp.from != req.from || resp.to != req.to) return false;
        return light_at(resp.tip_height).verify_range(req.addresses[0], resp).ok;
      }
      case kBatch: {
        if (r.varint() != req.addresses.size()) return false;
        for (const Address& a : req.addresses) {
          auto view = lvq::QueryResponseView::deserialize(r, config, false);
          if (!light_at(view.tip_height).verify(a, view).ok) return false;
        }
        r.expect_done();
        return true;
      }
      default: {
        auto resp = lvq::MultiQueryResponse::deserialize(r, config);
        for (const auto& o :
             light_at(resp.tip_height).verify_multi(req.addresses, resp)) {
          if (!o.ok) return false;
        }
        return true;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
}

struct Phase {
  std::string name;
  double rate = 0;
  bool traced = false;
  std::vector<Request> reqs;
  std::vector<Outcome> out;
  std::int64_t start = 0;
};

/// poll-zipf: every reply must equal (length and FNV) the reference
/// FullNode::handle_message reply for the same request, and each reference
/// must verify. Marks offending outcomes kWrong; returns distinct requests.
std::size_t check_poll(std::vector<Phase>& phases, ServerProcess& srv,
                       const Args& a) {
  std::map<std::uint32_t, Bytes> distinct;
  for (const Phase& p : phases) {
    for (const Request& r : p.reqs) distinct.emplace(r.key, r.bytes);
  }
  const std::string in_path = a.work + "/check_requests.bin";
  const std::string out_path = a.work + "/check_refs.txt";
  std::vector<std::uint32_t> keys;
  {
    std::ofstream in(in_path, std::ios::binary);
    for (const auto& [key, bytes] : distinct) {
      const auto len = static_cast<std::uint32_t>(bytes.size());
      in.write(reinterpret_cast<const char*>(&len), sizeof len);
      in.write(reinterpret_cast<const char*>(bytes.data()), len);
      keys.push_back(key);
    }
  }
  srv.command("CHECK " + in_path + " " + out_path);
  std::map<std::uint32_t, std::pair<Fingerprint, bool>> refs;
  std::ifstream refs_in(out_path);
  std::size_t idx = 0;
  Fingerprint fp;
  int ok = 0;
  while (refs_in >> idx >> fp.length >> fp.fnv >> ok) {
    refs[keys.at(idx)] = {fp, ok == 1};
  }
  for (Phase& p : phases) {
    for (std::size_t i = 0; i < p.out.size(); ++i) {
      Outcome& o = p.out[i];
      if (o.status != kOk) continue;
      auto it = refs.find(p.reqs[i].key);
      if (it == refs.end() || !it->second.second || !(it->second.first == o.fp)) {
        o.status = kWrong;
      }
    }
  }
  return distinct.size();
}

/// fresh-mix-append: verifies the kept sample after the window.
std::size_t check_fresh(std::vector<Phase>& phases, std::uint16_t port) {
  const lvq::ProtocolConfig config = paper_config();
  lvq::TcpTransport t(port);
  lvq::LightNode ln(config);
  if (!ln.sync_headers(t)) throw std::runtime_error("header sync failed");
  const std::vector<lvq::BlockHeader>& headers = ln.headers();
  std::vector<std::pair<Phase*, std::size_t>> sample;
  for (Phase& p : phases) {
    for (std::size_t i = 0; i < p.out.size(); ++i) {
      if (p.out[i].status == kOk && !p.out[i].kept.empty()) sample.push_back({&p, i});
    }
  }
  lvq::ThreadPool pool(nproc());
  pool.parallel_for(sample.size(), [&](std::uint64_t k) {
    auto [p, i] = sample[k];
    if (!verify_sample(p->reqs[i], p->out[i].kept, headers, config)) {
      p->out[i].status = kWrong;
    }
    p->out[i].kept = Bytes();
  });
  return sample.size();
}

/// Interpolates the highest offered rate meeting the SLO between the last
/// passing and the first failing step, on their p99s.
double slo_rate(const std::vector<PhaseStats>& steps, double slo_ms) {
  double best = 0, best_p99 = 0;
  for (const PhaseStats& s : steps) {
    if (s.pass) {
      best = s.rate;
      best_p99 = s.p99_raw;
      continue;
    }
    if (s.p99_raw > slo_ms && s.p99_raw > best_p99) {
      const double f = (slo_ms - best_p99) / (s.p99_raw - best_p99);
      return best + (s.rate - best) * std::clamp(f, 0.0, 1.0);
    }
    return best;
  }
  return best;
}

// ------------------------------------------------------- socket workloads

int run_serving(const Args& a) {
  const bool poll = a.workload == "poll-zipf";
  const double rate = poll ? kPollRate : kFreshRate;
  const double slo_ms = poll ? kPollSloMs : kFreshSloMs;
  prepare_cache(a.cache);
  const Panel panel = load_panel(a.cache);

  ServerProcess srv(a);
  const std::string ready = srv.read_line();
  std::cout << ready << std::endl;
  const auto port = static_cast<std::uint16_t>(json_number(ready, "port"));
  const auto tip = static_cast<std::uint64_t>(json_number(ready, "tip"));

  // The load connections are opened first, so the server's accept order
  // (and so its connection ordinals in the trace) matches their indices.
  std::vector<std::unique_ptr<lvq::TcpTransport>> conns;
  for (unsigned c = 0; c < nproc(); ++c) {
    conns.push_back(std::make_unique<lvq::TcpTransport>(port));
  }
  std::vector<std::uint64_t> conn_seq(conns.size(), 0);
  RequestSource source(a.workload, panel, a.seed, tip);

  auto run_phase = [&](const std::string& name, double r, std::size_t count,
                       bool traced) {
    Phase p;
    p.name = name;
    p.rate = r;
    p.traced = traced;
    p.reqs = source.next(r, count);
    std::vector<char> keep(p.reqs.size(), 0);
    if (!poll) {
      for (std::size_t i = 0; i < keep.size(); i += kFreshSampleEvery) keep[i] = 1;
    }
    if (traced) {
      srv.command("TRACE 1");
      std::fill(conn_seq.begin(), conn_seq.end(), 0);
    }
    p.out = drive(conns, p.reqs, keep, traced, conn_seq, &p.start);
    if (traced) srv.command("TRACE 0");
    return p;
  };

  std::vector<Phase> phases;
  if (a.trace) srv.command("TRACE 0");
  // Warm-up lets the response and segment caches reach their steady state
  // before timing; it is checked but not reported.
  if (poll) {
    phases.push_back(run_phase(
        "warmup", rate, static_cast<std::size_t>(rate * kPollWarmupSeconds), false));
  }
  std::cout << srv.command("GO") << std::endl;
  const std::int64_t window_start = now_ns();
  if (a.trace) {
    // The same offered load without and with spans: the difference is
    // the tracing overhead.
    phases.push_back(run_phase("fixed", rate, kOverheadRequests, false));
    phases.push_back(run_phase("fixed-traced", rate, kFixedRequests, true));
  } else {
    // Longer runs measure more requests at the offered rate; shorter ones
    // never fewer than a p99 needs.
    const auto fixed_n = std::max(
        kFixedRequests, static_cast<std::size_t>(rate * a.seconds * kFixedShare));
    phases.push_back(run_phase("fixed", rate, fixed_n, false));
    for (const double r : poll ? kPollLadder : kFreshLadder) {
      phases.push_back(run_phase("sweep", r, kStepRequests, false));
      // Stop at the first step that misses the SLO: higher rates only
      // pile up work.
      const Phase& p = phases.back();
      if (!summarize(p.name, r, p.reqs, p.out, p.start, slo_ms).pass) break;
    }
  }
  const double window_s = static_cast<double>(now_ns() - window_start) / 1e9;
  const std::string window = srv.command("STOP");
  std::cout << window << std::endl;

  const std::size_t checked = poll ? check_poll(phases, srv, a)
                                   : check_fresh(phases, port);
  std::string replay;
  if (a.trace) {
    replay = srv.command("REPLAY");
    std::cout << replay << std::endl;
  }
  conns.clear();
  const int server_status = srv.finish();

  std::vector<PhaseStats> stats;
  std::size_t wrong = 0, total_attempted = 0;
  for (const Phase& p : phases) {
    stats.push_back(summarize(p.name, p.rate, p.reqs, p.out, p.start, slo_ms));
    emit("phase", phase_json(stats.back()));
    wrong += stats.back().wrong;
    total_attempted += stats.back().attempted;
  }
  const PhaseStats* fixed = nullptr;
  const PhaseStats* traced = nullptr;
  std::vector<PhaseStats> ladder;
  for (const PhaseStats& s : stats) {
    if (s.name == "fixed") fixed = &s;
    if (s.name == "fixed-traced") traced = &s;
    if (s.name == "fixed" || s.name == "sweep") ladder.push_back(s);
  }
  // Counted requests: the fixed phase, plus its traced copy in a traced run.
  const std::size_t attempted = fixed->attempted + (traced ? traced->attempted : 0);
  const std::size_t failed = fixed->failed + (traced ? traced->failed : 0);

  JsonObject res;
  res.str("workload", a.workload)
      .str("sync_mode", sync_mode_name())
      .str("sha256_backend", lvq::Sha256::backend())
      .num("seed", static_cast<double>(a.seed))
      .num("offered_rate", rate)
      .num("slo_ms", slo_ms)
      .num("window_s", window_s)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("wrong_replies_all_phases", static_cast<double>(wrong))
      .num("requests_all_phases", static_cast<double>(total_attempted))
      .num("replies_checked", static_cast<double>(checked))
      .num("server_exit", server_status)
      .num("p50_ms", fixed->p50.value_or(NAN))
      .num("p99_ms", fixed->p99.value_or(NAN))
      .num("error_rate", static_cast<double>(fixed->failed) /
                             static_cast<double>(fixed->attempted))
      .num("reply_kb_per_query", fixed->reply_bytes_mean / 1024.0)
      .num("lateness_p99_ms", fixed->lateness_p99_ms)
      .num("backlog_end", static_cast<double>(fixed->backlog_end));
  if (!a.trace) res.num("slo_qps", slo_rate(ladder, slo_ms));
  if (traced) {
    res.num("traced_p50_ms", traced->p50.value_or(NAN))
        .num("traced_p99_ms", traced->p99.value_or(NAN))
        .num("net.reply_mb_per_s",
             traced->reply_bytes_total / 1e6 / std::max(traced->seconds, 1e-9));
    // Pair each traced round trip with the server's handler span for the
    // same (connection, sequence).
    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> handler;
    std::ifstream hin(a.work + "/handler_spans.txt");
    std::uint64_t id = 0;
    std::int64_t h0 = 0, h1 = 0;
    while (hin >> id >> h0 >> h1) handler[id] = {h0, h1};
    Tracer spans;
    spans.set_enabled(true);
    std::vector<double> rtt, hms;
    std::vector<std::uint64_t> matched_roots;
    std::size_t unmatched = 0;
    for (const Phase& p : phases) {
      if (!p.traced) continue;
      for (const Outcome& o : p.out) {
        const std::uint64_t root =
            spans.record("net.round_trip", o.send, o.done, 0, o.trace_id);
        rtt.push_back(ms_between(o.send, o.done));
        auto it = handler.find(o.trace_id);
        if (it == handler.end() || it->second.first < o.send ||
            it->second.second > o.done) {
          ++unmatched;
          continue;
        }
        spans.record("server.handler", it->second.first, it->second.second,
                     root, o.trace_id);
        hms.push_back(ms_between(it->second.first, it->second.second));
        matched_roots.push_back(root);
      }
    }
    // The socket path's share: each round trip minus its handler child.
    const std::vector<Span> all = spans.spans();
    const std::vector<double> self_all = self_times_ms(all);
    std::vector<double> self;
    for (std::uint64_t root : matched_roots) self.push_back(self_all[root - 1]);
    spans.write_jsonl(a.work + "/client_spans.jsonl");
    res.num("net.rtt_ms.p50", percentile(rtt, 0.5).value_or(NAN))
        .num("net.rtt_ms.p99", percentile(rtt, 0.99).value_or(NAN))
        .num("net.self_ms.p50", percentile(self, 0.5).value_or(NAN))
        .num("net.self_ms.p99", percentile(self, 0.99).value_or(NAN))
        .num("server.handler_ms.p50", percentile(hms, 0.5).value_or(NAN))
        .num("server.handler_ms.p99", percentile(hms, 0.99).value_or(NAN))
        .num("trace_unmatched", static_cast<double>(unmatched));
  }
  emit("result", res);
  return 0;
}

// ------------------------------------------------------------ light-verify

/// Replay transport that records each round trip's interval for the span
/// of the light-node call that made it.
class TimedReplay final : public lvq::Transport {
 public:
  explicit TimedReplay(ReplayTransport& inner) : inner_(inner) {}
  Bytes round_trip(ByteSpan request) override {
    t0 = now_ns();
    Bytes reply = inner_.round_trip(request);
    t1 = now_ns();
    bytes_received_ += reply.size();
    return reply;
  }
  std::int64_t t0 = 0, t1 = 0;

 private:
  ReplayTransport& inner_;
};

struct Call {
  int kind = kPoint;
  std::vector<Address> addresses;
  std::uint64_t from = 0, to = 0;
  Bytes bytes;
};

/// One LightNode call; true when every outcome verified.
bool light_call(const lvq::LightNode& ln, lvq::Transport& t, const Call& c) {
  try {
    switch (c.kind) {
      case kPoint: return ln.query(t, c.addresses[0]).outcome.ok;
      case kRange:
        return ln.query_range(t, c.addresses[0], c.from, c.to).outcome.ok;
      case kBatch:
        for (const auto& r : ln.query_batch(t, c.addresses)) {
          if (!r.outcome.ok) return false;
        }
        return true;
      default:
        for (const auto& o : ln.query_multi(t, c.addresses).outcomes) {
          if (!o.ok) return false;
        }
        return true;
    }
  } catch (const std::exception&) {
    return false;
  }
}

int run_light(const Args& a) {
  prepare_cache(a.cache);
  const Panel panel = load_panel(a.cache);
  const lvq::ProtocolConfig config = paper_config();
  // The recorded sample is the same in every run, so reply sizes and
  // verify costs do not change with the seed; the seed orders the calls.
  Rng sample_rng(kLightSampleSeed);
  Rng rng(substream(a.seed, 3));

  // The request sample: the six profiles plus seeded background shapes.
  std::vector<std::vector<Call>> pools(14);
  for (int p = 0; p < 6; ++p) {
    pools[p].push_back(Call{kPoint, {panel.profiles[p]}, 0, 0, {}});
  }
  auto bg = [&](std::size_t k) {
    return sample_addresses(panel.background, sample_rng, k);
  };
  JsonObject res;
  ReplayTransport replay;
  {
    // Frames are recorded from FullNode::handle_message on the cached
    // store before timing; the node is gone before the window opens.
    const std::int64_t t0 = now_ns();
    auto store = lvq::DiskChainStore::open(
        a.cache + "/store", config, lvq::DiskChainStore::Options{true, kSyncMode});
    const std::int64_t t1 = now_ns();
    lvq::FullNode full(store->load_context());
    const std::int64_t t2 = now_ns();
    res.num("store.open_s", ms_between(t0, t1) / 1e3)
        .num("store.load_context_s", ms_between(t1, t2) / 1e3)
        .num("store.rss_after_reopen_mb",
             static_cast<double>(proc_status_kb("VmRSS")) / 1024.0);
    const std::uint64_t tip = full.tip_height();
    for (int i = 0; i < kLightPoints; ++i) {
      pools[10].push_back(Call{kPoint, bg(1), 0, 0, {}});
    }
    // Shapes as in fresh-mix-append: ranges of 16..4096 blocks ending at
    // the tip, batches and multis of 2..8 addresses, each size twice.
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t len = std::min<std::uint64_t>(tip, 16ull << (2 * (i % 5)));
      pools[11].push_back(Call{kRange, bg(1), tip + 1 - len, tip, {}});
    }
    for (std::size_t size = 2; size <= 8; ++size) {
      for (int twice = 0; twice < 2; ++twice) {
        pools[12].push_back(Call{kBatch, bg(size), 0, 0, {}});
        pools[13].push_back(Call{kMulti, bg(size), 0, 0, {}});
      }
    }
    std::vector<Call*> all;
    for (auto& pool : pools) {
      for (Call& c : pool) {
        switch (c.kind) {
          case kPoint: c.bytes = point_request(c.addresses[0]); break;
          case kRange: c.bytes = range_request(c.addresses[0], c.from, c.to); break;
          case kBatch: c.bytes = batch_request(c.addresses); break;
          default: c.bytes = multi_request(c.addresses);
        }
        all.push_back(&c);
      }
    }
    std::vector<Bytes> replies(all.size());
    lvq::ThreadPool pool(nproc());
    pool.parallel_for(all.size(), [&](std::uint64_t i) {
      replies[i] = full.handle_message(ByteSpan{all[i]->bytes.data(),
                                                all[i]->bytes.size()});
    });
    for (std::size_t i = 0; i < all.size(); ++i) {
      replay.record(all[i]->bytes, std::move(replies[i]));
    }
    Bytes hreq = lvq::encode_envelope(lvq::MsgType::kHeadersRequest, {});
    replay.record(hreq, full.handle_message(ByteSpan{hreq.data(), hreq.size()}));
  }

  // The wallet verifies serially. A pool adds nothing on one call (see
  // node.verify_pool_speedup, measured with and without one in the traced
  // run), and a fork-join over every core of a shared host waits on
  // whichever core the host has taken away, so it measured the neighbours.
  std::vector<double> setup_s;
  std::unique_ptr<lvq::LightNode> ln;
  for (std::uint32_t rep = 0; rep < kLightSetups; ++rep) {
    ln = std::make_unique<lvq::LightNode>(config);
    const std::int64_t t0 = now_ns();
    if (!ln->sync_headers(replay)) throw std::runtime_error("header sync failed");
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }

  // Per 100 calls: Addr1..Addr3 x2 each, Addr4 x1, Addr5 x1, Addr6 x2,
  // 50 background points, 16 ranges, 12 batches, 12 multis. Addr6 is the
  // slowest call at 2%, so p99 falls inside its cluster.
  std::vector<int> deck = {0, 0, 1, 1, 2, 2, 3, 4, 5, 5};
  deck.insert(deck.end(), 50, 10);
  deck.insert(deck.end(), 16, 11);
  deck.insert(deck.end(), 12, 12);
  deck.insert(deck.end(), 12, 13);

  // Each pool is walked round robin in a seeded order, so every recorded
  // request runs equally often (to within one) in every run: the seed
  // orders the calls but does not change the mix. A call's key is its
  // index among all recorded requests.
  struct Walk {
    std::vector<std::size_t> order;
    std::size_t next = 0;
    std::uint32_t first_key = 0;
  };
  std::vector<Walk> walks(pools.size());
  for (std::size_t p = 0, key = 0; p < pools.size(); key += pools[p].size(), ++p) {
    walks[p].order = sample_distinct(rng, pools[p].size(), pools[p].size());
    walks[p].first_key = static_cast<std::uint32_t>(key);
  }

  struct Loop {
    std::vector<std::uint32_t> keys;
    std::vector<double> lat;
    std::size_t failed = 0;
    double bytes = 0;
    double elapsed_s = 0;
  };
  Tracer tracer;
  std::vector<int> kinds;
  std::size_t next_kind = 0;
  // Calls until `seconds` have passed or `max_calls` ran, whichever is first.
  auto run_loop = [&](double seconds, std::size_t max_calls, bool traced) {
    Loop out;
    TimedReplay t(replay);
    tracer.set_enabled(traced);
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t id = traced ? 1ull << 41 : 0;
    while (now_ns() < end && out.lat.size() < max_calls) {
      if (next_kind == kinds.size()) {
        kinds = deck_sequence(rng, deck, deck.size());
        next_kind = 0;
      }
      const auto p = static_cast<std::size_t>(kinds[next_kind++]);
      Walk& walk = walks[p];
      const std::size_t i = walk.order[walk.next++ % walk.order.size()];
      const Call& c = pools[p][i];
      const std::uint64_t before = t.bytes_received();
      const std::int64_t t0 = now_ns();
      const bool ok = light_call(*ln, t, c);
      const std::int64_t t1 = now_ns();
      out.keys.push_back(walk.first_key + static_cast<std::uint32_t>(i));
      out.lat.push_back(ok ? ms_between(t0, t1) : INFINITY);
      out.failed += ok ? 0 : 1;
      out.bytes += static_cast<double>(t.bytes_received() - before);
      if (traced) {
        ++id;
        const std::uint64_t root = tracer.record("node.light_call", t0, t1, 0, id);
        tracer.record("net.replay_round_trip", t.t0, t.t1, root, id);
      }
    }
    out.elapsed_s = ms_between(start, now_ns()) / 1e3;
    tracer.set_enabled(false);
    return out;
  };
  // Latency percentiles and the rate are taken over each call's typical
  // latency, the median of its request's repeats in the window (see
  // typical_by_key); the raw figures go into the report beside them.
  struct Summary {
    std::optional<double> p50, p99;
    double qps = 0;
  };
  auto summarize = [](const Loop& l) {
    const std::vector<double> typical = typical_by_key(l.keys, l.lat);
    double total_ms = 0;
    for (double v : typical) total_ms += v;
    return Summary{percentile(typical, 0.5), percentile(typical, 0.99),
                   static_cast<double>(typical.size()) / (total_ms / 1e3)};
  };

  // Warm-up: whole decks, untimed, so first-touch faults and allocator
  // growth stay out of the window. Their outcomes are checked all the same.
  const Loop warm = run_loop(a.seconds, kLightWarmupDecks * deck.size(), false);

  // Hand the recording node's freed heap back first, so the peak below is
  // the light node's own.
  ::malloc_trim(0);
  const bool hwm_reset = reset_peak_rss();
  const ProcCounters proc0 = proc_counters();
  const double loop_s = a.trace ? a.seconds / 2 : a.seconds;
  const Loop timed = run_loop(loop_s, SIZE_MAX, false);
  const ProcCounters proc1 = proc_counters();
  const double peak_mb = static_cast<double>(proc_status_kb("VmHWM")) / 1024.0;
  const Summary sum = summarize(timed);
  const auto& lat = timed.lat;
  const double n = static_cast<double>(lat.size());

  res.str("workload", a.workload)
      .str("sync_mode", sync_mode_name())
      .str("sha256_backend", lvq::Sha256::backend())
      .num("seed", static_cast<double>(a.seed))
      .num("window_s", timed.elapsed_s)
      .num("attempted", n)
      .num("failed", static_cast<double>(timed.failed))
      .num("wrong_replies_all_phases", static_cast<double>(timed.failed + warm.failed))
      .num("requests_all_phases", n + static_cast<double>(warm.lat.size()))
      .num("replies_checked", n + static_cast<double>(warm.lat.size()))
      .num("server_exit", 0)
      .num("setup_s", median(setup_s))
      .num("p50_ms", sum.p50.value_or(NAN))
      .num("p99_ms", sum.p99.value_or(NAN))
      .num("p99_samples_beyond", static_cast<double>(samples_beyond(lat.size(), 0.99)))
      .num("verify_qps", sum.qps)
      .num("raw_p50_ms", percentile(lat, 0.5).value_or(NAN))
      .num("raw_p99_ms", percentile(lat, 0.99).value_or(NAN))
      .num("raw_verify_qps", n / timed.elapsed_s)
      .num("error_rate", static_cast<double>(timed.failed) / n)
      .num("reply_kb_per_query", timed.bytes / n / 1024.0)
      .num("peak_rss_mb", peak_mb)
      .num("hwm_reset", hwm_reset)
      .num("recorded_frames", static_cast<double>(replay.size()))
      .num("proc.cpu_ms_per_query", (proc1.cpu_ms - proc0.cpu_ms) / n)
      .num("proc.minflt", static_cast<double>(proc1.minflt - proc0.minflt))
      .num("proc.majflt", static_cast<double>(proc1.majflt - proc0.majflt))
      .num("proc.nivcsw", static_cast<double>(proc1.nivcsw - proc0.nivcsw));

  if (a.trace) {
    const Loop traced = run_loop(loop_s, SIZE_MAX, true);
    const Summary tsum = summarize(traced);
    res.num("traced_p50_ms", tsum.p50.value_or(NAN))
        .num("traced_p99_ms", tsum.p99.value_or(NAN))
        .num("traced_failed", static_cast<double>(traced.failed));
    ln.reset();
    replay = ReplayTransport();
    tracer.set_enabled(true);
    auto store = lvq::DiskChainStore::open(
        a.cache + "/store", config, lvq::DiskChainStore::Options{true, kSyncMode});
    lvq::FullNode full(store->load_context());
    JsonObject layers;
    const bool ok = replay_layers(full, panel, a.seed, tracer, layers);
    layers.num("ok", ok);
    std::cout << JsonObject().raw("replay", layers.dump()).dump() << std::endl;
    tracer.write_jsonl(a.work + "/client_spans.jsonl");
  }
  emit("result", res);
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: lvqbench run|serve ...");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--cache") a.cache = v;
    else if (k == "--work") a.work = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  const bool needs_workload = a.mode != "prepare";
  if (a.cache.empty() ||
      (needs_workload && (a.workload.empty() || a.work.empty()))) {
    throw std::invalid_argument("--workload, --cache and --work are required");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse(argc, argv);
    if (!a.work.empty()) std::filesystem::create_directories(a.work);
    if (a.mode == "serve") return serve_main(a);
    if (a.mode == "prepare") {
      prepare_cache(a.cache);
      return 0;
    }
    if (a.mode != "run") throw std::invalid_argument("unknown mode " + a.mode);
    if (a.workload == "light-verify") return run_light(a);
    if (a.workload == "poll-zipf" || a.workload == "fresh-mix-append") {
      return run_serving(a);
    }
    throw std::invalid_argument("unknown workload " + a.workload);
  } catch (const std::exception& e) {
    std::cerr << "lvqbench: " << e.what() << "\n";
    return 1;
  }
}
