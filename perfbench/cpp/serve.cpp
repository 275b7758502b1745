// Serving side of the two socket workloads, run as its own process so its
// peak RSS and CPU are the server's alone. The stack is wired exactly as
// `lvqtool serve` wires it: DiskChainStore -> FullNode -> ServingEngine ->
// ReactorServer with the serve defaults. The load generator drives it over
// stdin/stdout, one command per line, one JSON reply line per command:
//
//   (start)      -> {"ready":...}    set-up done, port and set-up timings
//   TRACE 0|1    -> {"trace":...}    toggles handler spans, restarts seqs
//   GO           -> {"go":...}       window opens (appends start)
//   STOP         -> {"window":...}   window closes: counters and peaks
//   CHECK in out -> {"checked":...}  reference replies for `in`, into `out`
//   REPLAY       -> {"replay":...}   per-layer replay (traced run)
//   QUIT         -> exits after writing spans
#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench_lib.hpp"
#include "core/chain_builder.hpp"
#include "core/query_view.hpp"
#include "layers.hpp"
#include "main.hpp"
#include "net/message.hpp"
#include "net/reactor_server.hpp"
#include "node/light_node.hpp"
#include "server/serving_engine.hpp"
#include "stack.hpp"
#include "store/disk_chain_store.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace {

double secs(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

double millis(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

void reply(const JsonObject& o) {
  std::cout << o.dump() << std::endl;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

/// Server handler spans, keyed by connection and per-connection sequence
/// so the load generator can pair each with its own round trip.
class HandlerLog {
 public:
  std::uint64_t begin(lvq::ConnId conn) {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_[conn]++;
  }
  void end(lvq::ConnId conn, std::uint64_t seq, std::int64_t t0,
           std::int64_t t1) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back({conn, seq, t0, t1});
  }
  void restart() {
    std::lock_guard<std::mutex> lock(mu_);
    seq_.clear();
  }
  /// Writes "request t0 t1" lines; a request id is (ordinal of the
  /// connection by accept order) << 32 | seq, matching the client's ids.
  void write(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<lvq::ConnId, std::uint64_t> ordinal;
    for (const Row& r : rows_) ordinal[r.conn] = 0;
    std::uint64_t next = 0;
    for (auto& [conn, ord] : ordinal) ord = next++;
    std::ofstream out(path);
    for (const Row& r : rows_) {
      out << ((ordinal[r.conn] << 32) | r.seq) << " " << r.t0 << " " << r.t1
          << "\n";
    }
  }

 private:
  struct Row {
    lvq::ConnId conn;
    std::uint64_t seq;
    std::int64_t t0, t1;
  };
  std::mutex mu_;
  std::map<lvq::ConnId, std::uint64_t> seq_;
  std::vector<Row> rows_;
};

/// Appends one pre-generated block every `interval_ms` through
/// FullNode::append_blocks (writing through to the store), then rebinds
/// the engine, until stopped or out of blocks.
class Appender {
 public:
  Appender(lvq::FullNode& node, lvq::ServingEngine& engine,
           lvq::DiskChainStore& store,
           std::vector<std::vector<lvq::Transaction>> blocks,
           std::uint32_t interval_ms, Tracer& tracer)
      : node_(node), engine_(engine), store_(store),
        blocks_(std::move(blocks)), interval_ms_(interval_ms),
        tracer_(tracer), thread_([this] { loop(); }) {}
  ~Appender() { stop(); }
  Appender(const Appender&) = delete;
  Appender& operator=(const Appender&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> append_ms, rebind_ms, total_ms, bytes;
  std::string error;

 private:
  void loop() {
    auto next = std::chrono::steady_clock::now();
    for (auto& block : blocks_) {
      next += std::chrono::milliseconds(interval_ms_);
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this] { return stopping_; })) return;
      }
      try {
        const std::uint64_t before = store_.info().total_bytes;
        lvq::ChainBuildOptions opts;
        opts.store = &store_;
        const std::int64_t t0 = now_ns();
        std::vector<std::vector<lvq::Transaction>> one;
        one.push_back(std::move(block));
        node_.append_blocks(std::move(one), opts);
        const std::int64_t t1 = now_ns();
        engine_.rebind();
        const std::int64_t t2 = now_ns();
        const std::uint64_t req = (3ull << 40) + append_ms.size();
        const std::uint64_t root = tracer_.record("append", t0, t2, 0, req);
        tracer_.record("node.append_blocks", t0, t1, root, req);
        tracer_.record("server.rebind", t1, t2, root, req);
        append_ms.push_back(millis(t0, t1));
        rebind_ms.push_back(millis(t1, t2));
        total_ms.push_back(millis(t0, t2));
        bytes.push_back(static_cast<double>(store_.info().total_bytes - before));
      } catch (const std::exception& e) {
        error = e.what();
        return;
      }
    }
  }

  lvq::FullNode& node_;
  lvq::ServingEngine& engine_;
  lvq::DiskChainStore& store_;
  std::vector<std::vector<lvq::Transaction>> blocks_;
  std::uint32_t interval_ms_;
  Tracer& tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

/// Reference check: for each request in `in` (u32 length + bytes), the
/// FullNode::handle_message reply's fingerprint, and whether a LightNode
/// verifies it. Output lines: "index length fnv ok".
std::size_t check_references(const lvq::FullNode& node,
                             const std::string& in_path,
                             const std::string& out_path) {
  std::ifstream in(in_path, std::ios::binary);
  std::vector<Bytes> requests;
  std::uint32_t len = 0;
  while (in.read(reinterpret_cast<char*>(&len), sizeof len)) {
    Bytes r(len);
    in.read(reinterpret_cast<char*>(r.data()), len);
    requests.push_back(std::move(r));
  }
  lvq::LightNode light(node.config());
  light.set_headers(node.headers());
  std::vector<Fingerprint> fps(requests.size());
  std::vector<char> ok(requests.size(), 0);
  lvq::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  pool.parallel_for(requests.size(), [&](std::uint64_t i) {
    const Bytes& req = requests[i];
    Bytes rep = node.handle_message(ByteSpan{req.data(), req.size()});
    fps[i] = fingerprint(ByteSpan{rep.data(), rep.size()});
    try {
      auto [rtype, payload] = lvq::decode_envelope(ByteSpan{req.data(), req.size()});
      auto [type, body] = lvq::decode_envelope(ByteSpan{rep.data(), rep.size()});
      if (rtype != lvq::MsgType::kQueryRequest ||
          type != lvq::MsgType::kQueryResponse) {
        return;
      }
      lvq::Reader rr(payload);
      const Address a = Address::deserialize(rr);
      lvq::Reader r(body);
      auto view = lvq::QueryResponseView::deserialize(r, node.config());
      ok[i] = light.verify(a, view).ok ? 1 : 0;
    } catch (const std::exception&) {
      ok[i] = 0;
    }
  });
  std::ofstream out(out_path);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out << i << " " << fps[i].length << " " << fps[i].fnv << " "
        << static_cast<int>(ok[i]) << "\n";
  }
  return requests.size();
}

}  // namespace

int serve_main(const Args& args) {
  const bool fresh = args.workload == "fresh-mix-append";
  if (!fresh && args.workload != "poll-zipf") {
    std::cerr << "serve: unknown workload " << args.workload << "\n";
    return 2;
  }
  Tracer tracer;
  tracer.set_enabled(args.trace);
  const lvq::ProtocolConfig config = paper_config();
  const Panel panel = load_panel(args.cache);
  const std::string store_dir =
      fresh ? args.work + "/store" : args.cache + "/store";

  // Workload generation is input preparation, not set-up: it happens
  // before the set-up clock starts.
  std::shared_ptr<const lvq::Workload> workload;
  std::vector<std::vector<lvq::Transaction>> appends;
  if (fresh) {
    workload = std::make_shared<const lvq::Workload>(
        lvq::generate_workload(lvq::WorkloadConfig{}));
    appends = extra_blocks(substream(args.seed, 11), kFreshAppends);
  }

  HandlerLog handler_log;
  std::unique_ptr<lvq::DiskChainStore> store;
  std::unique_ptr<lvq::FullNode> full;
  std::unique_ptr<lvq::ServingEngine> engine;
  std::unique_ptr<lvq::ReactorServer> server;
  // lvqtool serve's handler, with a span around submit -> completion when
  // tracing.
  auto handler = [&](lvq::ConnId conn, ByteSpan req,
                     lvq::ReactorServer::CompletionFn done) {
    if (!tracer.enabled()) {
      engine->submit(conn, req, std::move(done));
      return;
    }
    const std::uint64_t seq = handler_log.begin(conn);
    const std::int64_t t0 = now_ns();
    engine->submit(conn, req,
                   [&handler_log, conn, seq, t0,
                    done = std::move(done)](Bytes reply) mutable {
                     handler_log.end(conn, seq, t0, now_ns());
                     done(std::move(reply));
                   });
  };

  std::vector<double> setup_s, open_s, load_s, derive_s, build_s;
  lvq::DiskChainStore::Info store_info;
  const std::uint32_t setups = fresh ? kFreshSetups : kPollSetups;
  for (std::uint32_t rep = 0; rep < setups; ++rep) {
    server.reset();
    engine.reset();
    full.reset();
    store.reset();
    if (fresh) remove_tree(store_dir);
    const std::uint64_t req = (2ull << 40) + rep;
    const std::int64_t t0 = now_ns();
    std::shared_ptr<const lvq::ChainContext> ctx;
    store = lvq::DiskChainStore::open(
        store_dir, config, lvq::DiskChainStore::Options{false, kSyncMode});
    const std::int64_t t1 = now_ns();
    std::int64_t t2 = t1, t3 = t1;
    if (fresh) {
      auto derived = std::make_shared<const lvq::WorkloadDerived>(*workload);
      t2 = now_ns();
      lvq::ChainBuildOptions bopts;
      bopts.store = store.get();
      ctx = lvq::ChainBuilder::build(workload, derived, config, bopts);
      t3 = now_ns();
      derive_s.push_back(secs(t1, t2));
      build_s.push_back(secs(t2, t3));
    } else {
      ctx = store->load_context();
      t3 = t2 = now_ns();
      store_info = store->info();
      // A store-only server never writes; lvqtool serve drops the handle.
      store.reset();
      load_s.push_back(secs(t1, t2));
    }
    open_s.push_back(secs(t0, t1));
    full = std::make_unique<lvq::FullNode>(ctx);
    lvq::ServingEngineOptions eopts;  // lvqtool serve defaults
    eopts.workers = 4;
    eopts.queue_depth = 64;
    eopts.cache_bytes = 64ull << 20;
    engine = std::make_unique<lvq::ServingEngine>(*full, eopts);
    lvq::ReactorServerOptions sopts;
    sopts.io_threads = 1;
    sopts.events = &engine->metrics();
    server = std::make_unique<lvq::ReactorServer>(handler, sopts);
    const std::int64_t t4 = now_ns();
    setup_s.push_back(secs(t0, t4));
    const std::uint64_t root = tracer.record("setup", t0, t4, 0, req);
    tracer.record("store.open", t0, t1, root, req);
    if (fresh) {
      tracer.record("core.derive", t1, t2, root, req);
      tracer.record("core.build", t2, t3, root, req);
    } else {
      tracer.record("store.load_context", t1, t2, root, req);
    }
    tracer.record("server.start", t3, t4, root, req);
  }

  {
    JsonObject ready;
    ready.num("port", server->port())
        .num("tip", static_cast<double>(full->tip_height()))
        .raw("setup_s", json_list(setup_s))
        .raw("open_s", json_list(open_s))
        .raw("load_context_s", json_list(load_s))
        .raw("derive_s", json_list(derive_s))
        .raw("build_s", json_list(build_s))
        .num("rss_after_setup_mb",
             static_cast<double>(proc_status_kb("VmRSS")) / 1024.0);
    if (store) store_info = store->info();
    double block_bytes = 0;
    for (const auto& c : store_info.columns) {
      if (c.name == "blocks") block_bytes = static_cast<double>(c.bytes);
    }
    ready.num("store_total_bytes", static_cast<double>(store_info.total_bytes))
        .num("store_blocks_bytes", block_bytes);
    reply(JsonObject().raw("ready", ready.dump()));
  }

  lvq::MetricsSnapshot snap0;
  std::uint64_t shed0 = 0;
  ProcCounters proc0;
  std::unique_ptr<Appender> appender;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.rfind("TRACE ", 0) == 0) {
      tracer.set_enabled(line.substr(6) == "1");
      handler_log.restart();
      reply(JsonObject().num("trace", tracer.enabled()));
    } else if (line == "GO") {
      snap0 = engine->snapshot();
      shed0 = server->backpressure_sheds();
      const bool reset = reset_peak_rss();
      proc0 = proc_counters();
      if (fresh) {
        appender = std::make_unique<Appender>(*full, *engine, *store,
                                              std::move(appends),
                                              kFreshAppendIntervalMs, tracer);
      }
      reply(JsonObject().raw("go", JsonObject().num("hwm_reset", reset).dump()));
    } else if (line == "STOP") {
      if (appender) appender->stop();
      const ProcCounters proc1 = proc_counters();
      const lvq::MetricsSnapshot s = engine->snapshot();
      JsonObject w;
      w.num("peak_rss_mb", static_cast<double>(proc_status_kb("VmHWM")) / 1024.0)
          .num("cpu_ms", proc1.cpu_ms - proc0.cpu_ms)
          .num("minflt", static_cast<double>(proc1.minflt - proc0.minflt))
          .num("majflt", static_cast<double>(proc1.majflt - proc0.majflt))
          .num("nivcsw", static_cast<double>(proc1.nivcsw - proc0.nivcsw))
          .num("nvcsw", static_cast<double>(proc1.nvcsw - proc0.nvcsw))
          .num("requests", static_cast<double>(s.requests_total - snap0.requests_total))
          .num("cache_hits", static_cast<double>(s.cache_hits - snap0.cache_hits))
          .num("cache_misses", static_cast<double>(s.cache_misses - snap0.cache_misses))
          .num("segment_hits", static_cast<double>(s.segment_hits - snap0.segment_hits))
          .num("segment_misses",
               static_cast<double>(s.segment_misses - snap0.segment_misses))
          .num("cache_admitted",
               static_cast<double>(s.cache_admitted - snap0.cache_admitted))
          .num("cache_bypassed",
               static_cast<double>(s.cache_bypassed - snap0.cache_bypassed))
          .num("cache_evictions",
               static_cast<double>(s.cache_evictions - snap0.cache_evictions))
          .num("rejected_busy",
               static_cast<double>(s.rejected_busy - snap0.rejected_busy +
                                   s.rejected_degraded - snap0.rejected_degraded))
          .num("expired",
               static_cast<double>(s.expired_in_queue - snap0.expired_in_queue +
                                   s.deadline_aborted - snap0.deadline_aborted))
          .num("backpressure_shed",
               static_cast<double>(server->backpressure_sheds() - shed0))
          .num("tip", static_cast<double>(full->tip_height()));
      if (appender) {
        w.raw("append_ms", json_list(appender->append_ms))
            .raw("rebind_ms", json_list(appender->rebind_ms))
            .raw("append_total_ms", json_list(appender->total_ms))
            .raw("append_bytes", json_list(appender->bytes))
            .str("append_error", appender->error);
      }
      reply(JsonObject().raw("window", w.dump()));
    } else if (line.rfind("CHECK ", 0) == 0) {
      const std::string rest = line.substr(6);
      const std::size_t sp = rest.find(' ');
      const std::size_t n = check_references(*full, rest.substr(0, sp),
                                             rest.substr(sp + 1));
      reply(JsonObject().num("checked", static_cast<double>(n)));
    } else if (line == "REPLAY") {
      JsonObject layers;
      const bool ok = replay_layers(*full, panel, args.seed, tracer, layers);
      layers.num("ok", ok);
      reply(JsonObject().raw("replay", layers.dump()));
    } else if (line == "QUIT") {
      break;
    }
  }
  appender.reset();
  server->stop();
  engine->stop();
  if (args.trace) {
    handler_log.write(args.work + "/handler_spans.txt");
    tracer.write_jsonl(args.work + "/server_spans.jsonl");
  }
  server.reset();
  engine.reset();
  full.reset();
  store.reset();
  if (fresh) remove_tree(store_dir);
  return 0;
}

}  // namespace perfbench
