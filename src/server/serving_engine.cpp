#include "server/serving_engine.hpp"

#include <algorithm>

namespace lvq {

namespace {

Bytes busy_reply() { return encode_envelope(MsgType::kBusy, {}); }

Bytes expired_reply() { return encode_envelope(MsgType::kExpired, {}); }

std::uint64_t micros_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

bool past(netio::Deadline deadline) {
  return deadline != netio::kNoDeadline && netio::Clock::now() >= deadline;
}

}  // namespace

ServingEngine::ServingEngine(const FullNode& node, ServingEngineOptions options)
    : node_(&node),
      options_(options),
      response_cache_(options.cache_bytes, options.cache_shards) {
  backend_ = [this](ByteSpan req) { return node_->handle_message(req); };
  epoch_tip_.store(node.tip_height(), std::memory_order_relaxed);
  start_workers();
}

ServingEngine::ServingEngine(Handler backend, ServingEngineOptions options)
    : backend_(std::move(backend)),
      node_(nullptr),
      options_(options),
      response_cache_(options.cache_bytes, options.cache_shards) {
  start_workers();
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::start_workers() {
  if (options_.workers == 0) options_.workers = 1;
  threads_.reserve(options_.workers);
  for (std::uint32_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void ServingEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Unblock callers whose jobs never reached a worker.
  std::deque<std::unique_ptr<Job>> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
  }
  for (auto& job : leftover) job->complete(busy_reply());
}

bool ServingEngine::cacheable_request(std::uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kQueryRequest:
    case MsgType::kHeadersRequest:
    case MsgType::kHeadersSinceRequest:
    case MsgType::kBatchQueryRequest:
    case MsgType::kRangeQueryRequest:
    case MsgType::kMultiQueryRequest:
      return true;
    default:
      return false;
  }
}

Bytes ServingEngine::response_cache_key(ByteSpan request) const {
  // Lock-free on purpose: this runs on the submit() warm path for every
  // cacheable request. The generation is bumped before the tip is updated
  // only inside epoch_mu_-exclusive sections, and entries are only stored
  // by process() (which runs under the shared lock, so it sees a settled
  // pair). A reader interleaving with a rebind can therefore at worst
  // combine a generation and tip no entry was ever stored under —
  // generations never repeat — which misses and falls through to the
  // worker path. Never a stale hit.
  Writer w;
  w.u8('R');
  w.varint(epoch_generation_.load(std::memory_order_acquire));
  w.varint(epoch_tip_.load(std::memory_order_acquire));
  w.raw(request);
  return w.take();
}

bool ServingEngine::bulk_request(std::uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHeadersRequest:  // full header sync
    case MsgType::kBatchQueryRequest:
    case MsgType::kRangeQueryRequest:
    case MsgType::kMultiQueryRequest:
      return true;
    default:
      return false;
  }
}

Bytes ServingEngine::handle(ByteSpan request) {
  // Blocking shim over the async entry point: park on a promise until the
  // completion fires (inline for fast cases, from a worker otherwise).
  std::promise<Bytes> promise;
  std::future<Bytes> result = promise.get_future();
  submit(0, request,
         [&promise](Bytes reply) { promise.set_value(std::move(reply)); });
  return result.get();
}

void ServingEngine::submit(ConnId /*conn_id*/, ByteSpan request,
                           CompletionFn done) {
  const auto t0 = std::chrono::steady_clock::now();

  // Peel an optional kDeadline wrapper FIRST: everything downstream —
  // per-type counters, cache keys, the dispatched job — sees only the
  // inner request, so a wrapped query and its bare form share cache
  // entries and return byte-identical replies.
  std::uint64_t budget_ms = 0;
  ByteSpan inner;
  try {
    inner = peel_deadline_envelope(request, &budget_ms);
  } catch (const SerializeError&) {
    const std::uint8_t raw_type = request.empty() ? 0 : request[0];
    metrics_.on_request(raw_type, request.size());
    Bytes err = encode_envelope(MsgType::kError, {});
    metrics_.on_reply(raw_type, err.size(), /*error_reply=*/true,
                      micros_since(t0));
    done(std::move(err));
    return;
  }
  const netio::Deadline deadline = netio::deadline_after_ms(
      static_cast<std::uint32_t>(std::min<std::uint64_t>(budget_ms, 0xffffffffu)));

  const std::uint8_t type = inner.empty() ? 0 : inner[0];
  metrics_.on_request(type, request.size());

  // Finishes metrics for a served reply; jobs carry it into the worker
  // pool so the latency histogram covers queue wait + execution, exactly
  // as the blocking path always measured it. Expired replies are counted
  // at their drop site (expired_in_queue / deadline_aborted) and kept out
  // of the served-latency histogram.
  auto finish_metrics = [this, t0, type](const Bytes& reply) {
    if (is_expired_envelope(ByteSpan{reply.data(), reply.size()})) return;
    const bool error =
        !reply.empty() && reply[0] == static_cast<std::uint8_t>(MsgType::kError);
    metrics_.on_reply(type, reply.size(), error, micros_since(t0));
  };

  if (type == static_cast<std::uint8_t>(MsgType::kStatsRequest)) {
    Writer w;
    snapshot().serialize(w);
    Bytes reply = encode_envelope(MsgType::kStatsResponse,
                                  ByteSpan{w.data().data(), w.data().size()});
    finish_metrics(reply);
    done(std::move(reply));
    return;
  }

  if (response_cache_.enabled() && cacheable_request(type)) {
    Bytes key = response_cache_key(inner);
    Bytes hit;
    if (response_cache_.get(ByteSpan{key.data(), key.size()}, &hit)) {
      finish_metrics(hit);
      done(std::move(hit));
      return;
    }
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    bool shed = stopping_ ||
                (queue_.size() >= options_.queue_depth && idle_workers_ == 0);
    bool degraded = false;
    if (!shed && idle_workers_ == 0 && options_.bulk_shed_fraction < 1.0 &&
        bulk_request(type)) {
      // Under pressure the expensive bulk traffic is shed before the queue
      // is full, keeping the remaining slots for interactive requests.
      const std::size_t threshold = std::max<std::size_t>(
          1, static_cast<std::size_t>(options_.bulk_shed_fraction *
                                      static_cast<double>(options_.queue_depth)));
      if (queue_.size() >= threshold) shed = degraded = true;
    }
    if (shed) {
      lock.unlock();
      Bytes busy = busy_reply();
      if (degraded) {
        metrics_.on_degraded(busy.size());
      } else {
        metrics_.on_busy(busy.size());
      }
      // Sheds are counted above and stay out of the latency histogram.
      done(std::move(busy));
      return;
    }
    auto job = std::make_unique<Job>();
    job->request.assign(inner.begin(), inner.end());
    job->deadline = deadline;
    job->complete = [finish_metrics,
                     done = std::move(done)](Bytes reply) mutable {
      finish_metrics(reply);
      done(std::move(reply));
    };
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ServingEngine::worker_loop() {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_workers_;
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      --idle_workers_;
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (past(job->deadline)) {
      // The client's budget ran out while the job sat queued — the reply
      // could only arrive dead. Drop it for a cheap kExpired instead of
      // burning a worker on proof assembly nobody will read.
      Bytes expired = expired_reply();
      metrics_.on_expired_in_queue(expired.size());
      job->complete(std::move(expired));
      continue;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    Bytes reply;
    try {
      reply = process(ByteSpan{job->request.data(), job->request.size()},
                      job->deadline);
    } catch (...) {
      // The FullNode handler already converts malformed input into kError;
      // anything escaping here is a server-side defect, answered as an
      // error envelope rather than a hung client.
      reply = encode_envelope(MsgType::kError, {});
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    job->complete(std::move(reply));
  }
}

Bytes ServingEngine::process(ByteSpan request, netio::Deadline deadline) {
  // Shared-held across execution: rebind() cannot swap the node or epoch
  // under a request that is mid-proof.
  std::shared_lock<std::shared_mutex> epoch_lock(epoch_mu_);
  const std::uint8_t type = request.empty() ? 0 : request[0];
  const auto t0 = std::chrono::steady_clock::now();

  Bytes reply = backend_(request);

  // The client's budget ran out while the reply was being built: it could
  // only arrive dead. Answer kExpired and keep the bytes out of the cache.
  if (past(deadline)) {
    Bytes expired = expired_reply();
    metrics_.on_deadline_aborted(expired.size());
    return expired;
  }

  // Cost-aware admission: a reply is cached only when rebuilding it cost
  // at least cache_admit_min_us — cheaper replies would spend cache budget
  // (and evict amortizing entries) to save less than a cache probe costs.
  // A reply the cache refuses (larger than a shard) counts as bypassed.
  if (response_cache_.enabled() && cacheable_request(type) && !reply.empty() &&
      reply[0] != static_cast<std::uint8_t>(MsgType::kError) &&
      reply[0] != static_cast<std::uint8_t>(MsgType::kBusy) &&
      reply[0] != static_cast<std::uint8_t>(MsgType::kExpired)) {
    bool stored = false;
    if (micros_since(t0) >= options_.cache_admit_min_us) {
      Bytes key = response_cache_key(request);
      stored = response_cache_.put(ByteSpan{key.data(), key.size()},
                                   ByteSpan{reply.data(), reply.size()});
    }
    if (stored) {
      metrics_.on_cache_admitted();
    } else {
      metrics_.on_cache_bypassed();
    }
  }
  return reply;
}

void ServingEngine::rebind(const FullNode& node) {
  {
    // The unique lock is the drain barrier: no request holds the shared
    // lock past here, so no store into the old epoch's keys can race the
    // bump. The generation is bumped before the tip moves — a warm-path
    // key built from a torn pair mixes the new generation with the old
    // tip, which no entry was ever stored under.
    std::unique_lock<std::shared_mutex> lock(epoch_mu_);
    node_ = &node;
    epoch_generation_.fetch_add(1, std::memory_order_release);
    epoch_tip_.store(node.tip_height(), std::memory_order_release);
  }
  // Stale keys are unreachable after the epoch bump; clearing just
  // returns their memory immediately instead of waiting for LRU churn.
  response_cache_.clear();
}

void ServingEngine::rebind() {
  LVQ_CHECK_MSG(node_ != nullptr, "rebind() without a node requires FullNode mode");
  {
    std::unique_lock<std::shared_mutex> lock(epoch_mu_);
    epoch_generation_.fetch_add(1, std::memory_order_release);
    epoch_tip_.store(node_->tip_height(), std::memory_order_release);
  }
  response_cache_.clear();
}

void ServingEngine::invalidate() {
  {
    std::unique_lock<std::shared_mutex> lock(epoch_mu_);
    epoch_generation_.fetch_add(1, std::memory_order_release);
  }
  response_cache_.clear();
}

MetricsSnapshot ServingEngine::snapshot() const {
  MetricsSnapshot s;
  metrics_.fill(s);
  const ShardedByteCache::Stats rc = response_cache_.stats();
  s.cache_hits = rc.hits;
  s.cache_misses = rc.misses;
  s.cache_entries = rc.entries;
  s.cache_bytes = rc.bytes;
  s.cache_evictions = rc.evictions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
  }
  s.queue_capacity = options_.queue_depth;
  s.workers = threads_.size();
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.epoch_tip = epoch_tip_.load(std::memory_order_acquire);
  s.epoch_generation = epoch_generation_.load(std::memory_order_acquire);
  return s;
}

}  // namespace lvq
