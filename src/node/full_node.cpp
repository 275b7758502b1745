#include "node/full_node.hpp"

#include "core/chain_builder.hpp"
#include "util/thread_pool.hpp"

namespace lvq {

FullNode::FullNode(std::shared_ptr<const Workload> workload,
                   std::shared_ptr<const WorkloadDerived> derived,
                   const ProtocolConfig& config,
                   const ChainBuildOptions& options)
    : FullNode(ChainBuilder::build(std::move(workload), std::move(derived),
                                   config, options)) {}

FullNode::FullNode(std::shared_ptr<const ChainContext> context)
    : ctx_(std::move(context)) {
  LVQ_CHECK(ctx_ != nullptr);
  config_ = ctx_->config();
}

std::shared_ptr<const ChainContext> FullNode::context() const {
  std::lock_guard<std::mutex> lock(ctx_mu_);
  return ctx_;
}

void FullNode::append_blocks(std::vector<std::vector<Transaction>> new_blocks,
                             const ChainBuildOptions& options) {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  // extend() runs outside ctx_mu_: readers keep snapshotting the old tip
  // while the successor is assembled, then observe it atomically.
  std::shared_ptr<const ChainContext> next =
      context()->extend(std::move(new_blocks), options);
  std::lock_guard<std::mutex> lock(ctx_mu_);
  ctx_ = std::move(next);
}

Bytes FullNode::handle_message(ByteSpan request) const {
  // One snapshot per request: every case below reads `ctx`, never ctx_.
  std::shared_ptr<const ChainContext> snapshot = context();
  return dispatch(*snapshot, request);
}

Bytes FullNode::dispatch(const ChainContext& ctx, ByteSpan request) const {
  const std::uint64_t tip = ctx.tip_height();
  try {
    // A bare node ignores the budget of a kDeadline wrapper (no queue to
    // expire from) but must still answer the inner request, so a client
    // propagating deadlines works against engine-less servers too.
    std::uint64_t budget_ms = 0;
    request = peel_deadline_envelope(request, &budget_ms);
    auto [type, payload] = decode_envelope(request);
    switch (type) {
      case MsgType::kHeadersRequest: {
        Writer w;
        w.u8(static_cast<std::uint8_t>(MsgType::kHeaders));
        w.varint(tip);
        for (const auto& b : ctx.chain().blocks()) b->header.serialize(w);
        return w.take();
      }
      case MsgType::kHeadersSinceRequest: {
        Reader r(payload);
        std::uint64_t from = r.varint();
        r.expect_done();
        std::uint64_t first = std::min(from + 1, tip + 1);
        Writer w;
        w.u8(static_cast<std::uint8_t>(MsgType::kHeaders));
        w.varint(tip - (first - 1));
        for (std::uint64_t h = first; h <= tip; ++h) {
          ctx.chain().at_height(h).header.serialize(w);
        }
        return w.take();
      }
      case MsgType::kQueryRequest: {
        Reader r(payload);
        QueryRequest req = QueryRequest::deserialize(r);
        r.expect_done();
        // RPC callers (serving-engine workers, TCP handlers) are never
        // shared-pool tasks, so fanning the proof assembly across the
        // shared pool is safe; bytes are unchanged (index-addressed slots).
        // Every case writes the envelope type byte inline so the reply is
        // built in its final buffer — no re-copy by encode_envelope.
        Writer w;
        w.u8(static_cast<std::uint8_t>(MsgType::kQueryResponse));
        serialize_query_response(w, ctx, req.address, &ThreadPool::shared());
        return w.take();
      }
      case MsgType::kRangeQueryRequest: {
        Reader r(payload);
        RangeQueryRequest req = RangeQueryRequest::deserialize(r);
        r.expect_done();
        if (req.to > tip) break;  // error reply
        Writer w;
        w.u8(static_cast<std::uint8_t>(MsgType::kRangeQueryResponse));
        serialize_range_response(w, ctx, req.address, req.from, req.to);
        return w.take();
      }
      case MsgType::kMultiQueryRequest: {
        Reader r(payload);
        std::uint64_t n = r.varint();
        if (n == 0 || n > 1000) break;  // error reply
        std::vector<Address> addresses;
        reserve_clamped(addresses, n);
        for (std::uint64_t i = 0; i < n; ++i) {
          addresses.push_back(Address::deserialize(r));
        }
        r.expect_done();
        Writer w;
        w.u8(static_cast<std::uint8_t>(MsgType::kMultiQueryResponse));
        build_multi_response(ctx, addresses).serialize(w);
        return w.take();
      }
      case MsgType::kBatchQueryRequest: {
        Reader r(payload);
        std::uint64_t n = r.varint();
        if (n > 1000) break;  // refuse absurd batches -> error reply
        std::vector<Address> addresses;
        reserve_clamped(addresses, n);
        for (std::uint64_t i = 0; i < n; ++i) {
          addresses.push_back(Address::deserialize(r));
        }
        r.expect_done();
        // One independent proof assembly per address, fanned across the
        // shared pool into index-addressed slots (bytes identical to the
        // serial loop). Each runs without an inner pool: the pool forbids
        // nesting.
        std::vector<Bytes> parts(addresses.size());
        ThreadPool::shared().parallel_for(
            addresses.size(), [&](std::uint64_t i) {
              Writer pw;
              serialize_query_response(pw, ctx, addresses[i]);
              parts[i] = pw.take();
            });
        std::size_t total = 0;
        for (const Bytes& p : parts) total += p.size();
        Writer w;
        w.reserve(1 + varint_size(addresses.size()) + total);
        w.u8(static_cast<std::uint8_t>(MsgType::kBatchQueryResponse));
        w.varint(addresses.size());
        for (const Bytes& p : parts) w.raw(p);
        return w.take();
      }
      default:
        break;
    }
  } catch (const SerializeError&) {
    // fall through to error reply
  }
  return encode_envelope(MsgType::kError, {});
}

std::uint64_t FullNode::storage_bytes() const {
  std::shared_ptr<const ChainContext> snapshot = context();
  std::uint64_t n = 0;
  for (const auto& b : snapshot->chain().blocks()) n += b->serialized_size();
  return n;
}

}  // namespace lvq
