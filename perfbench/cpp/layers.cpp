#include "layers.hpp"

#include <thread>

#include "core/query_view.hpp"
#include "core/verifier.hpp"
#include "crypto/sha256.hpp"
#include "node/light_node.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr int kBackgroundPoints = 8;
constexpr int kShapesPerKind = 4;
constexpr std::size_t kShaInputBytes = 30 * 1024;
constexpr int kShaInputs = 2000;

/// Times `fn` and records it as a root span of its own request.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t request, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  tracer.record(name, t0, t1, 0, request);
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace

bool replay_layers(const lvq::FullNode& node, const Panel& panel,
                   std::uint64_t seed, Tracer& tracer, JsonObject& out) {
  Rng rng(substream(seed, 77));
  auto ctx = node.context();
  const std::uint64_t tip = ctx->tip_height();
  const lvq::ProtocolConfig& config = node.config();
  lvq::LightNode light(config);
  light.set_headers(node.headers());
  std::uint64_t request = 1ull << 40;  // replay ids stay clear of live ones
  bool all_ok = true;

  // node: handle_message per request shape.
  std::vector<Address> points = sample_addresses(panel.background, rng, kBackgroundPoints);
  std::vector<double> point_ms, range_ms, batch_ms, multi_ms;
  std::vector<Bytes> point_replies;
  for (const Address& a : points) {
    Bytes req = point_request(a), reply;
    point_ms.push_back(timed(tracer, "node.handle_message", ++request,
                             [&] { reply = node.handle_message(req); }));
    point_replies.push_back(std::move(reply));
  }
  for (int i = 0; i < kShapesPerKind; ++i) {
    const std::uint64_t from = 1 + rng.below(tip);
    Bytes req = range_request(sample_addresses(panel.background, rng, 1)[0], from, tip);
    range_ms.push_back(timed(tracer, "node.handle_message", ++request,
                             [&] { node.handle_message(req); }));
    Bytes breq = batch_request(sample_addresses(panel.background, rng, 4));
    batch_ms.push_back(timed(tracer, "node.handle_message", ++request,
                             [&] { node.handle_message(breq); }));
    Bytes mreq = multi_request(sample_addresses(panel.background, rng, 4));
    multi_ms.push_back(timed(tracer, "node.handle_message", ++request,
                             [&] { node.handle_message(mreq); }));
  }
  out.num("node.handle_ms.point", median(point_ms))
      .num("node.handle_ms.range", median(range_ms))
      .num("node.handle_ms.batch", median(batch_ms))
      .num("node.handle_ms.multi", median(multi_ms));

  // core: the prover's serializer for background and heavy (Addr4..Addr6)
  // addresses.
  std::vector<double> ser_bg, ser_heavy;
  for (const Address& a : points) {
    lvq::Writer w;
    ser_bg.push_back(timed(tracer, "core.serialize_query_response", ++request,
                           [&] { lvq::serialize_query_response(w, *ctx, a); }));
  }
  Bytes heavy_reply;
  for (int p = 3; p < 6; ++p) {
    lvq::Writer w;
    ser_heavy.push_back(
        timed(tracer, "core.serialize_query_response", ++request,
              [&] { lvq::serialize_query_response(w, *ctx, panel.profiles[p]); }));
    heavy_reply = w.take();  // ends holding Addr6, the largest reply
  }
  out.num("core.serialize_ms.background", median(ser_bg))
      .num("core.serialize_ms.heavy", median(ser_heavy));

  // core: decode and serial verify of the background point replies.
  std::vector<double> decode_ms, verify_ms;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Bytes& reply = point_replies[i];
    auto [type, payload] =
        lvq::decode_envelope(ByteSpan{reply.data(), reply.size()});
    if (type != lvq::MsgType::kQueryResponse) {
      all_ok = false;
      continue;
    }
    lvq::QueryResponseView view;
    decode_ms.push_back(timed(tracer, "core.decode", ++request, [&] {
      lvq::Reader r(payload);
      view = lvq::QueryResponseView::deserialize(r, config);
    }));
    lvq::VerifyOutcome outcome;
    verify_ms.push_back(timed(tracer, "core.verify", ++request, [&] {
      outcome = lvq::verify_response(light.headers(), config, points[i], view);
    }));
    all_ok = all_ok && outcome.ok;
  }
  out.num("core.decode_ms", median(decode_ms))
      .num("core.verify_ms", median(verify_ms));

  // node: LightNode::verify of the heaviest reply, serial and pooled.
  {
    lvq::Reader r(ByteSpan{heavy_reply.data(), heavy_reply.size()});
    lvq::QueryResponseView view = lvq::QueryResponseView::deserialize(r, config);
    lvq::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<double> serial, pooled;
    for (int rep = 0; rep < 3; ++rep) {
      light.set_verify_pool(nullptr);
      serial.push_back(timed(tracer, "node.verify", ++request, [&] {
        all_ok = light.verify(panel.profiles[5], view).ok && all_ok;
      }));
      light.set_verify_pool(&pool);
      pooled.push_back(timed(tracer, "node.verify", ++request, [&] {
        all_ok = light.verify(panel.profiles[5], view).ok && all_ok;
      }));
    }
    out.num("node.verify_pool_speedup", median(serial) / median(pooled));
  }

  // crypto: one-shot SHA-256 over filter-sized inputs.
  {
    Bytes input(kShaInputBytes);
    for (std::uint8_t& b : input) b = static_cast<std::uint8_t>(rng.next());
    volatile std::uint8_t sink = 0;
    const double ms = timed(tracer, "crypto.sha256", ++request, [&] {
      for (int i = 0; i < kShaInputs; ++i) {
        input[0] = static_cast<std::uint8_t>(i);
        sink = sink ^ lvq::Sha256::hash(ByteSpan{input.data(), input.size()})[0];
      }
    });
    out.num("crypto.sha256_mb_s",
            static_cast<double>(kShaInputBytes) * kShaInputs / 1e6 / (ms / 1e3));
  }
  return all_ok;
}

}  // namespace perfbench
