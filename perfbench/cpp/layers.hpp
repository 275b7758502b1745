// Post-window replay of a fixed request sample into single layers —
// FullNode::handle_message, the prover's serializer, the decoder, the
// verifier and SHA-256 — one caller, no engine, no socket. The traced run
// uses it to attribute a workload's end-to-end numbers to layers.
#pragma once

#include <cstdint>

#include "bench_lib.hpp"
#include "node/full_node.hpp"
#include "stack.hpp"

namespace perfbench {

/// Adds the node.*, core.* and crypto.* per-layer metrics to `out`,
/// recording one span per call into `tracer`. `seed` picks the sample.
/// Returns false when a replayed reply fails to verify.
bool replay_layers(const lvq::FullNode& node, const Panel& panel,
                   std::uint64_t seed, Tracer& tracer, JsonObject& out);

}  // namespace perfbench
