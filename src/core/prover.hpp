// Full-node-side proof generation (paper §V, "generate the proof in the
// full node").
#pragma once

#include "chain/address.hpp"
#include "core/chain_context.hpp"
#include "core/query.hpp"
#include "core/segments.hpp"

namespace lvq {

class ThreadPool;

/// Builds the complete query response for `address` under the context's
/// protocol design. The response is self-contained: a light node holding
/// only headers can verify it with `verify_response`.
///
/// When `pool` is non-null, the independent per-range (BMT designs) or
/// per-height (dense designs) proof assemblies fan out across it into
/// index-addressed slots — bytes are identical to the serial loop. The
/// caller must not already be running on `pool` (see util/thread_pool.hpp).
QueryResponse build_query_response(const ChainContext& ctx,
                                   const Address& address,
                                   ThreadPool* pool = nullptr);

/// The per-block proof a design produces when the block's BF check failed
/// (exposed separately for tests and the malicious-node harness).
BlockProof build_block_proof(const ChainContext& ctx, std::uint64_t height,
                             const Address& address);

/// Serializes build_query_response(ctx, address)'s exact wire bytes into
/// `w`, skipping the intermediate proof objects wherever the proof index
/// allows: endpoint BFs, transactions, and integral blocks stream straight
/// from the index tables / chain storage into the writer instead of being
/// copied into a QueryResponse first. Falls back to the structured builder
/// per part when a table is absent, so the bytes are identical either way
/// (tests pin this). BMT designs only benefit today; dense designs
/// delegate to the structured path wholesale.
void serialize_query_response(Writer& w, const ChainContext& ctx,
                              const Address& address,
                              ThreadPool* pool = nullptr);

/// Writes the SegmentQueryProof wire bytes for one query-forest range
/// (BMT designs; `cbp` is the address's checked bit positions under the
/// context's Bloom geometry) into `w` without materializing proof
/// objects. serialize_query_response and serialize_range_response stream
/// whole segments through it.
void serialize_segment_proof(Writer& w, const ChainContext& ctx,
                             const Address& address,
                             const std::vector<std::uint64_t>& cbp,
                             const SubSegment& range);

/// Exact byte count serialize_segment_proof will emit for the same
/// arguments, computed without serializing anything (BFs size from the
/// geometry, transactions from serialized_size). Callers reserve the reply
/// buffer once instead of realloc-growing through megabytes.
std::uint64_t segment_proof_wire_size(const ChainContext& ctx,
                                      const Address& address,
                                      const std::vector<std::uint64_t>& cbp,
                                      const SubSegment& range);

}  // namespace lvq
