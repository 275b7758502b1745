// Height-range queries (extension; paper §VII-A only notes that "a query
// of larger range can be performed similarly" — this makes arbitrary
// ranges [from, to] first-class).
//
// For BMT designs the challenge is anchoring: headers commit only the
// merge-range roots of Algorithm 1, and an arbitrary range's aligned
// cover pieces are generally interior BMT nodes. Each piece therefore
// ships an *anchored* proof: the usual merged endpoint proof for the
// piece's subtree, plus a path of (sibling hash, sibling BF) pairs up to
// the nearest header-committed ancestor. The verifier recomputes Eq. 2/3
// hash-and-OR up the path and compares against the anchor block's header
// root. Non-BMT designs simply restrict their per-height fragments to the
// range.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/address.hpp"
#include "core/bmt_proof.hpp"
#include "core/chain_context.hpp"
#include "core/query.hpp"
#include "core/verifier.hpp"
#include "core/verify_result.hpp"

namespace lvq {

/// One aligned piece of the range cover, with its verification anchor.
/// All node coordinates are within the piece's segment tree; heights are
/// absolute.
struct RangePiece {
  std::uint64_t seg_first_height = 0;  // first height of the segment
  std::uint32_t level = 0;             // piece node
  std::uint64_t j = 0;
  std::uint32_t anchor_level = 0;      // committed ancestor node
  std::uint64_t anchor_j = 0;
  std::uint64_t anchor_height = 0;     // block whose header commits it

  std::uint64_t first_height() const {
    return seg_first_height + (j << level);
  }
  std::uint64_t last_height() const {
    return first_height() + (std::uint64_t{1} << level) - 1;
  }
  std::uint32_t path_length() const { return anchor_level - level; }
};

/// Decomposes [from, to] (1-based, inclusive, to <= tip) into maximal
/// aligned pieces, each annotated with its nearest committed ancestor.
/// Both prover and verifier call this, so the cover never travels on the
/// wire.
std::vector<RangePiece> range_cover(std::uint64_t from, std::uint64_t to,
                                    std::uint64_t tip,
                                    std::uint32_t segment_length);

/// One (sibling hash, sibling BF) pair per level from the piece node up
/// to (excluding) the anchor. Sidedness is derived from the piece
/// coordinates, so it is not serialized.
struct BmtPathStep {
  Hash256 sibling_hash;
  BloomFilter sibling_bf;
};

struct AnchoredTreeProof {
  BmtNodeProof tree;                // merged endpoint proof for the piece
  std::vector<BmtPathStep> path;    // bottom-up to the anchor
  std::vector<std::pair<std::uint64_t, BlockProof>> block_proofs;

  void serialize(Writer& w) const;
  static AnchoredTreeProof deserialize(Reader& r, BloomGeometry geom,
                                       std::uint32_t path_length);
  std::size_t serialized_size() const;
};

struct RangeQueryRequest {
  Address address;
  std::uint64_t from = 1;
  std::uint64_t to = 1;

  void serialize(Writer& w) const;
  static RangeQueryRequest deserialize(Reader& r);
};

struct RangeQueryResponse {
  Design design = Design::kLvq;
  std::uint64_t tip_height = 0;
  std::uint64_t from = 1;
  std::uint64_t to = 1;

  std::vector<AnchoredTreeProof> pieces;  // BMT designs, cover order

  // Non-BMT designs: dense data for heights from..to (index h-from).
  std::vector<BloomFilter> block_bfs;
  std::vector<BlockProof> fragments;

  void serialize(Writer& w) const;
  static RangeQueryResponse deserialize(Reader& r,
                                        const ProtocolConfig& config);
  std::size_t serialized_size() const;
};

/// Full-node side: builds the response for [from, to].
RangeQueryResponse build_range_response(const ChainContext& ctx,
                                        const Address& address,
                                        std::uint64_t from, std::uint64_t to);

/// Writes build_range_response(ctx, address, from, to)'s exact wire bytes
/// into `w`. BMT designs stream every cover piece that is a whole
/// query-forest segment through the indexed serialize_segment_proof and
/// build the remaining anchored pieces via build_anchored_piece; dense
/// designs delegate to the structured path. Same preconditions as
/// build_range_response.
void serialize_range_response(Writer& w, const ChainContext& ctx,
                              const Address& address, std::uint64_t from,
                              std::uint64_t to);

/// Builds one cover piece's anchored proof (BMT designs only; `cbp` is the
/// address's bloom check positions). build_range_response composes these
/// in cover order. A piece whose range is a whole query-forest segment has
/// an empty anchor path and serializes byte-identically to that segment's
/// SegmentQueryProof.
AnchoredTreeProof build_anchored_piece(const ChainContext& ctx,
                                       const Address& address,
                                       const std::vector<std::uint64_t>& cbp,
                                       const RangePiece& piece);

/// Light-node side: verifies against local headers. On success, the
/// history covers exactly the requested range (correct and, for designs
/// with SMT, complete within it).
///
/// With ctx.pool set, independent units — anchored pieces for BMT
/// designs, heights for non-BMT designs — fan out in parallel with the
/// serial outcome (see verify_unit.hpp).
VerifyOutcome verify_range_response(const std::vector<BlockHeader>& headers,
                                    const ProtocolConfig& config,
                                    const Address& address,
                                    const RangeQueryResponse& response,
                                    const VerifyContext& ctx = {});

}  // namespace lvq
