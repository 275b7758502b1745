#include "core/range_query.hpp"

#include <algorithm>

#include "core/merge_schedule.hpp"
#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "core/verify_unit.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace lvq {

std::vector<RangePiece> range_cover(std::uint64_t from, std::uint64_t to,
                                    std::uint64_t tip,
                                    std::uint32_t segment_length) {
  LVQ_CHECK(from >= 1 && from <= to && to <= tip);
  LVQ_CHECK(is_power_of_two(segment_length));
  std::vector<RangePiece> out;
  std::uint64_t h = from;
  while (h <= to) {
    std::uint64_t seg_first = ((h - 1) / segment_length) * segment_length + 1;
    std::uint64_t seg_available =
        std::min<std::uint64_t>(segment_length, tip - seg_first + 1);
    std::uint64_t local = h - seg_first;  // 0-based
    std::uint64_t local_hi =
        std::min(to, seg_first + seg_available - 1) - seg_first;

    // Greedy maximal aligned piece starting at `local`.
    std::uint32_t level = 0;
    while (true) {
      std::uint64_t size = std::uint64_t{1} << (level + 1);
      if (local % size != 0) break;
      if (local + size - 1 > local_hi) break;
      level++;
    }

    RangePiece piece;
    piece.seg_first_height = seg_first;
    piece.level = level;
    piece.j = local >> level;

    // Walk up to the nearest header-committed ancestor: node (L, J) is
    // committed iff the block at its last leaf merges exactly 2^L blocks
    // (Algorithm 1). Guaranteed to terminate inside the complete part of
    // the segment (every complete node lives inside a maximal complete
    // aligned subtree, whose root is committed).
    std::uint32_t aL = level;
    std::uint64_t aj = piece.j;
    while (true) {
      std::uint64_t end_local = (aj + 1) << aL;  // 1-based local position
      LVQ_CHECK_MSG(end_local <= seg_available,
                    "anchor walk left the complete part of the segment");
      std::uint64_t end_height = seg_first + end_local - 1;
      if (merge_count(end_height, segment_length) == (std::uint32_t{1} << aL)) {
        piece.anchor_level = aL;
        piece.anchor_j = aj;
        piece.anchor_height = end_height;
        break;
      }
      aj >>= 1;
      aL++;
      LVQ_CHECK(aL <= 63);
    }
    h = piece.last_height() + 1;
    out.push_back(piece);
  }
  return out;
}

void AnchoredTreeProof::serialize(Writer& w) const {
  tree.serialize(w);
  for (const BmtPathStep& step : path) {
    w.raw(step.sibling_hash.bytes);
    step.sibling_bf.serialize_bits(w);
  }
  w.varint(block_proofs.size());
  for (const auto& [height, proof] : block_proofs) {
    w.varint(height);
    proof.serialize(w);
  }
}

AnchoredTreeProof AnchoredTreeProof::deserialize(Reader& r, BloomGeometry geom,
                                                 std::uint32_t path_length) {
  AnchoredTreeProof p;
  p.tree = BmtNodeProof::deserialize(r, geom, /*max_depth=*/64);
  reserve_clamped(p.path, path_length);
  for (std::uint32_t i = 0; i < path_length; ++i) {
    BmtPathStep step;
    step.sibling_hash.bytes = r.arr<32>();
    step.sibling_bf = BloomFilter::deserialize_bits(r, geom);
    p.path.push_back(std::move(step));
  }
  std::uint64_t n = r.varint();
  if (n > 10'000'000) throw SerializeError("too many block proofs");
  reserve_clamped(p.block_proofs, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t height = r.varint();
    p.block_proofs.emplace_back(height, BlockProof::deserialize(r));
  }
  return p;
}

std::size_t AnchoredTreeProof::serialized_size() const {
  std::size_t n = tree.serialized_size();
  for (const BmtPathStep& step : path) {
    n += 32 + step.sibling_bf.serialized_bits_size();
  }
  n += varint_size(block_proofs.size());
  for (const auto& [height, proof] : block_proofs) {
    n += varint_size(height) + proof.serialized_size();
  }
  return n;
}

void RangeQueryRequest::serialize(Writer& w) const {
  address.serialize(w);
  w.varint(from);
  w.varint(to);
}

RangeQueryRequest RangeQueryRequest::deserialize(Reader& r) {
  RangeQueryRequest req;
  req.address = Address::deserialize(r);
  req.from = r.varint();
  req.to = r.varint();
  if (req.from < 1 || req.from > req.to || req.to > 100'000'000) {
    throw SerializeError("bad range bounds");
  }
  return req;
}

void RangeQueryResponse::serialize(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(design));
  w.varint(tip_height);
  w.varint(from);
  w.varint(to);
  if (design_has_bmt(design)) {
    for (const AnchoredTreeProof& p : pieces) p.serialize(w);
  } else {
    if (design_ships_block_bfs(design)) {
      LVQ_CHECK(block_bfs.size() == to - from + 1);
      for (const BloomFilter& bf : block_bfs) bf.serialize_bits(w);
    }
    LVQ_CHECK(fragments.size() == to - from + 1);
    for (const BlockProof& f : fragments) f.serialize(w);
  }
}

RangeQueryResponse RangeQueryResponse::deserialize(
    Reader& r, const ProtocolConfig& config) {
  RangeQueryResponse resp;
  std::uint8_t design = r.u8();
  if (design > static_cast<std::uint8_t>(Design::kLvq))
    throw SerializeError("bad design tag");
  resp.design = static_cast<Design>(design);
  if (resp.design != config.design)
    throw SerializeError("response design does not match local config");
  resp.tip_height = r.varint();
  resp.from = r.varint();
  resp.to = r.varint();
  if (resp.tip_height > 100'000'000 || resp.from < 1 ||
      resp.from > resp.to || resp.to > resp.tip_height) {
    throw SerializeError("bad range response bounds");
  }
  if (design_has_bmt(resp.design)) {
    // The cover (and thus the piece count and path lengths) is a pure
    // function of the claimed bounds; verification later pins the bounds
    // to the local chain.
    std::vector<RangePiece> cover =
        range_cover(resp.from, resp.to, resp.tip_height,
                    config.segment_length);
    resp.pieces.reserve(cover.size());
    for (const RangePiece& piece : cover) {
      resp.pieces.push_back(AnchoredTreeProof::deserialize(
          r, config.bloom, piece.path_length()));
    }
  } else {
    std::uint64_t count = resp.to - resp.from + 1;
    if (design_ships_block_bfs(resp.design)) {
      reserve_clamped(resp.block_bfs, count);
      for (std::uint64_t i = 0; i < count; ++i) {
        resp.block_bfs.push_back(
            BloomFilter::deserialize_bits(r, config.bloom));
      }
    }
    reserve_clamped(resp.fragments, count);
    for (std::uint64_t i = 0; i < count; ++i) {
      resp.fragments.push_back(BlockProof::deserialize(r));
    }
  }
  r.expect_done();
  return resp;
}

std::size_t RangeQueryResponse::serialized_size() const {
  std::size_t n = 1 + varint_size(tip_height) + varint_size(from) +
                  varint_size(to);
  for (const AnchoredTreeProof& p : pieces) n += p.serialized_size();
  for (const BloomFilter& bf : block_bfs) n += bf.serialized_bits_size();
  for (const BlockProof& f : fragments) n += f.serialized_size();
  return n;
}

AnchoredTreeProof build_anchored_piece(const ChainContext& ctx,
                                       const Address& address,
                                       const std::vector<std::uint64_t>& cbp,
                                       const RangePiece& piece) {
  const SegmentBmt& bmt = ctx.bmt_for_height(piece.seg_first_height);
  BmtCheckMasks masks = bmt.check_masks(cbp);

  AnchoredTreeProof p;
  p.tree = build_bmt_proof(bmt, masks, piece.level, piece.j);
  std::uint32_t level = piece.level;
  std::uint64_t j = piece.j;
  while (level < piece.anchor_level) {
    std::uint64_t sib = j ^ 1;
    p.path.push_back(
        BmtPathStep{bmt.node_hash(level, sib), bmt.node_bf(level, sib)});
    j >>= 1;
    level++;
  }
  // Per-block proofs for failed leaves inside the piece, ascending.
  std::uint64_t leaves = std::uint64_t{1} << piece.level;
  for (std::uint64_t off = 0; off < leaves; ++off) {
    std::uint64_t local = (piece.j << piece.level) + off;
    if (!masks.fails(0, local)) continue;
    std::uint64_t height = piece.seg_first_height + local;
    p.block_proofs.emplace_back(height, build_block_proof(ctx, height, address));
  }
  return p;
}

RangeQueryResponse build_range_response(const ChainContext& ctx,
                                        const Address& address,
                                        std::uint64_t from, std::uint64_t to) {
  const ProtocolConfig& config = ctx.config();
  LVQ_CHECK(from >= 1 && from <= to && to <= ctx.tip_height());
  RangeQueryResponse resp;
  resp.design = config.design;
  resp.tip_height = ctx.tip_height();
  resp.from = from;
  resp.to = to;

  BloomKey key = BloomKey::from_bytes(address.span());
  std::vector<std::uint64_t> cbp = config.bloom.positions(key);

  if (config.has_bmt()) {
    for (const RangePiece& piece :
         range_cover(from, to, resp.tip_height, config.segment_length)) {
      resp.pieces.push_back(build_anchored_piece(ctx, address, cbp, piece));
    }
    return resp;
  }

  const bool ships_bfs = design_ships_block_bfs(config.design);
  for (std::uint64_t h = from; h <= to; ++h) {
    if (ships_bfs) resp.block_bfs.push_back(ctx.positions().block_bf(h));
    BlockProof frag;
    if (ctx.positions().check_fails(h, cbp)) {
      frag = build_block_proof(ctx, h, address);
    } else {
      frag.kind = BlockProof::Kind::kEmpty;
    }
    resp.fragments.push_back(std::move(frag));
  }
  return resp;
}

void serialize_range_response(Writer& w, const ChainContext& ctx,
                              const Address& address, std::uint64_t from,
                              std::uint64_t to) {
  const ProtocolConfig& config = ctx.config();
  if (!config.has_bmt()) {
    // Dense designs: the bytes are per-height BFs and fragments, which the
    // structured path already streams.
    build_range_response(ctx, address, from, to).serialize(w);
    return;
  }
  const std::uint64_t tip = ctx.tip_height();
  LVQ_CHECK(from >= 1 && from <= to && to <= tip);

  const std::vector<std::uint64_t> cbp =
      config.bloom.positions(BloomKey::from_bytes(address.span()));
  const std::vector<RangePiece> cover =
      range_cover(from, to, tip, config.segment_length);
  const std::vector<SubSegment> forest =
      query_forest(tip, config.segment_length);

  // A piece spanning a whole query-forest segment has an empty anchor path
  // and serializes byte-identically to that segment's SegmentQueryProof,
  // so it streams through the indexed segment serializer; size those up
  // front so the reply buffer grows once.
  std::vector<bool> whole(cover.size(), false);
  std::uint64_t reserve = 0;
  for (std::size_t i = 0; i < cover.size(); ++i) {
    const SubSegment range{cover[i].first_height(), cover[i].last_height()};
    if (cover[i].path_length() != 0 ||
        !std::binary_search(forest.begin(), forest.end(), range)) {
      continue;
    }
    whole[i] = true;
    reserve += segment_proof_wire_size(ctx, address, cbp, range);
  }
  w.reserve(static_cast<std::size_t>(reserve));

  w.u8(static_cast<std::uint8_t>(config.design));
  w.varint(tip);
  w.varint(from);
  w.varint(to);
  for (std::size_t i = 0; i < cover.size(); ++i) {
    if (whole[i]) {
      serialize_segment_proof(
          w, ctx, address, cbp,
          SubSegment{cover[i].first_height(), cover[i].last_height()});
    } else {
      build_anchored_piece(ctx, address, cbp, cover[i]).serialize(w);
    }
  }
}

VerifyOutcome verify_range_response(const std::vector<BlockHeader>& headers,
                                    const ProtocolConfig& config,
                                    const Address& address,
                                    const RangeQueryResponse& response,
                                    const VerifyContext& ctx) {
  const std::uint64_t tip = headers.size();
  if (tip == 0 || response.tip_height != tip || response.design != config.design ||
      response.from < 1 || response.from > response.to || response.to > tip) {
    return VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                  "range response does not fit local chain");
  }
  if (headers.front().scheme != config.scheme()) {
    return VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                  "header scheme does not match config");
  }

  BloomKey key = BloomKey::from_bytes(address.span());
  std::vector<std::uint64_t> cbp = config.bloom.positions(key);

  VerifyOutcome outcome;
  outcome.history.address = address;

  if (config.has_bmt()) {
    std::vector<RangePiece> cover = range_cover(
        response.from, response.to, tip, config.segment_length);
    if (response.pieces.size() != cover.size()) {
      return VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                    "wrong number of range pieces");
    }
    // Each anchored piece is an independent unit: open its proof, fold
    // the anchor path, walk its per-block proofs. The ascending scan
    // below returns the lowest-index failure — the serial outcome.
    std::vector<detail::VerifyUnitResult> results(cover.size());
    parallel_for_each(ctx.pool, cover.size(), [&](std::uint64_t i) {
      detail::VerifyUnitResult& result = results[i];
      const RangePiece& piece = cover[i];
      const AnchoredTreeProof& proof = response.pieces[i];
      if (proof.path.size() != piece.path_length()) {
        result.fail = VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                             "wrong anchor path length");
        return;
      }
      BmtOpenOutcome open =
          open_bmt_proof(proof.tree, config.bloom, cbp, piece.level);
      if (!open.ok) {
        result.fail = VerifyOutcome::failure(VerifyError::kBmtProofInvalid,
                                             open.error);
        return;
      }
      // Fold the anchor path (Eq. 2/3); sidedness follows from j parity.
      Hash256 hash = open.hash;
      BloomFilter bf = std::move(open.bf);
      std::uint64_t j = piece.j;
      for (const BmtPathStep& step : proof.path) {
        if (step.sibling_bf.geometry() != config.bloom) {
          result.fail =
              VerifyOutcome::failure(VerifyError::kBmtProofInvalid,
                                     "path sibling BF has wrong geometry");
          return;
        }
        bf.merge(step.sibling_bf);
        hash = (j & 1) ? bmt_node_hash(step.sibling_hash, hash, bf)
                       : bmt_node_hash(hash, step.sibling_hash, bf);
        j >>= 1;
      }
      const BlockHeader& anchor = headers[piece.anchor_height - 1];
      if (!anchor.bmt_root || hash != *anchor.bmt_root) {
        result.fail = VerifyOutcome::failure(
            VerifyError::kBmtProofInvalid,
            "anchored proof does not reach the header commitment");
        return;
      }
      // Failed leaves <-> block proofs, exactly, in order.
      if (proof.block_proofs.size() != open.failed_leaf_locals.size()) {
        result.fail = VerifyOutcome::failure(
            proof.block_proofs.size() < open.failed_leaf_locals.size()
                ? VerifyError::kBlockProofMissing
                : VerifyError::kBlockProofUnexpected,
            "failed-leaf set and block-proof set differ");
        return;
      }
      VerifiedHistory local;
      local.address = address;
      for (std::size_t k = 0; k < proof.block_proofs.size(); ++k) {
        std::uint64_t expect_height =
            piece.first_height() + open.failed_leaf_locals[k];
        if (proof.block_proofs[k].first != expect_height) {
          result.fail = VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                               "block proof at wrong height");
          return;
        }
        if (auto fail = verify_failed_block_proof(
                headers, config, address, expect_height,
                proof.block_proofs[k].second, local)) {
          result.fail = std::move(*fail);
          return;
        }
      }
      result.blocks = std::move(local.blocks);
    });
    for (detail::VerifyUnitResult& r : results) {
      if (r.fail) return std::move(*r.fail);
    }
    for (detail::VerifyUnitResult& r : results) {
      for (VerifiedBlockTxs& b : r.blocks)
        outcome.history.blocks.push_back(std::move(b));
    }
    outcome.ok = true;
    return outcome;
  }

  // Non-BMT designs: dense fragments over the range.
  std::uint64_t count = response.to - response.from + 1;
  const bool ships_bfs = design_ships_block_bfs(config.design);
  if (response.fragments.size() != count ||
      (ships_bfs && response.block_bfs.size() != count)) {
    return VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                  "fragment list does not cover the range");
  }
  // One unit per height; slot `idx` of an optional memo caches the hash
  // of the BF shipped at range offset idx.
  if (ctx.memo) ctx.memo->resize_for(static_cast<std::size_t>(count));
  std::vector<detail::VerifyUnitResult> results(count);
  parallel_for_each(ctx.pool, count, [&](std::uint64_t idx) {
    detail::VerifyUnitResult& result = results[idx];
    const std::uint64_t h = response.from + idx;
    const BlockHeader& hd = headers[h - 1];
    const BloomFilter* bf = nullptr;
    if (config.design == Design::kStrawman) {
      if (!hd.embedded_bf) {
        result.fail = VerifyOutcome::failure(VerifyError::kShapeMismatch,
                                             "header lacks embedded BF");
        return;
      }
      bf = &*hd.embedded_bf;
    } else {
      const BloomFilter& shipped = response.block_bfs[idx];
      if (shipped.geometry() != config.bloom || !hd.bf_hash) {
        result.fail =
            VerifyOutcome::failure(VerifyError::kBfHashMismatch,
                                   "shipped BF does not match header H(BF)");
        return;
      }
      Hash256 got = ctx.memo ? ctx.memo->content_hash(idx, shipped)
                             : shipped.content_hash();
      if (got != *hd.bf_hash) {
        result.fail =
            VerifyOutcome::failure(VerifyError::kBfHashMismatch,
                                   "shipped BF does not match header H(BF)");
        return;
      }
      bf = &shipped;
    }
    bool failed_check = detail::all_bits_set(*bf, cbp);
    const BlockProof& frag = response.fragments[idx];
    if (!failed_check) {
      if (frag.kind != BlockProof::Kind::kEmpty) {
        result.fail = VerifyOutcome::failure(
            VerifyError::kFragmentKindInvalid,
            "BF proves absence but fragment is not empty");
      }
      return;
    }
    VerifiedHistory local;
    local.address = address;
    if (auto fail = verify_failed_block_proof(headers, config, address, h,
                                              frag, local)) {
      result.fail = std::move(*fail);
      return;
    }
    result.blocks = std::move(local.blocks);
  });
  for (detail::VerifyUnitResult& r : results) {
    if (r.fail) return std::move(*r.fail);
  }
  for (detail::VerifyUnitResult& r : results) {
    for (VerifiedBlockTxs& b : r.blocks)
      outcome.history.blocks.push_back(std::move(b));
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace lvq
