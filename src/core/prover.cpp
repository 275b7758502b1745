#include "core/prover.hpp"

#include <algorithm>
#include <bit>

#include "core/proof_index.hpp"
#include "core/segments.hpp"
#include "merkle/merkle_tree.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace lvq {

namespace {

/// Block tables for `height`, or nullptr (no index built, or a design
/// needing no per-block tables).
const BlockProofIndex* block_index(const ChainContext& ctx,
                                   std::uint64_t height) {
  const ProofIndex* index = ctx.proof_index();
  return index ? index->block(height) : nullptr;
}

/// All (tx, branch) pairs for transactions involving `address` in block
/// `height`. With block tables, the involved tx indices and their branches
/// are offset lookups; the fallback rescans the block and rebuilds the tx
/// Merkle tree. Both emit ascending tx order.
std::vector<TxWithBranch> collect_tx_branches(const ChainContext& ctx,
                                              std::uint64_t height,
                                              const Address& address,
                                              const BlockProofIndex* bidx) {
  const Block& block = ctx.chain().at_height(height);
  std::vector<TxWithBranch> out;
  if (bidx != nullptr && bidx->has_tx_tables()) {
    std::optional<std::uint64_t> rank = bidx->rank_of(address);
    if (!rank.has_value()) return out;
    for (std::uint32_t i : bidx->txs_for_leaf(*rank)) {
      TxWithBranch t;
      t.tx = block.txs[i];
      t.branch = bidx->tx_branch(i);
      out.push_back(std::move(t));
    }
    return out;
  }
  const BlockDerived& derived = ctx.derived().at(height);
  MerkleTree tree(derived.txids);
  for (std::size_t i = 0; i < block.txs.size(); ++i) {
    if (!block.txs[i].involves(address)) continue;
    TxWithBranch t;
    t.tx = block.txs[i];
    t.branch = tree.branch(static_cast<std::uint32_t>(i));
    out.push_back(std::move(t));
  }
  return out;
}

/// Appends per-block proofs for every failed leaf under (level, j), in
/// ascending height order (matching the left-to-right proof recursion).
void collect_failed_blocks(SegmentQueryProof& seg, const ChainContext& ctx,
                           const SegmentBmt& bmt, const BmtCheckMasks& masks,
                           std::uint32_t level, std::uint64_t j,
                           const Address& address) {
  if (!masks.fails(level, j)) return;
  if (level == 0) {
    std::uint64_t height = bmt.first_height() + j;
    seg.block_proofs.emplace_back(height,
                                  build_block_proof(ctx, height, address));
    return;
  }
  collect_failed_blocks(seg, ctx, bmt, masks, level - 1, 2 * j, address);
  collect_failed_blocks(seg, ctx, bmt, masks, level - 1, 2 * j + 1, address);
}

// --- direct serialization (bytes identical to structure + serialize) ---

/// BmtNodeProof::serialize's bytes for the query tree under (level, j),
/// written without building the tree: each case mirrors one arm of
/// build_bmt_proof followed by the matching serializer arm.
void write_bmt_tree(Writer& w, const SegmentBmt& bmt,
                    const SegmentProofIndex* sidx, const BmtCheckMasks& masks,
                    std::uint32_t level, std::uint64_t j) {
  auto write_bf = [&](std::uint32_t l, std::uint64_t jj) {
    if (sidx != nullptr) {
      w.raw(sidx->bf_bits(l, jj));  // zero-copy from the index (RAM or mmap)
    } else {
      bmt.node_bf(l, jj).serialize_bits(w);
    }
  };
  if (!masks.fails(level, j)) {
    w.u8(static_cast<std::uint8_t>(BmtNodeProof::Kind::kInexistentEndpoint));
    write_bf(level, j);
    w.u8(level > 0 ? 1 : 0);
    if (level > 0) {
      w.raw(bmt.node_hash(level - 1, 2 * j).bytes);
      w.raw(bmt.node_hash(level - 1, 2 * j + 1).bytes);
    }
    return;
  }
  if (level == 0) {
    w.u8(static_cast<std::uint8_t>(BmtNodeProof::Kind::kFailedLeaf));
    write_bf(0, j);
    return;
  }
  w.u8(static_cast<std::uint8_t>(BmtNodeProof::Kind::kInterior));
  write_bmt_tree(w, bmt, sidx, masks, level - 1, 2 * j);
  write_bmt_tree(w, bmt, sidx, masks, level - 1, 2 * j + 1);
}

std::uint64_t count_failed_leaves(const BmtCheckMasks& masks,
                                  std::uint32_t level, std::uint64_t j) {
  if (!masks.fails(level, j)) return 0;
  if (level == 0) return 1;
  return count_failed_leaves(masks, level - 1, 2 * j) +
         count_failed_leaves(masks, level - 1, 2 * j + 1);
}

/// BlockProof::serialize's bytes for one failed block. Transactions and
/// integral blocks stream from chain storage — build_block_proof copies
/// them into the proof object first, which is pure overhead when the
/// caller only wants the wire bytes. Falls back to the structured builder
/// when a needed table is missing.
void write_block_proof(Writer& w, const ChainContext& ctx,
                       std::uint64_t height, const Address& address) {
  const BlockProofIndex* bidx = block_index(ctx, height);
  const bool has_smt = ctx.config().has_smt();
  const bool smt_tables = bidx != nullptr && bidx->has_smt_tables();
  const bool tx_tables = bidx != nullptr && bidx->has_tx_tables();

  const std::vector<SmtLeaf>& leaves = ctx.derived().at(height).smt_leaves;
  auto it = std::lower_bound(
      leaves.begin(), leaves.end(), address,
      [](const SmtLeaf& l, const Address& a) { return l.address < a; });
  const bool present = it != leaves.end() && it->address == address;
  const std::uint64_t rank = static_cast<std::uint64_t>(it - leaves.begin());

  auto write_indexed_txs = [&]() {
    const std::vector<std::uint32_t>& txs = bidx->txs_for_leaf(rank);
    const Block& block = ctx.chain().at_height(height);
    w.varint(txs.size());
    for (std::uint32_t i : txs) {
      block.txs[i].serialize(w);
      bidx->tx_branch(i).serialize(w);
    }
    return txs.size();
  };

  if (present) {
    if (has_smt) {
      if (!smt_tables || !tx_tables) {
        build_block_proof(ctx, height, address).serialize(w);
        return;
      }
      w.u8(static_cast<std::uint8_t>(BlockProof::Kind::kExistent));
      SmtBranch count_branch = bidx->smt_branch(rank);
      count_branch.serialize(w);
      LVQ_CHECK_MSG(write_indexed_txs() == count_branch.leaf.count,
                    "appearance count out of sync with block scan");
    } else if (ctx.config().design == Design::kLvqNoSmt) {
      w.u8(static_cast<std::uint8_t>(BlockProof::Kind::kIntegralBlock));
      ctx.chain().at_height(height).serialize(w);
    } else {
      if (!tx_tables) {
        build_block_proof(ctx, height, address).serialize(w);
        return;
      }
      w.u8(static_cast<std::uint8_t>(BlockProof::Kind::kExistentNoCount));
      write_indexed_txs();
    }
  } else {
    if (has_smt) {
      if (!smt_tables) {
        build_block_proof(ctx, height, address).serialize(w);
        return;
      }
      w.u8(static_cast<std::uint8_t>(BlockProof::Kind::kAbsent));
      bidx->smt_absence(address).serialize(w);
    } else {
      w.u8(static_cast<std::uint8_t>(BlockProof::Kind::kIntegralBlock));
      ctx.chain().at_height(height).serialize(w);
    }
  }
}

/// SegmentQueryProof::serialize's block-proof list, recursion order ==
/// collect_failed_blocks (ascending height).
void write_failed_blocks(Writer& w, const ChainContext& ctx,
                         const SegmentBmt& bmt, const BmtCheckMasks& masks,
                         std::uint32_t level, std::uint64_t j,
                         const Address& address) {
  if (!masks.fails(level, j)) return;
  if (level == 0) {
    std::uint64_t height = bmt.first_height() + j;
    w.varint(height);
    write_block_proof(w, ctx, height, address);
    return;
  }
  write_failed_blocks(w, ctx, bmt, masks, level - 1, 2 * j, address);
  write_failed_blocks(w, ctx, bmt, masks, level - 1, 2 * j + 1, address);
}

// --- size-only pass (reserve the reply buffer once, no reallocations) ---

/// write_bmt_tree's byte count. Every BF serializes to the geometry's
/// size_bytes, so the tree sizes from the masks alone.
std::uint64_t bmt_tree_size(const BmtCheckMasks& masks, std::size_t bf_bytes,
                            std::uint32_t level, std::uint64_t j) {
  if (!masks.fails(level, j)) {
    return 2 + bf_bytes + (level > 0 ? 64 : 0);
  }
  if (level == 0) return 1 + bf_bytes;
  return 1 + bmt_tree_size(masks, bf_bytes, level - 1, 2 * j) +
         bmt_tree_size(masks, bf_bytes, level - 1, 2 * j + 1);
}

/// write_block_proof's byte count (branches are rebuilt — they are a few
/// hundred bytes against the transactions' megabytes, so sizing stays
/// cheap relative to the reallocation churn it prevents).
std::uint64_t block_proof_size(const ChainContext& ctx, std::uint64_t height,
                               const Address& address) {
  const BlockProofIndex* bidx = block_index(ctx, height);
  const bool has_smt = ctx.config().has_smt();
  const bool smt_tables = bidx != nullptr && bidx->has_smt_tables();
  const bool tx_tables = bidx != nullptr && bidx->has_tx_tables();

  const std::vector<SmtLeaf>& leaves = ctx.derived().at(height).smt_leaves;
  auto it = std::lower_bound(
      leaves.begin(), leaves.end(), address,
      [](const SmtLeaf& l, const Address& a) { return l.address < a; });
  const bool present = it != leaves.end() && it->address == address;
  const std::uint64_t rank = static_cast<std::uint64_t>(it - leaves.begin());

  auto indexed_txs_size = [&]() {
    const std::vector<std::uint32_t>& txs = bidx->txs_for_leaf(rank);
    const Block& block = ctx.chain().at_height(height);
    std::uint64_t n = varint_size(txs.size());
    for (std::uint32_t i : txs) {
      n += block.txs[i].serialized_size() +
           bidx->tx_branch(i).serialized_size();
    }
    return n;
  };

  if (present) {
    if (has_smt) {
      if (!smt_tables || !tx_tables) {
        return build_block_proof(ctx, height, address).serialized_size();
      }
      return 1 + bidx->smt_branch(rank).serialized_size() +
             indexed_txs_size();
    }
    if (ctx.config().design == Design::kLvqNoSmt) {
      return 1 + ctx.chain().at_height(height).serialized_size();
    }
    if (!tx_tables) {
      return build_block_proof(ctx, height, address).serialized_size();
    }
    return 1 + indexed_txs_size();
  }
  if (has_smt) {
    if (!smt_tables) {
      return build_block_proof(ctx, height, address).serialized_size();
    }
    return 1 + bidx->smt_absence(address).serialized_size();
  }
  return 1 + ctx.chain().at_height(height).serialized_size();
}

std::uint64_t failed_blocks_size(const ChainContext& ctx,
                                 const SegmentBmt& bmt,
                                 const BmtCheckMasks& masks,
                                 std::uint32_t level, std::uint64_t j,
                                 const Address& address) {
  if (!masks.fails(level, j)) return 0;
  if (level == 0) {
    std::uint64_t height = bmt.first_height() + j;
    return varint_size(height) + block_proof_size(ctx, height, address);
  }
  return failed_blocks_size(ctx, bmt, masks, level - 1, 2 * j, address) +
         failed_blocks_size(ctx, bmt, masks, level - 1, 2 * j + 1, address);
}

}  // namespace

BlockProof build_block_proof(const ChainContext& ctx, std::uint64_t height,
                             const Address& address) {
  const BlockDerived& derived = ctx.derived().at(height);
  const bool has_smt = ctx.config().has_smt();
  const BlockProofIndex* bidx = block_index(ctx, height);
  const bool smt_tables = bidx != nullptr && bidx->has_smt_tables();

  // Presence and rank come from a binary search over the sorted leaf list;
  // an actual SortedMerkleTree (which hashes every leaf on construction)
  // is only built when a branch is needed and no precomputed level table
  // exists.
  const std::vector<SmtLeaf>& leaves = derived.smt_leaves;
  auto it = std::lower_bound(
      leaves.begin(), leaves.end(), address,
      [](const SmtLeaf& l, const Address& a) { return l.address < a; });
  std::optional<std::uint64_t> idx;
  if (it != leaves.end() && it->address == address) {
    idx = static_cast<std::uint64_t>(it - leaves.begin());
  }

  BlockProof proof;
  if (idx.has_value()) {
    // Existent case.
    if (has_smt) {
      proof.kind = BlockProof::Kind::kExistent;
      BlockExistenceProof e;
      e.count_branch = smt_tables ? bidx->smt_branch(*idx)
                                  : SortedMerkleTree(leaves).branch(*idx);
      e.txs = collect_tx_branches(ctx, height, address, bidx);
      LVQ_CHECK_MSG(e.txs.size() == e.count_branch.leaf.count,
                    "appearance count out of sync with block scan");
      proof.existence = std::move(e);
    } else if (ctx.config().design == Design::kLvqNoSmt) {
      // The no-SMT ablation preserves LVQ's completeness guarantee: the
      // only complete disclosure without an appearance-count proof is the
      // whole block (this is why the ablation "declines dramatically" for
      // busy addresses in the paper's Fig. 12).
      proof.kind = BlockProof::Kind::kIntegralBlock;
      proof.block = ctx.chain().at_height(height);
    } else {
      // Strawman Eq. 4: bare Merkle branches; the count is unverifiable —
      // Challenge 3, demonstrated by the adversarial tests.
      proof.kind = BlockProof::Kind::kExistentNoCount;
      proof.plain_txs = collect_tx_branches(ctx, height, address, bidx);
    }
  } else {
    // FPM case: the BF check failed but the address is not in the block.
    if (has_smt) {
      proof.kind = BlockProof::Kind::kAbsent;
      proof.absence = smt_tables
                          ? bidx->smt_absence(address)
                          : SortedMerkleTree(leaves).absence_proof(address);
    } else {
      proof.kind = BlockProof::Kind::kIntegralBlock;
      proof.block = ctx.chain().at_height(height);
    }
  }
  return proof;
}

namespace {

/// Merged proof for ONE query-forest range (BMT designs): the BmtNodeProof
/// rooted at the range plus per-block proofs for its failed leaves, in
/// ascending height order. A full query response is exactly these proofs
/// concatenated over query_forest(tip, M).
SegmentQueryProof build_segment_proof(const ChainContext& ctx,
                                      const Address& address,
                                      const std::vector<std::uint64_t>& cbp,
                                      const SubSegment& range) {
  const SegmentBmt& bmt = ctx.bmt_for_height(range.first);
  const SegmentProofIndex* sidx =
      ctx.proof_index() ? ctx.proof_index()->segment_for_height(range.first)
                        : nullptr;
  BmtCheckMasks masks = sidx ? sidx->check_masks(cbp) : bmt.check_masks(cbp);
  std::uint32_t root_level = static_cast<std::uint32_t>(
      std::countr_zero(range.length()));
  std::uint64_t local_first = range.first - bmt.first_height();
  std::uint64_t root_j = local_first >> root_level;

  SegmentQueryProof seg;
  seg.tree = build_bmt_proof(bmt, masks, root_level, root_j, sidx);

  // Per-block proofs for every failed leaf, ascending height.
  collect_failed_blocks(seg, ctx, bmt, masks, root_level, root_j, address);
  return seg;
}

}  // namespace

QueryResponse build_query_response(const ChainContext& ctx,
                                   const Address& address, ThreadPool* pool) {
  const ProtocolConfig& config = ctx.config();
  QueryResponse resp;
  resp.design = config.design;
  resp.tip_height = ctx.tip_height();

  BloomKey key = BloomKey::from_bytes(address.span());
  std::vector<std::uint64_t> cbp = config.bloom.positions(key);

  if (config.has_bmt()) {
    // Merged BMT proofs, one per query-forest tree (§V-A2 / §V-B). The
    // trees are independent, so they assemble in parallel.
    std::vector<SubSegment> forest =
        query_forest(resp.tip_height, config.segment_length);
    resp.segments.resize(forest.size());
    parallel_for_each(pool, forest.size(), [&](std::uint64_t i) {
      resp.segments[i] = build_segment_proof(ctx, address, cbp, forest[i]);
    });
    return resp;
  }

  // Non-BMT designs: dense per-height fragments (strawman Fig. 6 / Eq. 4),
  // likewise independent per height.
  const bool ships_bfs = design_ships_block_bfs(config.design);
  if (ships_bfs) resp.block_bfs.resize(resp.tip_height);
  resp.fragments.resize(resp.tip_height);
  parallel_for_each(pool, resp.tip_height, [&](std::uint64_t i) {
    const std::uint64_t h = i + 1;
    if (ships_bfs) resp.block_bfs[i] = ctx.positions().block_bf(h);
    if (ctx.positions().check_fails(h, cbp)) {
      resp.fragments[i] = build_block_proof(ctx, h, address);
    } else {
      resp.fragments[i].kind = BlockProof::Kind::kEmpty;
    }
  });
  return resp;
}

void serialize_segment_proof(Writer& w, const ChainContext& ctx,
                             const Address& address,
                             const std::vector<std::uint64_t>& cbp,
                             const SubSegment& range) {
  const SegmentBmt& bmt = ctx.bmt_for_height(range.first);
  const SegmentProofIndex* sidx =
      ctx.proof_index() ? ctx.proof_index()->segment_for_height(range.first)
                        : nullptr;
  BmtCheckMasks masks = sidx ? sidx->check_masks(cbp) : bmt.check_masks(cbp);
  std::uint32_t root_level = static_cast<std::uint32_t>(
      std::countr_zero(range.length()));
  std::uint64_t local_first = range.first - bmt.first_height();
  std::uint64_t root_j = local_first >> root_level;

  write_bmt_tree(w, bmt, sidx, masks, root_level, root_j);
  w.varint(count_failed_leaves(masks, root_level, root_j));
  write_failed_blocks(w, ctx, bmt, masks, root_level, root_j, address);
}

std::uint64_t segment_proof_wire_size(const ChainContext& ctx,
                                      const Address& address,
                                      const std::vector<std::uint64_t>& cbp,
                                      const SubSegment& range) {
  const SegmentBmt& bmt = ctx.bmt_for_height(range.first);
  const SegmentProofIndex* sidx =
      ctx.proof_index() ? ctx.proof_index()->segment_for_height(range.first)
                        : nullptr;
  BmtCheckMasks masks = sidx ? sidx->check_masks(cbp) : bmt.check_masks(cbp);
  std::uint32_t root_level = static_cast<std::uint32_t>(
      std::countr_zero(range.length()));
  std::uint64_t local_first = range.first - bmt.first_height();
  std::uint64_t root_j = local_first >> root_level;

  std::uint64_t failed = count_failed_leaves(masks, root_level, root_j);
  return bmt_tree_size(masks, ctx.config().bloom.size_bytes, root_level,
                       root_j) +
         varint_size(failed) +
         failed_blocks_size(ctx, bmt, masks, root_level, root_j, address);
}

void serialize_query_response(Writer& w, const ChainContext& ctx,
                              const Address& address, ThreadPool* pool) {
  const ProtocolConfig& config = ctx.config();
  if (!config.has_bmt()) {
    // Dense designs ship every block's BF + fragment; the dominant bytes
    // are the BFs, which serialize_bits already streams — no win in
    // bypassing the structured path.
    build_query_response(ctx, address, pool).serialize(w);
    return;
  }

  BloomKey key = BloomKey::from_bytes(address.span());
  std::vector<std::uint64_t> cbp = config.bloom.positions(key);
  const std::uint64_t tip = ctx.tip_height();
  std::vector<SubSegment> forest = query_forest(tip, config.segment_length);

  w.u8(static_cast<std::uint8_t>(config.design));
  w.varint(tip);
  w.varint(forest.size());
  if (pool != nullptr && pool->size() > 1 && forest.size() > 1) {
    // Index-addressed slots keep the concatenation order deterministic.
    std::vector<Bytes> parts(forest.size());
    pool->parallel_for(forest.size(), [&](std::uint64_t i) {
      Writer pw;
      pw.reserve(static_cast<std::size_t>(
          segment_proof_wire_size(ctx, address, cbp, forest[i])));
      serialize_segment_proof(pw, ctx, address, cbp, forest[i]);
      parts[i] = pw.take();
    });
    std::size_t total = 0;
    for (const Bytes& p : parts) total += p.size();
    w.reserve(total);
    for (const Bytes& p : parts) w.raw(p);
  } else {
    // Size pass first, then one exactly-sized allocation: megabyte
    // responses otherwise pay a realloc-and-copy chain as the buffer
    // doubles its way up.
    std::uint64_t total = 0;
    for (const SubSegment& range : forest) {
      total += segment_proof_wire_size(ctx, address, cbp, range);
    }
    w.reserve(static_cast<std::size_t>(total));
    for (const SubSegment& range : forest) {
      serialize_segment_proof(w, ctx, address, cbp, range);
    }
  }
}

}  // namespace lvq
