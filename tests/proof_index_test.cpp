// ProofIndex tests.
//
// The load-bearing property: the precomputed proof-assembly tables are a
// pure accelerator — every proof byte a context produces with its index is
// identical to the tree-walk fallback, for every design, and an extended
// context aliases the sealed prefix of its base's index instead of
// rederiving it. The node's batch/range dispatch and the engine's cold
// path ride the same guarantee.
#include <gtest/gtest.h>

#include <set>

#include "core/chain_builder.hpp"
#include "core/proof_index.hpp"
#include "core/prover.hpp"
#include "merkle/merkle_tree.hpp"
#include "merkle/sorted_merkle_tree.hpp"
#include "node/session.hpp"
#include "server/serving_engine.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload.hpp"

namespace lvq {
namespace {

ExperimentSetup test_setup(std::uint32_t blocks, std::uint64_t seed = 404) {
  WorkloadConfig c;
  c.seed = seed;
  c.num_blocks = blocks;
  c.background_txs_per_block = 7;
  c.profiles = {{"busy", 10, 7}, {"rare", 2, 2}, {"ghost", 0, 0}};
  return make_setup(c);
}

ByteSpan as_span(const Bytes& b) { return ByteSpan{b.data(), b.size()}; }

Bytes query_bytes(const ChainContext& ctx, const Address& addr,
                  ThreadPool* pool = nullptr) {
  Writer w;
  build_query_response(ctx, addr, pool).serialize(w);
  return w.take();
}

Bytes make_query_request(const Address& a) {
  Writer w;
  QueryRequest{a}.serialize(w);
  return encode_envelope(MsgType::kQueryRequest, as_span(w.data()));
}

Bytes make_batch_request(const std::vector<Address>& addrs) {
  Writer w;
  w.varint(addrs.size());
  for (const Address& a : addrs) a.serialize(w);
  return encode_envelope(MsgType::kBatchQueryRequest, as_span(w.data()));
}

Bytes make_range_request(const Address& a, std::uint64_t from,
                         std::uint64_t to) {
  Writer w;
  RangeQueryRequest{a, from, to}.serialize(w);
  return encode_envelope(MsgType::kRangeQueryRequest, as_span(w.data()));
}

/// Reference batch reply: the envelope byte, the count, then each
/// address's structured QueryResponse bytes.
Bytes structured_batch_reply(const ChainContext& ctx,
                             const std::vector<Address>& addrs) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kBatchQueryResponse));
  w.varint(addrs.size());
  for (const Address& a : addrs) build_query_response(ctx, a).serialize(w);
  return w.take();
}

/// Reference range reply: the envelope byte, then the structured
/// RangeQueryResponse bytes.
Bytes structured_range_reply(const ChainContext& ctx, const Address& a,
                             std::uint64_t from, std::uint64_t to) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRangeQueryResponse));
  build_range_response(ctx, a, from, to).serialize(w);
  return w.take();
}

/// Ranges covering every query-forest segment whole, the whole chain, and
/// partial spans that need anchored pieces.
std::vector<std::pair<std::uint64_t, std::uint64_t>> probe_ranges(
    const ChainContext& ctx) {
  const std::uint64_t tip = ctx.tip_height();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const SubSegment& range :
       query_forest(tip, ctx.config().segment_length)) {
    out.emplace_back(range.first, range.last);
  }
  out.emplace_back(1, tip);
  out.emplace_back(2, tip - 1);
  out.emplace_back(3, 9);
  out.emplace_back(6, 6);
  out.emplace_back(tip, tip);
  return out;
}

/// Every design, every profile (busy / rare / never-seen): query responses
/// from an indexed context, an index-less context, and an indexed context
/// assembling across a pool must be byte-identical.
TEST(ProofIndex, QueryBytesIdenticalWithAndWithoutIndex) {
  const ExperimentSetup setup = test_setup(22);
  ThreadPool pool(4);

  for (Design design : {Design::kStrawman, Design::kStrawmanVariant,
                        Design::kLvqNoBmt, Design::kLvqNoSmt, Design::kLvq}) {
    ProtocolConfig config{design, BloomGeometry{128, 4}, 4};

    ChainBuildOptions with_index;  // proof_index defaults to true
    ChainBuildOptions without_index;
    without_index.proof_index = false;

    auto indexed = ChainBuilder::build(setup.workload, config, with_index);
    auto walked = ChainBuilder::build(setup.workload, config, without_index);
    ASSERT_NE(indexed->proof_index(), nullptr) << design_name(design);
    EXPECT_EQ(walked->proof_index(), nullptr) << design_name(design);

    for (const AddressProfile& p : setup.workload->profiles) {
      Bytes want = query_bytes(*walked, p.address);
      EXPECT_EQ(want, query_bytes(*indexed, p.address))
          << design_name(design) << " " << p.label;
      EXPECT_EQ(want, query_bytes(*indexed, p.address, &pool))
          << design_name(design) << " " << p.label << " (pooled)";
    }
  }
}

/// The streaming serializers must emit byte-for-byte what the structured
/// paths (build_query_response / build_range_response + serialize) emit —
/// with the index, without it, and across a pool — and the size-only
/// companion must predict the byte count exactly.
TEST(ProofIndex, DirectSerializationMatchesStructuredPath) {
  const ExperimentSetup setup = test_setup(22);
  ThreadPool pool(4);

  for (Design design : {Design::kStrawman, Design::kStrawmanVariant,
                        Design::kLvqNoBmt, Design::kLvqNoSmt, Design::kLvq}) {
    ProtocolConfig config{design, BloomGeometry{128, 4}, 4};

    ChainBuildOptions without_index;
    without_index.proof_index = false;
    auto indexed = ChainBuilder::build(setup.workload, config, {});
    auto walked = ChainBuilder::build(setup.workload, config, without_index);

    for (const AddressProfile& p : setup.workload->profiles) {
      const Bytes want = query_bytes(*indexed, p.address);
      for (const auto* ctx : {indexed.get(), walked.get()}) {
        Writer serial;
        serialize_query_response(serial, *ctx, p.address);
        EXPECT_EQ(want, serial.data())
            << design_name(design) << " " << p.label
            << (ctx == walked.get() ? " (tree-walk)" : " (indexed)");

        Writer pooled;
        serialize_query_response(pooled, *ctx, p.address, &pool);
        EXPECT_EQ(want, pooled.data())
            << design_name(design) << " " << p.label << " (pooled)";

        for (auto [from, to] : probe_ranges(*indexed)) {
          Writer structured;
          build_range_response(*indexed, p.address, from, to)
              .serialize(structured);
          Writer streamed;
          serialize_range_response(streamed, *ctx, p.address, from, to);
          EXPECT_EQ(structured.data(), streamed.data())
              << design_name(design) << " " << p.label << " [" << from
              << ", " << to << "]"
              << (ctx == walked.get() ? " (tree-walk)" : " (indexed)");
        }
      }

      if (config.has_bmt()) {
        BloomKey key = BloomKey::from_bytes(p.address.span());
        std::vector<std::uint64_t> cbp = config.bloom.positions(key);
        for (const SubSegment& range :
             query_forest(indexed->tip_height(), config.segment_length)) {
          Writer sw;
          serialize_segment_proof(sw, *indexed, p.address, cbp, range);
          EXPECT_EQ(sw.size(),
                    segment_proof_wire_size(*indexed, p.address, cbp, range))
              << design_name(design) << " " << p.label;
        }
      }
    }
  }
}

/// Unit-level equality: each table answers exactly what the tree walk
/// would. SMT branches, absence proofs, tx Merkle branches, and the
/// tx-by-leaf rank mapping are compared against freshly built trees for
/// every block.
TEST(ProofIndex, BlockTablesMatchTreeWalk) {
  const ExperimentSetup setup = test_setup(12);
  ProtocolConfig config{Design::kLvq, BloomGeometry{128, 4}, 4};
  auto ctx = ChainBuilder::build(setup.workload, config);
  const ProofIndex* index = ctx->proof_index();
  ASSERT_NE(index, nullptr);
  const Address ghost = Address::derive(str_bytes("never on chain"));

  for (std::uint64_t h = 1; h <= ctx->tip_height(); ++h) {
    const BlockProofIndex* bidx = index->block(h);
    ASSERT_NE(bidx, nullptr) << "height " << h;
    ASSERT_TRUE(bidx->has_tx_tables());
    ASSERT_TRUE(bidx->has_smt_tables());

    const BlockDerived& derived = ctx->derived().at(h);
    const Block& block = ctx->chain().at_height(h);
    SortedMerkleTree smt(derived.smt_leaves);
    MerkleTree mt(derived.txids);

    for (std::uint64_t rank = 0; rank < derived.smt_leaves.size(); ++rank) {
      const SmtLeaf& leaf = derived.smt_leaves[rank];
      EXPECT_EQ(bidx->rank_of(leaf.address), rank);

      SmtBranch want = smt.branch(rank);
      SmtBranch got = bidx->smt_branch(rank);
      Writer a, b;
      want.serialize(a);
      got.serialize(b);
      EXPECT_EQ(a.data(), b.data()) << "height " << h << " rank " << rank;

      // The rank mapping lists exactly the involved transactions, in
      // ascending order, count-consistent with the SMT leaf.
      const std::vector<std::uint32_t>& txs = bidx->txs_for_leaf(rank);
      ASSERT_EQ(txs.size(), leaf.count);
      for (std::size_t k = 0; k < txs.size(); ++k) {
        if (k > 0) {
          EXPECT_LT(txs[k - 1], txs[k]);
        }
        EXPECT_TRUE(block.txs[txs[k]].involves(leaf.address));
      }
    }

    ASSERT_FALSE(bidx->rank_of(ghost).has_value());
    Writer wa, wb;
    smt.absence_proof(ghost).serialize(wa);
    bidx->smt_absence(ghost).serialize(wb);
    EXPECT_EQ(wa.data(), wb.data()) << "height " << h;

    for (std::uint32_t t = 0; t < derived.txids.size(); ++t) {
      Writer ma, mb;
      mt.branch(t).serialize(ma);
      bidx->tx_branch(t).serialize(mb);
      EXPECT_EQ(ma.data(), mb.data()) << "height " << h << " tx " << t;
    }
  }
}

/// The precomputed segment BF arrays equal on-demand materialization for
/// every complete node of every segment, including the incomplete tail.
TEST(ProofIndex, SegmentBfsMatchOnDemandMaterialization) {
  const ExperimentSetup setup = test_setup(11);  // M=4: two sealed + [9..11]
  ProtocolConfig config{Design::kLvq, BloomGeometry{128, 4}, 4};
  auto ctx = ChainBuilder::build(setup.workload, config);
  const ProofIndex* index = ctx->proof_index();
  ASSERT_NE(index, nullptr);
  ASSERT_EQ(index->segment_slices().size(), ctx->bmts().size());

  for (std::size_t s = 0; s < ctx->bmts().size(); ++s) {
    const SegmentBmt& bmt = *ctx->bmts()[s];
    const SegmentProofIndex* sidx = index->segment_slices()[s].get();
    ASSERT_NE(sidx, nullptr);
    EXPECT_EQ(sidx->first_height(), bmt.first_height());
    EXPECT_EQ(sidx->available(), bmt.available());
    std::uint32_t depth = 0;
    while ((1u << depth) < bmt.segment_length()) ++depth;
    for (std::uint32_t level = 0; level <= depth; ++level) {
      for (std::uint64_t j = 0; j < (bmt.segment_length() >> level); ++j) {
        if (!bmt.node_complete(level, j)) continue;
        EXPECT_EQ(sidx->bf(level, j), bmt.node_bf(level, j))
            << "segment " << s << " node (" << level << "," << j << ")";
      }
    }
  }
}

/// Budget gating: a budget too small for the segment BF arrays skips them
/// (per-block tables survive) and the prover falls back per part —
/// bytes unchanged.
TEST(ProofIndex, SegmentPartSkippedWhenOverBudget) {
  const ExperimentSetup setup = test_setup(10);
  ProtocolConfig config{Design::kLvq, BloomGeometry{128, 4}, 4};

  ChainBuildOptions tiny_budget;
  tiny_budget.proof_index_bf_budget = 64;  // < one filter
  auto gated = ChainBuilder::build(setup.workload, config, tiny_budget);
  auto full = ChainBuilder::build(setup.workload, config);

  ASSERT_NE(gated->proof_index(), nullptr);
  EXPECT_TRUE(gated->proof_index()->segment_slices().empty());
  EXPECT_EQ(gated->proof_index()->segment_for_height(1), nullptr);
  EXPECT_NE(gated->proof_index()->block(1), nullptr);
  ASSERT_FALSE(full->proof_index()->segment_slices().empty());

  for (const AddressProfile& p : setup.workload->profiles) {
    EXPECT_EQ(query_bytes(*gated, p.address), query_bytes(*full, p.address))
        << p.label;
  }
}

/// extend() must alias the sealed prefix of the index by pointer — block
/// tables for old heights and sealed segment BF arrays are the same heap
/// objects — and a base built without an index stays index-less after
/// extend (an extend is O(new blocks), never O(chain)).
TEST(ProofIndex, ExtendAliasesSealedPrefix) {
  const ExperimentSetup setup = test_setup(13);
  ProtocolConfig config{Design::kLvq, BloomGeometry{128, 4}, 4};

  auto all = std::make_shared<Workload>();
  all->blocks = setup.workload->blocks;
  auto base_workload = std::make_shared<Workload>();
  base_workload->blocks.assign(all->blocks.begin(), all->blocks.begin() + 11);
  auto base = ChainBuilder::build(base_workload, config);
  auto grown = base->extend({all->blocks.begin() + 11, all->blocks.end()});

  const ProofIndex* bi = base->proof_index();
  const ProofIndex* gi = grown->proof_index();
  ASSERT_NE(bi, nullptr);
  ASSERT_NE(gi, nullptr);
  ASSERT_EQ(gi->tip_height(), 13u);

  for (std::uint64_t h = 1; h <= 11; ++h) {
    EXPECT_EQ(gi->block_slices()[h - 1], bi->block_slices()[h - 1])
        << "block tables rederived at height " << h;
  }
  // 11 blocks at M=4: segments [1..4][5..8] sealed, [9..11] open. After
  // +2 blocks the open segment grew to [9..12] and [13] started.
  ASSERT_EQ(bi->segment_slices().size(), 3u);
  ASSERT_EQ(gi->segment_slices().size(), 4u);
  EXPECT_EQ(gi->segment_slices()[0], bi->segment_slices()[0]);
  EXPECT_EQ(gi->segment_slices()[1], bi->segment_slices()[1]);
  EXPECT_NE(gi->segment_slices()[2], bi->segment_slices()[2])
      << "open tail segment must be rebuilt";

  // Byte-identity against a from-scratch build of the full chain, with the
  // base dead (the aliased slices must own their data).
  auto rebuilt = ChainBuilder::build(all, config);
  base.reset();
  for (const AddressProfile& p : setup.workload->profiles) {
    EXPECT_EQ(query_bytes(*grown, p.address), query_bytes(*rebuilt, p.address))
        << p.label;
  }

  // An index-less base stays index-less across extend.
  ChainBuildOptions no_index;
  no_index.proof_index = false;
  auto bare = ChainBuilder::build(base_workload, config, no_index);
  auto bare_grown = bare->extend({all->blocks.begin() + 11, all->blocks.end()});
  EXPECT_EQ(bare->proof_index(), nullptr);
  EXPECT_EQ(bare_grown->proof_index(), nullptr);
}

/// End-to-end: a light node synced against an extended, indexed node
/// verifies every profile's history — the aliased index serves proofs for
/// both the sealed prefix and the fresh heights.
TEST(ProofIndex, ExtendedIndexedChainVerifiesEndToEnd) {
  const ExperimentSetup setup = test_setup(16, /*seed=*/88);
  ProtocolConfig config{Design::kLvq, BloomGeometry{256, 4}, 4};

  auto base_workload = std::make_shared<Workload>();
  base_workload->blocks.assign(setup.workload->blocks.begin(),
                               setup.workload->blocks.begin() + 10);
  FullNode full(ChainBuilder::build(std::move(base_workload), config));
  full.append_blocks({setup.workload->blocks.begin() + 10,
                      setup.workload->blocks.end()});
  ASSERT_NE(full.context()->proof_index(), nullptr);

  LightNode light(config);
  LoopbackTransport transport(
      [&](ByteSpan req) { return full.handle_message(req); });
  ASSERT_TRUE(light.sync_headers(transport));
  ASSERT_EQ(light.tip_height(), 16u);

  for (const AddressProfile& p : setup.workload->profiles) {
    auto result = light.query(transport, p.address);
    ASSERT_TRUE(result.outcome.ok)
        << p.label << ": " << verify_error_name(result.outcome.error);
    GroundTruth gt = scan_ground_truth(*setup.workload, p.address);
    std::set<std::pair<std::uint64_t, Hash256>> expect(gt.txs.begin(),
                                                       gt.txs.end());
    std::set<std::pair<std::uint64_t, Hash256>> got;
    for (const VerifiedBlockTxs& b : result.outcome.history.blocks) {
      for (const Transaction& tx : b.txs) got.emplace(b.height, tx.txid());
    }
    EXPECT_EQ(got, expect) << p.label;
  }
}

/// FullNode::handle_message replies byte-match the structured reference
/// for every design: pooled batches, whole-segment and partial ranges,
/// both on the built chain and after append_blocks grew it in place (the
/// forest spans several segments at M=4 either way).
TEST(ProofIndex, NodeRepliesMatchStructuredReference) {
  const ExperimentSetup setup = test_setup(22, /*seed=*/31);
  for (Design design : {Design::kStrawman, Design::kStrawmanVariant,
                        Design::kLvqNoBmt, Design::kLvqNoSmt, Design::kLvq}) {
    ProtocolConfig config{design, BloomGeometry{128, 4}, 4};
    auto base_workload = std::make_shared<Workload>();
    base_workload->blocks.assign(setup.workload->blocks.begin(),
                                 setup.workload->blocks.begin() + 13);
    FullNode node(ChainBuilder::build(std::move(base_workload), config));

    for (int stage = 0; stage < 2; ++stage) {
      if (stage == 1) {
        node.append_blocks({setup.workload->blocks.begin() + 13,
                            setup.workload->blocks.end()});
      }
      const std::shared_ptr<const ChainContext> ctx = node.context();
      ASSERT_GT(query_forest(ctx->tip_height(), 4).size(), 1u);
      const std::string where =
          std::string(design_name(design)) + " tip " +
          std::to_string(ctx->tip_height());

      // Several addresses (each profile twice) so the batch fans out.
      std::vector<Address> addrs;
      for (int rep = 0; rep < 2; ++rep) {
        for (const AddressProfile& p : setup.workload->profiles) {
          addrs.push_back(p.address);
        }
      }
      Bytes batch = make_batch_request(addrs);
      EXPECT_EQ(node.handle_message(as_span(batch)),
                structured_batch_reply(*ctx, addrs))
          << where << " batch";

      for (const AddressProfile& p : setup.workload->profiles) {
        for (auto [from, to] : probe_ranges(*ctx)) {
          Bytes range = make_range_request(p.address, from, to);
          EXPECT_EQ(node.handle_message(as_span(range)),
                    structured_range_reply(*ctx, p.address, from, to))
              << where << " " << p.label << " [" << from << ", " << to
              << "]";
        }
      }
    }
  }
}

/// The serving engine's cold path (caches disabled) must produce the same
/// bytes as the node's own handler.
TEST(ProofIndex, EngineColdFanoutMatchesNodeBytes) {
  const ExperimentSetup setup = test_setup(24, /*seed=*/12);
  ProtocolConfig config{Design::kLvq, BloomGeometry{128, 4}, 4};
  FullNode node(ChainBuilder::build(setup.workload, config));

  ServingEngineOptions cold;
  cold.workers = 2;
  cold.cache_bytes = 0;  // no response cache
  ServingEngine engine(node, cold);

  for (const AddressProfile& p : setup.workload->profiles) {
    Bytes req = make_query_request(p.address);
    EXPECT_EQ(engine.handle(as_span(req)), node.handle_message(as_span(req)))
        << p.label;
  }

  // With the cache disabled nothing may be retained between requests.
  EXPECT_EQ(engine.snapshot().cache_entries, 0u);
}

}  // namespace
}  // namespace lvq
