// Tests for height-range queries: cover decomposition, anchoring, wire
// round trips across designs, ground-truth restriction, and attacks.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "core/range_query.hpp"
#include "node/session.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace lvq {
namespace {

const ExperimentSetup& setup() {
  static ExperimentSetup s = [] {
    WorkloadConfig c;
    c.seed = 2121;
    c.num_blocks = 100;
    c.background_txs_per_block = 8;
    c.profiles = {{"p", 20, 13}, {"ghost", 0, 0}};
    return make_setup(c);
  }();
  return s;
}

constexpr BloomGeometry kGeom{192, 6};
constexpr std::uint32_t kM = 16;

GroundTruth range_truth(const Address& addr, std::uint64_t from,
                        std::uint64_t to) {
  GroundTruth all = scan_ground_truth(*setup().workload, addr);
  GroundTruth out;
  std::set<std::uint64_t> blocks;
  for (const auto& [height, txid] : all.txs) {
    if (height < from || height > to) continue;
    out.txs.emplace_back(height, txid);
    blocks.insert(height);
  }
  out.block_count = blocks.size();
  return out;
}

TEST(RangeCover, TilesTheRangeExactly) {
  for (std::uint64_t tip : {5ull, 16ull, 37ull, 100ull}) {
    for (std::uint64_t from = 1; from <= tip; from += 3) {
      for (std::uint64_t to = from; to <= tip; to += 5) {
        auto cover = range_cover(from, to, tip, kM);
        std::uint64_t expect = from;
        for (const RangePiece& piece : cover) {
          ASSERT_EQ(piece.first_height(), expect);
          ASSERT_GE(piece.last_height(), piece.first_height());
          expect = piece.last_height() + 1;
          // Anchor must contain the piece and be header-committed.
          std::uint32_t mc = merge_count(piece.anchor_height, kM);
          ASSERT_EQ(mc, std::uint32_t{1} << piece.anchor_level);
          ASSERT_LE(piece.anchor_height - mc + 1, piece.first_height());
          ASSERT_GE(piece.anchor_height, piece.last_height());
          ASSERT_LE(piece.anchor_height, tip);
        }
        ASSERT_EQ(expect, to + 1) << from << ".." << to << " tip " << tip;
      }
    }
  }
}

TEST(RangeCover, FullChainMatchesQueryForest) {
  // Covering [1, tip] should reduce to the §V-B forest (same ranges).
  for (std::uint64_t tip : {16ull, 37ull, 100ull}) {
    auto cover = range_cover(1, tip, tip, kM);
    auto forest = query_forest(tip, kM);
    ASSERT_EQ(cover.size(), forest.size()) << tip;
    for (std::size_t i = 0; i < cover.size(); ++i) {
      EXPECT_EQ(cover[i].first_height(), forest[i].first);
      EXPECT_EQ(cover[i].last_height(), forest[i].last);
      // Full-chain pieces are exactly the committed roots: empty paths.
      EXPECT_EQ(cover[i].path_length(), 0u);
    }
  }
}

TEST(RangeCover, PieceAndPathBounds) {
  // Cover size is O(segments + log M) and anchor paths are <= log2(M).
  constexpr std::uint32_t kBigM = 256;
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t tip = rng.range(1, 2000);
    std::uint64_t from = rng.range(1, tip);
    std::uint64_t to = rng.range(from, tip);
    auto cover = range_cover(from, to, tip, kBigM);
    std::uint64_t segments = (to - 1) / kBigM - (from - 1) / kBigM + 1;
    EXPECT_LE(cover.size(), segments + 2 * 8 /* 2*log2(256) */);
    for (const RangePiece& piece : cover) {
      EXPECT_LE(piece.path_length(), 8u);
      EXPECT_LE(std::uint64_t{1} << piece.level, kBigM);
    }
  }
}

TEST(RangeCover, SingleBlockPieces) {
  // A single-height range is one leaf piece anchored at (or above) it.
  auto cover = range_cover(6, 6, 16, 8);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].level, 0u);
  EXPECT_EQ(cover[0].first_height(), 6u);
  // Block 6 merges {5,6}; the leaf [6,6] anchors at height 6's root.
  EXPECT_EQ(cover[0].anchor_height, 6u);
  EXPECT_EQ(cover[0].anchor_level, 1u);
  EXPECT_EQ(cover[0].path_length(), 1u);
}

struct RangeParam {
  Design design;
  std::uint64_t from, to;
};

std::string range_param_name(const RangeParam& param) {
  std::string name = design_name(param.design);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + std::to_string(param.from) + "_" +
         std::to_string(param.to);
}

// gtest prints the parameter into the test's ctest name; without PrintTo it
// hex-dumps the struct, uninitialised padding included.
void PrintTo(const RangeParam& param, std::ostream* os) {
  *os << range_param_name(param);
}

class RangeE2E : public ::testing::TestWithParam<RangeParam> {};

TEST_P(RangeE2E, VerifiedRangeMatchesGroundTruth) {
  const RangeParam& param = GetParam();
  ProtocolConfig config{param.design, kGeom, kM};
  QuerySession session(setup(), config);
  const FullNode& full = session.full_node();
  for (const AddressProfile& p : setup().workload->profiles) {
    // The node's streamed reply (whole forest segments through the indexed
    // segment serializer, the rest anchored) must byte-match the
    // structured build_range_response bytes.
    Writer rw;
    RangeQueryRequest{p.address, param.from, param.to}.serialize(rw);
    Bytes request = encode_envelope(
        MsgType::kRangeQueryRequest,
        ByteSpan{rw.data().data(), rw.data().size()});
    Writer want;
    want.u8(static_cast<std::uint8_t>(MsgType::kRangeQueryResponse));
    full.range_query(p.address, param.from, param.to).serialize(want);
    EXPECT_EQ(full.handle_message(ByteSpan{request.data(), request.size()}),
              want.data())
        << p.label;

    auto result = session.light_node().query_range(
        session.transport(), p.address, param.from, param.to);
    ASSERT_TRUE(result.outcome.ok)
        << design_name(param.design) << " [" << param.from << ","
        << param.to << "] " << p.label << ": "
        << verify_error_name(result.outcome.error) << " — "
        << result.outcome.detail;
    GroundTruth gt = range_truth(p.address, param.from, param.to);
    std::set<std::pair<std::uint64_t, Hash256>> expect(gt.txs.begin(),
                                                       gt.txs.end());
    std::set<std::pair<std::uint64_t, Hash256>> got;
    for (const VerifiedBlockTxs& b : result.outcome.history.blocks) {
      for (const Transaction& tx : b.txs) got.emplace(b.height, tx.txid());
    }
    EXPECT_EQ(got, expect) << p.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeE2E,
    ::testing::Values(RangeParam{Design::kLvq, 1, 100},
                      RangeParam{Design::kLvq, 1, 1},
                      RangeParam{Design::kLvq, 100, 100},
                      RangeParam{Design::kLvq, 7, 23},
                      RangeParam{Design::kLvq, 17, 64},
                      RangeParam{Design::kLvq, 33, 48},
                      RangeParam{Design::kLvq, 2, 99},
                      RangeParam{Design::kLvqNoSmt, 7, 23},
                      RangeParam{Design::kStrawmanVariant, 7, 23},
                      RangeParam{Design::kStrawman, 7, 23},
                      RangeParam{Design::kLvqNoBmt, 7, 23}),
    [](const ::testing::TestParamInfo<RangeParam>& info) {
      return range_param_name(info.param);
    });

TEST(RangeQuery, RandomizedSweep) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  QuerySession session(setup(), config);
  Rng rng(3);
  const Address& addr = setup().workload->profiles[0].address;
  for (int trial = 0; trial < 25; ++trial) {
    std::uint64_t from = rng.range(1, 100);
    std::uint64_t to = rng.range(from, 100);
    auto result =
        session.light_node().query_range(session.transport(), addr, from, to);
    ASSERT_TRUE(result.outcome.ok)
        << "[" << from << "," << to << "]: " << result.outcome.detail;
    GroundTruth gt = range_truth(addr, from, to);
    EXPECT_EQ(result.outcome.history.total_txs(), gt.txs.size());
  }
}

TEST(RangeQuery, SubRangeCostsLessThanFullChain) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  QuerySession session(setup(), config);
  const Address& ghost = setup().workload->profiles[1].address;
  auto small = session.light_node().query_range(session.transport(), ghost,
                                                33, 48);
  auto full = session.query(ghost);
  ASSERT_TRUE(small.outcome.ok);
  ASSERT_TRUE(full.outcome.ok);
  EXPECT_LT(small.response_bytes, full.response_bytes);
}

TEST(RangeQuery, OutOfBoundsRefused) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  QuerySession session(setup(), config);
  const Address& addr = setup().workload->profiles[0].address;
  auto result =
      session.light_node().query_range(session.transport(), addr, 50, 200);
  EXPECT_FALSE(result.outcome.ok);
}

TEST(RangeQuery, ServerAnsweringDifferentRangeRejected) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  FullNode full(setup().workload, setup().derived, config);
  LightNode light(config);
  light.set_headers(full.headers());
  const Address& addr = setup().workload->profiles[0].address;

  LoopbackTransport swindler([&](ByteSpan req) {
    auto [type, payload] = decode_envelope(req);
    if (type != MsgType::kRangeQueryRequest) return full.handle_message(req);
    // Answer a smaller range than asked (hiding the tail).
    Reader r(payload);
    RangeQueryRequest parsed = RangeQueryRequest::deserialize(r);
    RangeQueryResponse resp =
        full.range_query(parsed.address, parsed.from, parsed.from);
    Writer w;
    resp.serialize(w);
    return encode_envelope(MsgType::kRangeQueryResponse,
                           ByteSpan{w.data().data(), w.data().size()});
  });
  auto result = light.query_range(swindler, addr, 7, 23);
  EXPECT_FALSE(result.outcome.ok);
  EXPECT_EQ(result.outcome.error, VerifyError::kShapeMismatch);
}

TEST(RangeQuery, TamperedAnchorPathRejected) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  FullNode full(setup().workload, setup().derived, config);
  LightNode light(config);
  light.set_headers(full.headers());
  const Address& addr = setup().workload->profiles[0].address;

  RangeQueryResponse resp = full.range_query(addr, 7, 23);
  // Tamper a path sibling HASH: Eq. 2 commits to both child hashes, so the
  // recomputed anchor hash must break. (Tampering sibling-BF *bits* is
  // only detectable when it changes the OR — a cleared bit that the other
  // side also sets is absorbed and semantically inert, which is sound:
  // the sibling's content is bound by its own hash, and the verifier only
  // consumes it through the OR.)
  bool tampered = false;
  for (AnchoredTreeProof& piece : resp.pieces) {
    if (piece.path.empty()) continue;
    piece.path[0].sibling_hash.bytes[0] ^= 1;
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered) << "expected at least one anchored piece with a path";
  VerifyOutcome out = light.verify_range(addr, resp);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, VerifyError::kBmtProofInvalid);
}

TEST(RangeQuery, DroppedBlockProofRejected) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  FullNode full(setup().workload, setup().derived, config);
  LightNode light(config);
  light.set_headers(full.headers());
  const Address& addr = setup().workload->profiles[0].address;
  RangeQueryResponse resp = full.range_query(addr, 1, 100);
  bool dropped = false;
  for (AnchoredTreeProof& piece : resp.pieces) {
    if (!piece.block_proofs.empty()) {
      piece.block_proofs.pop_back();
      dropped = true;
      break;
    }
  }
  ASSERT_TRUE(dropped);
  VerifyOutcome out = light.verify_range(addr, resp);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, VerifyError::kBlockProofMissing);
}

TEST(RangeQuery, WireRoundTrip) {
  ProtocolConfig config{Design::kLvq, kGeom, kM};
  FullNode full(setup().workload, setup().derived, config);
  const Address& addr = setup().workload->profiles[0].address;
  RangeQueryResponse resp = full.range_query(addr, 17, 64);
  Writer w;
  resp.serialize(w);
  EXPECT_EQ(w.size(), resp.serialized_size());
  Reader r(ByteSpan{w.data().data(), w.data().size()});
  RangeQueryResponse back = RangeQueryResponse::deserialize(r, config);
  EXPECT_EQ(back.from, 17u);
  EXPECT_EQ(back.to, 64u);
  EXPECT_EQ(back.serialized_size(), resp.serialized_size());
}

}  // namespace
}  // namespace lvq
