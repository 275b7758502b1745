// End-to-end protocol tests: full node -> wire bytes -> light node for all
// five designs, checked against workload ground truth.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "node/session.hpp"
#include "workload/workload.hpp"

namespace lvq {
namespace {

/// Shared workload: 100 blocks (so with M=32 the forest is 3 complete
/// segments + sub-segments [97,100]), four profiles spanning none/sparse/
/// dense usage.
const ExperimentSetup& setup() {
  static ExperimentSetup s = [] {
    WorkloadConfig c;
    c.seed = 777;
    c.num_blocks = 100;
    c.background_txs_per_block = 10;
    c.profiles = {
        {"none", 0, 0}, {"one", 1, 1}, {"sparse", 12, 9}, {"dense", 80, 45},
    };
    return make_setup(c);
  }();
  return s;
}

/// Roomy filter: few false positives. Tight filter: heavily saturated, so
/// FPM-handling paths (SMT absence / integral blocks) get exercised hard.
constexpr BloomGeometry kRoomy{1024, 8};
constexpr BloomGeometry kTight{24, 4};

struct E2EParam {
  Design design;
  BloomGeometry bloom;
  std::uint32_t segment_length;
};

std::string e2e_param_name(const E2EParam& param) {
  std::string name = design_name(param.design);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_bf" + std::to_string(param.bloom.size_bytes) + "_m" +
         std::to_string(param.segment_length);
}

// gtest prints the parameter into the test's ctest name; without PrintTo it
// hex-dumps the struct, uninitialised padding included.
void PrintTo(const E2EParam& param, std::ostream* os) {
  *os << e2e_param_name(param);
}

class EndToEnd : public ::testing::TestWithParam<E2EParam> {};

TEST_P(EndToEnd, VerifiedHistoryMatchesGroundTruth) {
  const E2EParam& param = GetParam();
  ProtocolConfig config{param.design, param.bloom, param.segment_length};
  QuerySession session(setup(), config);

  for (const AddressProfile& profile : setup().workload->profiles) {
    LightNode::QueryResult result = session.query(profile.address);
    ASSERT_TRUE(result.outcome.ok)
        << profile.label << ": " << verify_error_name(result.outcome.error)
        << " — " << result.outcome.detail;

    GroundTruth gt = scan_ground_truth(*setup().workload, profile.address);
    const VerifiedHistory& hist = result.outcome.history;

    // Every verified (height, txid) pair must be genuine and complete.
    std::set<std::pair<std::uint64_t, Hash256>> expect(gt.txs.begin(),
                                                       gt.txs.end());
    std::set<std::pair<std::uint64_t, Hash256>> got;
    for (const VerifiedBlockTxs& b : hist.blocks) {
      for (const Transaction& tx : b.txs) got.emplace(b.height, tx.txid());
    }
    EXPECT_EQ(got, expect) << profile.label;
    EXPECT_EQ(hist.total_txs(), gt.txs.size());
    EXPECT_EQ(hist.balance(), gt.balance) << profile.label;

    // Designs with SMT prove completeness on every block.
    if (design_has_smt(param.design)) {
      EXPECT_TRUE(hist.fully_complete()) << profile.label;
    }

    // Size accounting must be exact: envelope byte + categorized payload.
    EXPECT_EQ(result.breakdown.total() + 1, result.response_bytes)
        << profile.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, EndToEnd,
    ::testing::Values(
        E2EParam{Design::kStrawman, kRoomy, 32},
        E2EParam{Design::kStrawman, kTight, 32},
        E2EParam{Design::kStrawmanVariant, kRoomy, 32},
        E2EParam{Design::kStrawmanVariant, kTight, 32},
        E2EParam{Design::kLvqNoBmt, kRoomy, 32},
        E2EParam{Design::kLvqNoBmt, kTight, 32},
        E2EParam{Design::kLvqNoSmt, kRoomy, 32},
        E2EParam{Design::kLvqNoSmt, kTight, 32},
        E2EParam{Design::kLvq, kRoomy, 32},
        E2EParam{Design::kLvq, kTight, 32},
        E2EParam{Design::kLvq, kRoomy, 1},
        E2EParam{Design::kLvq, kRoomy, 128},
        E2EParam{Design::kLvq, kTight, 4}),
    [](const ::testing::TestParamInfo<E2EParam>& info) {
      return e2e_param_name(info.param);
    });

/// Chain tips that are not multiples of M exercise §V-B (sub-segments).
class LastSegmentSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LastSegmentSweep, LvqVerifiesAtEveryTip) {
  std::uint64_t tip = GetParam();
  WorkloadConfig c;
  c.seed = 1000 + tip;
  c.num_blocks = static_cast<std::uint32_t>(tip);
  c.background_txs_per_block = 6;
  std::uint32_t dense_blocks = static_cast<std::uint32_t>(std::min<std::uint64_t>(tip, 7));
  c.profiles = {{"p", 2 * dense_blocks, dense_blocks}, {"absent", 0, 0}};
  ExperimentSetup s = make_setup(c);

  ProtocolConfig config{Design::kLvq, BloomGeometry{64, 5}, 8};
  QuerySession session(s, config);
  for (const AddressProfile& p : s.workload->profiles) {
    auto result = session.query(p.address);
    ASSERT_TRUE(result.outcome.ok)
        << "tip=" << tip << " " << p.label << ": "
        << verify_error_name(result.outcome.error) << " "
        << result.outcome.detail;
    GroundTruth gt = scan_ground_truth(*s.workload, p.address);
    EXPECT_EQ(result.outcome.history.total_txs(), gt.txs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Tips, LastSegmentSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 9, 11, 15, 16, 17,
                                           23, 24, 31, 33));

TEST(Protocol, HeaderStorageRanking) {
  // Challenge 1: strawman headers are BF-sized; every hash-committed
  // design stays within ~2x of vanilla Bitcoin's 80-byte headers.
  std::map<Design, std::uint64_t> storage;
  for (Design d : {Design::kStrawman, Design::kStrawmanVariant,
                   Design::kLvqNoBmt, Design::kLvqNoSmt, Design::kLvq}) {
    ProtocolConfig config{d, BloomGeometry{10 * 1024, 10}, 32};
    QuerySession session(setup(), config);
    storage[d] = session.light_node().header_storage_bytes();
  }
  std::uint64_t tip = setup().workload->blocks.size();
  EXPECT_GT(storage[Design::kStrawman], tip * 10 * 1024);
  EXPECT_EQ(storage[Design::kStrawmanVariant], tip * (81 + 32));
  EXPECT_EQ(storage[Design::kLvq], tip * (81 + 64));
  EXPECT_EQ(storage[Design::kLvqNoSmt], tip * (81 + 32));
  EXPECT_GT(storage[Design::kStrawman], 60 * storage[Design::kLvq]);
}

TEST(Protocol, ResponseWireRoundTrip) {
  ProtocolConfig config{Design::kLvq, kRoomy, 32};
  FullNode full(setup().workload, setup().derived, config);
  const Address& addr = setup().workload->profiles[2].address;
  QueryResponse resp = full.query(addr);

  Writer w;
  resp.serialize(w);
  EXPECT_EQ(w.size(), resp.serialized_size());
  Reader r(ByteSpan{w.data().data(), w.data().size()});
  QueryResponse back = QueryResponse::deserialize(r, config);
  EXPECT_EQ(back.tip_height, resp.tip_height);
  EXPECT_EQ(back.serialized_size(), resp.serialized_size());
  EXPECT_EQ(back.breakdown().total(), resp.breakdown().total());
}

TEST(Protocol, DeserializeRejectsWrongDesign) {
  ProtocolConfig lvq_config{Design::kLvq, kRoomy, 32};
  FullNode full(setup().workload, setup().derived, lvq_config);
  QueryResponse resp = full.query(setup().workload->profiles[1].address);
  Writer w;
  resp.serialize(w);
  ProtocolConfig other{Design::kLvqNoSmt, kRoomy, 32};
  Reader r(ByteSpan{w.data().data(), w.data().size()});
  EXPECT_THROW(QueryResponse::deserialize(r, other), SerializeError);
}

TEST(Protocol, MalformedRequestGetsErrorReply) {
  ProtocolConfig config{Design::kLvq, kRoomy, 32};
  FullNode full(setup().workload, setup().derived, config);
  Bytes garbage = {0x42, 0x42};
  Bytes reply = full.handle_message(ByteSpan{garbage.data(), garbage.size()});
  auto [type, payload] = decode_envelope(ByteSpan{reply.data(), reply.size()});
  EXPECT_EQ(type, MsgType::kError);
}

TEST(Protocol, FragmentShapeFollowsEq4) {
  // For the strawman variant: Ø exactly when the BF check succeeds;
  // otherwise MBrs (existent) or IB (FPM). Eq. 4 of the paper.
  ProtocolConfig config{Design::kStrawmanVariant, kTight, 32};
  FullNode full(setup().workload, setup().derived, config);
  const Address& addr = setup().workload->profiles[3].address;
  QueryResponse resp = full.query(addr);

  BloomKey key = BloomKey::from_bytes(addr.span());
  auto cbp = config.bloom.positions(key);
  GroundTruth gt = scan_ground_truth(*setup().workload, addr);
  std::set<std::uint64_t> tx_heights;
  for (auto& [h, txid] : gt.txs) tx_heights.insert(h);

  ASSERT_EQ(resp.fragments.size(), resp.tip_height);
  for (std::uint64_t h = 1; h <= resp.tip_height; ++h) {
    const BlockProof& frag = resp.fragments[h - 1];
    bool fails = full.context()->positions().check_fails(h, cbp);
    if (!fails) {
      EXPECT_EQ(frag.kind, BlockProof::Kind::kEmpty);
      EXPECT_FALSE(tx_heights.count(h));
    } else if (tx_heights.count(h)) {
      EXPECT_EQ(frag.kind, BlockProof::Kind::kExistentNoCount);
    } else {
      EXPECT_EQ(frag.kind, BlockProof::Kind::kIntegralBlock);
    }
  }
}

TEST(Protocol, LvqNeverShipsIntegralBlocks) {
  // Challenge 2 solved: even under heavy FPM pressure, LVQ responses
  // contain SMT absence proofs, never whole blocks.
  ProtocolConfig config{Design::kLvq, kTight, 32};
  FullNode full(setup().workload, setup().derived, config);
  for (const AddressProfile& p : setup().workload->profiles) {
    QueryResponse resp = full.query(p.address);
    for (const SegmentQueryProof& seg : resp.segments) {
      for (const auto& [height, proof] : seg.block_proofs) {
        EXPECT_NE(proof.kind, BlockProof::Kind::kIntegralBlock);
        EXPECT_NE(proof.kind, BlockProof::Kind::kExistentNoCount);
      }
    }
    SizeBreakdown b = resp.breakdown();
    EXPECT_EQ(b.block_bytes, 0u);
  }
}

TEST(Protocol, BmtDesignsShipNoPerBlockBfs) {
  ProtocolConfig config{Design::kLvq, kRoomy, 32};
  FullNode full(setup().workload, setup().derived, config);
  QueryResponse resp = full.query(setup().workload->profiles[0].address);
  EXPECT_TRUE(resp.block_bfs.empty());
  EXPECT_TRUE(resp.fragments.empty());
  EXPECT_FALSE(resp.segments.empty());
}

TEST(Protocol, AbsentAddressLvqResponseIsTiny) {
  // The headline effect (Fig. 12, Addr1): for an address with no history,
  // LVQ ships a handful of BFs; the strawman variant ships one BF per
  // block.
  ProtocolConfig lvq{Design::kLvq, kRoomy, 32};
  ProtocolConfig straw{Design::kStrawmanVariant, kRoomy, 32};
  QuerySession lvq_session(setup(), lvq);
  QuerySession straw_session(setup(), straw);
  const Address& absent = setup().workload->profiles[0].address;
  auto lvq_result = lvq_session.query(absent);
  auto straw_result = straw_session.query(absent);
  ASSERT_TRUE(lvq_result.outcome.ok);
  ASSERT_TRUE(straw_result.outcome.ok);
  EXPECT_LT(lvq_result.response_bytes * 5, straw_result.response_bytes);
  EXPECT_TRUE(lvq_result.outcome.history.blocks.empty());
}

TEST(Protocol, RequestBytesAreSmall) {
  ProtocolConfig config{Design::kLvq, kRoomy, 32};
  QuerySession session(setup(), config);
  auto result = session.query(setup().workload->profiles[1].address);
  EXPECT_LE(result.request_bytes, 32u);  // envelope + 20-byte address
}

TEST(Protocol, TransportCountsBothDirections) {
  ProtocolConfig config{Design::kLvq, kRoomy, 32};
  QuerySession session(setup(), config);
  std::uint64_t sent_before = session.transport().bytes_sent();
  std::uint64_t recv_before = session.transport().bytes_received();
  auto result = session.query(setup().workload->profiles[2].address);
  EXPECT_EQ(session.transport().bytes_sent() - sent_before,
            result.request_bytes);
  EXPECT_EQ(session.transport().bytes_received() - recv_before,
            result.response_bytes);
}

}  // namespace
}  // namespace lvq
