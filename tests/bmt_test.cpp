// Tests for the BMT (paper §III-B2, §IV-B1): segment-tree construction,
// per-block roots (Algorithm 1 as subtree lookup), endpoint search, and the
// merged inexistence proofs of §V-A2 including forgery attempts.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <ostream>
#include <string>

#include "core/bmt.hpp"
#include "core/bmt_proof.hpp"
#include "util/rng.hpp"

namespace lvq {
namespace {

constexpr BloomGeometry kGeom{64, 4};  // 512 bits, 4 probes — small & punchy

/// Deterministic per-height position sets (a few "addresses" per block).
class FakeChain {
 public:
  FakeChain(std::uint64_t heights, std::uint64_t seed, int keys_per_block = 6) {
    Rng rng(seed);
    for (std::uint64_t h = 1; h <= heights; ++h) {
      std::vector<std::uint32_t>& p = positions_[h];
      for (int i = 0; i < keys_per_block; ++i) {
        BloomKey key{rng.next_u64(), rng.next_u64() | 1};
        std::uint64_t pos[64];
        kGeom.positions(key, pos);
        for (std::uint32_t j = 0; j < kGeom.hash_count; ++j) {
          p.push_back(static_cast<std::uint32_t>(pos[j]));
        }
      }
      std::sort(p.begin(), p.end());
      p.erase(std::unique(p.begin(), p.end()), p.end());
    }
  }

  SegmentBmt::LeafPositionsFn supplier() const {
    return [this](std::uint64_t h) -> const std::vector<std::uint32_t>& {
      return positions_.at(h);
    };
  }

  BloomFilter leaf_bf(std::uint64_t h) const {
    BloomFilter bf(kGeom);
    for (std::uint32_t p : positions_.at(h)) bf.set_bit(p);
    return bf;
  }

  /// Reference implementation: direct recursive build of the BMT over the
  /// inclusive height range [lo, hi] (the paper's Fig. 3, no subtree
  /// sharing).
  std::pair<Hash256, BloomFilter> naive(std::uint64_t lo, std::uint64_t hi) const {
    if (lo == hi) {
      BloomFilter bf = leaf_bf(lo);
      Hash256 h = bmt_leaf_hash(bf);
      return {h, bf};
    }
    std::uint64_t half = (hi - lo + 1) / 2;
    auto left = naive(lo, lo + half - 1);
    auto right = naive(lo + half, hi);
    BloomFilter bf = left.second;
    bf.merge(right.second);
    return {bmt_node_hash(left.first, right.first, bf), bf};
  }

 private:
  std::map<std::uint64_t, std::vector<std::uint32_t>> positions_;
};

TEST(BmtHash, LeafAndNodeDiffer) {
  BloomFilter bf(kGeom);
  bf.set_bit(3);
  Hash256 leaf = bmt_leaf_hash(bf);
  Hash256 node = bmt_node_hash(leaf, leaf, bf);
  EXPECT_NE(leaf, node);
}

TEST(BmtHash, HashCommitsToBloomFilter) {
  // §VI: tampering with the BF must change the node hash.
  BloomFilter a(kGeom), b(kGeom);
  b.set_bit(100);
  Hash256 child{};
  EXPECT_NE(bmt_node_hash(child, child, a), bmt_node_hash(child, child, b));
  EXPECT_NE(bmt_leaf_hash(a), bmt_leaf_hash(b));
}

TEST(SegmentBmt, PerBlockRootsMatchNaiveBmt) {
  // The paper defines one BMT per block (merging merge_count(h) blocks);
  // we maintain one tree per segment and look subtree roots up. Equality
  // with the direct per-block construction proves the subtree claim.
  constexpr std::uint32_t kM = 16;
  FakeChain chain(2 * kM, 42);
  for (std::uint64_t seg = 0; seg < 2; ++seg) {
    SegmentBmt bmt(seg * kM + 1, kM, kM, kGeom, chain.supplier());
    for (std::uint64_t h = seg * kM + 1; h <= (seg + 1) * kM; ++h) {
      std::uint32_t mc = merge_count(h, kM);
      EXPECT_EQ(bmt.root_for_block(h), chain.naive(h - mc + 1, h).first)
          << "height " << h;
    }
  }
}

TEST(SegmentBmt, PartialSegmentRootsMatchNaive) {
  constexpr std::uint32_t kM = 16;
  for (std::uint64_t available = 1; available <= kM; ++available) {
    FakeChain chain(available, 100 + available);
    SegmentBmt bmt(1, kM, available, kGeom, chain.supplier());
    for (std::uint64_t h = 1; h <= available; ++h) {
      std::uint32_t mc = merge_count(h, kM);
      EXPECT_EQ(bmt.root_for_block(h), chain.naive(h - mc + 1, h).first)
          << "available " << available << " height " << h;
    }
  }
}

TEST(SegmentBmt, NodeBfMatchesNaiveUnion) {
  constexpr std::uint32_t kM = 8;
  FakeChain chain(kM, 7);
  SegmentBmt bmt(1, kM, kM, kGeom, chain.supplier());
  for (std::uint32_t level = 0; level <= 3; ++level) {
    for (std::uint64_t j = 0; j < (kM >> level); ++j) {
      std::uint64_t lo = 1 + (j << level);
      std::uint64_t hi = lo + (std::uint64_t{1} << level) - 1;
      EXPECT_EQ(bmt.node_bf(level, j), chain.naive(lo, hi).second)
          << "level " << level << " j " << j;
    }
  }
}

TEST(SegmentBmt, IncompleteNodeAccessRejected) {
  constexpr std::uint32_t kM = 8;
  FakeChain chain(5, 8);
  SegmentBmt bmt(1, kM, 5, kGeom, chain.supplier());
  EXPECT_NO_THROW(bmt.node_hash(2, 0));  // leaves [0,4) complete
  EXPECT_THROW(bmt.node_hash(2, 1), std::logic_error);
  EXPECT_THROW(bmt.node_hash(3, 0), std::logic_error);
  EXPECT_NO_THROW(bmt.node_hash(0, 4));
}

TEST(SegmentBmt, CheckMasksMatchMaterializedBfs) {
  constexpr std::uint32_t kM = 16;
  FakeChain chain(kM, 11);
  SegmentBmt bmt(1, kM, kM, kGeom, chain.supplier());
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    BloomKey probe{rng.next_u64(), rng.next_u64() | 1};
    std::vector<std::uint64_t> cbp = kGeom.positions(probe);
    BmtCheckMasks masks = bmt.check_masks(cbp);
    for (std::uint32_t level = 0; level <= 4; ++level) {
      for (std::uint64_t j = 0; j < (kM >> level); ++j) {
        BloomFilter bf = bmt.node_bf(level, j);
        bool fails = true;
        for (std::uint64_t p : cbp) fails &= bf.bit(p);
        EXPECT_EQ(masks.fails(level, j), fails)
            << "trial " << trial << " level " << level << " j " << j;
      }
    }
  }
}

TEST(Endpoints, SuccessfulRootIsSingleEndpoint) {
  // Fresh probe in a tiny chain: the root check almost surely succeeds.
  constexpr std::uint32_t kM = 16;
  FakeChain chain(kM, 13, /*keys_per_block=*/1);
  SegmentBmt bmt(1, kM, kM, BloomGeometry{64, 4}, chain.supplier());
  BloomKey probe{0xdeadbeef, 0x1234567 | 1};
  BmtCheckMasks masks = bmt.check_masks(kGeom.positions(probe));
  if (!masks.fails(4, 0)) {
    EXPECT_EQ(endpoint_stats(masks, 4, 0).total(), 1u);
    EXPECT_EQ(endpoint_stats(masks, 4, 0).inexistent_endpoints, 1u);
  }
}

TEST(Endpoints, MatchBruteForceTopDownSearch) {
  constexpr std::uint32_t kM = 32;
  FakeChain chain(kM, 17, 12);
  SegmentBmt bmt(1, kM, kM, kGeom, chain.supplier());
  Rng rng(18);
  for (int trial = 0; trial < 30; ++trial) {
    BloomKey probe{rng.next_u64(), rng.next_u64() | 1};
    auto cbp = kGeom.positions(probe);
    BmtCheckMasks masks = bmt.check_masks(cbp);

    // Brute force: recursive top-down search on materialized BFs.
    struct Brute {
      const SegmentBmt& bmt;
      const std::vector<std::uint64_t>& cbp;
      EndpointStats stats;
      void walk(std::uint32_t level, std::uint64_t j) {
        BloomFilter bf = bmt.node_bf(level, j);
        bool fails = true;
        for (std::uint64_t p : cbp) fails &= bf.bit(p);
        if (!fails) {
          stats.inexistent_endpoints++;
          return;
        }
        if (level == 0) {
          stats.failed_leaves++;
          return;
        }
        walk(level - 1, 2 * j);
        walk(level - 1, 2 * j + 1);
      }
    } brute{bmt, cbp, {}, };
    brute.walk(5, 0);

    EndpointStats fast = endpoint_stats(masks, 5, 0);
    EXPECT_EQ(fast.inexistent_endpoints, brute.stats.inexistent_endpoints);
    EXPECT_EQ(fast.failed_leaves, brute.stats.failed_leaves);
  }
}

// --- merged proofs ---

struct ProofFixture {
  std::uint32_t segment_length;
  std::uint64_t available;
  std::uint64_t seed;
};

std::string fixture_name(const ProofFixture& fx) {
  return "m" + std::to_string(fx.segment_length) + "_avail" +
         std::to_string(fx.available) + "_seed" + std::to_string(fx.seed);
}

// gtest prints the parameter into the test's ctest name; without PrintTo it
// hex-dumps the struct, uninitialised padding included.
void PrintTo(const ProofFixture& fx, std::ostream* os) {
  *os << fixture_name(fx);
}

class BmtProofSweep : public ::testing::TestWithParam<ProofFixture> {};

TEST_P(BmtProofSweep, ProofRoundTripsAndVerifies) {
  const ProofFixture& fx = GetParam();
  FakeChain chain(fx.available, fx.seed, 10);
  SegmentBmt bmt(1, fx.segment_length, fx.available, kGeom, chain.supplier());
  Rng rng(fx.seed + 1);
  for (int trial = 0; trial < 10; ++trial) {
    BloomKey probe{rng.next_u64(), rng.next_u64() | 1};
    auto cbp = kGeom.positions(probe);
    BmtCheckMasks masks = bmt.check_masks(cbp);

    // Query trees: binary decomposition of `available`.
    std::uint64_t cursor = 0;
    for (int bit = 63; bit >= 0; --bit) {
      std::uint64_t piece = std::uint64_t{1} << bit;
      if (!(fx.available & piece)) continue;
      std::uint32_t level = static_cast<std::uint32_t>(bit);
      std::uint64_t j = cursor >> bit;

      BmtNodeProof proof = build_bmt_proof(bmt, masks, level, j);

      // Serialize round trip first.
      Writer w;
      proof.serialize(w);
      EXPECT_EQ(w.size(), proof.serialized_size());
      Reader r(ByteSpan{w.data().data(), w.data().size()});
      BmtNodeProof decoded = BmtNodeProof::deserialize(r, kGeom, 64);
      EXPECT_TRUE(r.done());

      Hash256 root = bmt.node_hash(level, j);
      BmtProofOutcome out = verify_bmt_proof(decoded, root, kGeom, cbp, level);
      EXPECT_TRUE(out.ok) << out.error << " (level " << level << ")";

      // Failed leaves reported by the proof must match the masks.
      EndpointStats stats = endpoint_stats(masks, level, j);
      EXPECT_EQ(out.failed_leaf_locals.size(), stats.failed_leaves);
      EXPECT_EQ(proof.endpoints().total(), stats.total());
      for (std::uint64_t local : out.failed_leaf_locals) {
        EXPECT_TRUE(masks.fails(0, (j << level) + local));
      }
      cursor += piece;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BmtProofSweep,
    ::testing::Values(ProofFixture{1, 1, 21}, ProofFixture{4, 4, 22},
                      ProofFixture{16, 16, 23}, ProofFixture{16, 11, 24},
                      ProofFixture{64, 64, 25}, ProofFixture{64, 37, 26},
                      ProofFixture{128, 128, 27}),
    [](const ::testing::TestParamInfo<ProofFixture>& info) {
      return fixture_name(info.param);
    });

class BmtProofAttack : public ::testing::Test {
 protected:
  BmtProofAttack() : chain_(kM, 31, 12), bmt_(1, kM, kM, kGeom, chain_.supplier()) {}

  /// Picks a probe key that produces at least one failed leaf.
  void make_proof() {
    Rng rng(32);
    for (int trial = 0; trial < 1000; ++trial) {
      BloomKey probe{rng.next_u64(), rng.next_u64() | 1};
      cbp_ = kGeom.positions(probe);
      masks_ = bmt_.check_masks(cbp_);
      if (endpoint_stats(masks_, kLevel, 0).failed_leaves >= 1 &&
          endpoint_stats(masks_, kLevel, 0).inexistent_endpoints >= 1) {
        proof_ = build_bmt_proof(bmt_, masks_, kLevel, 0);
        root_ = bmt_.node_hash(kLevel, 0);
        return;
      }
    }
    FAIL() << "could not find a probe with mixed endpoints";
  }

  static constexpr std::uint32_t kM = 32;
  static constexpr std::uint32_t kLevel = 5;
  FakeChain chain_;
  SegmentBmt bmt_;
  std::vector<std::uint64_t> cbp_;
  BmtCheckMasks masks_;
  BmtNodeProof proof_;
  Hash256 root_;
};

TEST_F(BmtProofAttack, HonestProofVerifies) {
  make_proof();
  EXPECT_TRUE(verify_bmt_proof(proof_, root_, kGeom, cbp_, kLevel).ok);
}

TEST_F(BmtProofAttack, WrongRootRejected) {
  make_proof();
  Hash256 wrong = root_;
  wrong.bytes[0] ^= 1;
  auto out = verify_bmt_proof(proof_, wrong, kGeom, cbp_, kLevel);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.failed_leaf_locals.empty());
}

TEST_F(BmtProofAttack, TamperedEndpointBfRejected) {
  // Clearing a bit in an endpoint BF (to fake inexistence elsewhere) breaks
  // the hash chain because Eq. 2 commits to the filter.
  make_proof();
  BmtNodeProof* node = &proof_;
  while (node->kind == BmtNodeProof::Kind::kInterior) node = node->left.get();
  Bytes& bits = node->bf.mutable_data();
  bool flipped = false;
  for (std::uint8_t& b : bits) {
    if (b != 0) {
      b &= static_cast<std::uint8_t>(b - 1);
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  EXPECT_FALSE(verify_bmt_proof(proof_, root_, kGeom, cbp_, kLevel).ok);
}

TEST_F(BmtProofAttack, FakeInexistenceClaimRejected) {
  // Claim an endpoint whose BF actually fails the check: the verifier must
  // insist on at least one clear checked bit.
  make_proof();
  // Turn the first failed leaf into a (bogus) inexistent endpoint.
  BmtNodeProof* node = &proof_;
  BmtNodeProof* failed = nullptr;
  std::vector<BmtNodeProof*> stack{node};
  while (!stack.empty()) {
    BmtNodeProof* cur = stack.back();
    stack.pop_back();
    if (cur->kind == BmtNodeProof::Kind::kFailedLeaf) {
      failed = cur;
      break;
    }
    if (cur->kind == BmtNodeProof::Kind::kInterior) {
      stack.push_back(cur->left.get());
      stack.push_back(cur->right.get());
    }
  }
  ASSERT_NE(failed, nullptr);
  failed->kind = BmtNodeProof::Kind::kInexistentEndpoint;
  auto out = verify_bmt_proof(proof_, root_, kGeom, cbp_, kLevel);
  EXPECT_FALSE(out.ok);
}

TEST_F(BmtProofAttack, MissingChildHashesRejected) {
  make_proof();
  // Find a non-leaf inexistent endpoint and strip its child hashes.
  std::vector<BmtNodeProof*> stack{&proof_};
  BmtNodeProof* endpoint = nullptr;
  while (!stack.empty()) {
    BmtNodeProof* cur = stack.back();
    stack.pop_back();
    if (cur->kind == BmtNodeProof::Kind::kInexistentEndpoint &&
        cur->child_hashes) {
      endpoint = cur;
      break;
    }
    if (cur->kind == BmtNodeProof::Kind::kInterior) {
      stack.push_back(cur->left.get());
      stack.push_back(cur->right.get());
    }
  }
  if (endpoint == nullptr) GTEST_SKIP() << "no non-leaf endpoint this time";
  endpoint->child_hashes.reset();
  EXPECT_FALSE(verify_bmt_proof(proof_, root_, kGeom, cbp_, kLevel).ok);
}

TEST_F(BmtProofAttack, WrongGeometryRejected) {
  make_proof();
  BmtNodeProof* node = &proof_;
  while (node->kind == BmtNodeProof::Kind::kInterior) node = node->left.get();
  node->bf = BloomFilter(BloomGeometry{kGeom.size_bytes * 2, kGeom.hash_count});
  EXPECT_FALSE(verify_bmt_proof(proof_, root_, kGeom, cbp_, kLevel).ok);
}

TEST(BmtProofDecode, DepthLimitEnforced) {
  // A pathological all-interior encoding must hit the depth guard instead
  // of recursing unboundedly.
  Writer w;
  for (int i = 0; i < 200; ++i) w.u8(1 /*kInterior*/);
  Reader r(ByteSpan{w.data().data(), w.data().size()});
  EXPECT_THROW(BmtNodeProof::deserialize(r, kGeom, 64), SerializeError);
}

}  // namespace
}  // namespace lvq
