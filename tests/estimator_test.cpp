// The size-only pipeline must agree byte-for-byte with the real prover's
// serialized responses, per category, across every design and address.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/size_estimator.hpp"
#include "node/session.hpp"
#include "workload/workload.hpp"

namespace lvq {
namespace {

const ExperimentSetup& setup() {
  static ExperimentSetup s = [] {
    WorkloadConfig c;
    c.seed = 555;
    c.num_blocks = 90;  // not a power of two: exercises sub-segments
    c.background_txs_per_block = 9;
    c.profiles = {
        {"none", 0, 0}, {"one", 1, 1}, {"mid", 14, 9}, {"busy", 60, 33}};
    return make_setup(c);
  }();
  return s;
}

struct Param {
  Design design;
  BloomGeometry bloom;
  std::uint32_t m;
};

std::string param_name(const Param& param) {
  std::string name = design_name(param.design);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_bf" + std::to_string(param.bloom.size_bytes) + "_k" +
         std::to_string(param.bloom.hash_count) + "_m" +
         std::to_string(param.m);
}

// gtest prints the parameter into the test's ctest name; without PrintTo it
// hex-dumps the struct, uninitialised padding included.
void PrintTo(const Param& param, std::ostream* os) { *os << param_name(param); }

class EstimatorSweep : public ::testing::TestWithParam<Param> {};

TEST_P(EstimatorSweep, MatchesRealResponseExactly) {
  const Param& param = GetParam();
  ProtocolConfig config{param.design, param.bloom, param.m};
  ChainContext ctx(setup().workload, setup().derived, config);
  for (const AddressProfile& p : setup().workload->profiles) {
    QueryResponse real = build_query_response(ctx, p.address);
    Writer w;
    real.serialize(w);
    SizeBreakdown actual = real.breakdown();
    SizeBreakdown estimated = estimate_response_size(ctx, p.address);

    EXPECT_EQ(estimated.total(), w.size()) << p.label;
    EXPECT_EQ(estimated.bmt_bytes, actual.bmt_bytes) << p.label;
    EXPECT_EQ(estimated.bf_bytes, actual.bf_bytes) << p.label;
    EXPECT_EQ(estimated.smt_bytes, actual.smt_bytes) << p.label;
    EXPECT_EQ(estimated.mt_bytes, actual.mt_bytes) << p.label;
    EXPECT_EQ(estimated.tx_bytes, actual.tx_bytes) << p.label;
    EXPECT_EQ(estimated.block_bytes, actual.block_bytes) << p.label;
    EXPECT_EQ(estimated.other_bytes, actual.other_bytes) << p.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndGeometries, EstimatorSweep,
    ::testing::Values(Param{Design::kLvq, BloomGeometry{512, 8}, 16},
                      Param{Design::kLvq, BloomGeometry{24, 4}, 16},
                      Param{Design::kLvq, BloomGeometry{512, 8}, 1},
                      Param{Design::kLvq, BloomGeometry{256, 10}, 64},
                      Param{Design::kLvqNoSmt, BloomGeometry{512, 8}, 16},
                      Param{Design::kLvqNoSmt, BloomGeometry{24, 4}, 16},
                      Param{Design::kLvqNoBmt, BloomGeometry{512, 8}, 16},
                      Param{Design::kLvqNoBmt, BloomGeometry{24, 4}, 16},
                      Param{Design::kStrawmanVariant, BloomGeometry{512, 8}, 16},
                      Param{Design::kStrawmanVariant, BloomGeometry{24, 4}, 16},
                      Param{Design::kStrawman, BloomGeometry{256, 6}, 16}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return param_name(info.param);
    });

}  // namespace
}  // namespace lvq
