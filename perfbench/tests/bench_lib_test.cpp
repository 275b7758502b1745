// Tests of the benchmark's own machinery: a benchmark whose samplers drift
// with the seed, whose tail percentiles rest on one or two samples, or
// whose reply check misses a flipped byte would report noise as results.
#include <gtest/gtest.h>

#include <set>

#include "bench_lib.hpp"
#include "net/message.hpp"
#include "net/transport_error.hpp"

namespace perfbench {
namespace {

TEST(Samplers, ZipfIsDeterministicBySeedAndSkewed) {
  ZipfSampler z(2000, 1.0);
  Rng a(7), b(7), c(8);
  std::vector<std::size_t> xa, xb, xc;
  for (int i = 0; i < 1000; ++i) {
    xa.push_back(z.sample(a));
    xb.push_back(z.sample(b));
    xc.push_back(z.sample(c));
  }
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
  const auto rank0 = std::count(xa.begin(), xa.end(), 0u);
  const auto rank999 = std::count(xa.begin(), xa.end(), 999u);
  EXPECT_GT(rank0, 80);  // 1/H(2000) ~ 12%
  EXPECT_LT(rank999, 5);
}

TEST(Samplers, PoissonIsDeterministicBySeedWithTheOfferedRate) {
  Rng a(3), b(3), c(4);
  auto xa = poisson_arrivals(a, 50, 5000);
  EXPECT_EQ(xa, poisson_arrivals(b, 50, 5000));
  EXPECT_NE(xa, poisson_arrivals(c, 50, 5000));
  EXPECT_TRUE(std::is_sorted(xa.begin(), xa.end()));
  EXPECT_NEAR(xa.back(), 100.0, 5.0);  // 5000 arrivals at 50/s
}

TEST(Samplers, MixIsDeterministicBySeedWithAnExactComposition) {
  const std::vector<int> deck = {0, 0, 0, 1, 2};
  Rng a(11), b(11), c(12);
  auto xa = deck_sequence(a, deck, 500);
  EXPECT_EQ(xa, deck_sequence(b, deck, 500));
  EXPECT_NE(xa, deck_sequence(c, deck, 500));
  EXPECT_EQ(std::count(xa.begin(), xa.end(), 0), 300);
  EXPECT_EQ(std::count(xa.begin(), xa.end(), 2), 100);
}

TEST(Samplers, DistinctSampleHasNoRepeats) {
  Rng a(5), b(5);
  auto xa = sample_distinct(a, 100, 40);
  EXPECT_EQ(xa, sample_distinct(b, 100, 40));
  EXPECT_EQ(std::set<std::size_t>(xa.begin(), xa.end()).size(), 40u);
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  v.push_back(999);
  ASSERT_TRUE(percentile(v, 0.99).has_value());
  EXPECT_EQ(*percentile(v, 0.99), 989.0);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.5).has_value());
}

TEST(Percentile, TypicalByKeyIsEachKeysMedianInPlace) {
  const std::vector<std::uint32_t> keys = {7, 3, 7, 3, 7, 3, 9};
  const std::vector<double> v = {1.0, 5.0, 50.0, 6.0, 2.0, 5.5, 4.0};
  EXPECT_EQ(typical_by_key(keys, v),
            (std::vector<double>{2.0, 5.5, 2.0, 5.5, 2.0, 5.5, 4.0}));
  EXPECT_THROW(typical_by_key({1}, {}), std::invalid_argument);
}

TEST(ReplyCheck, CatchesASingleFlippedByte) {
  Bytes reply(4096);
  for (std::size_t i = 0; i < reply.size(); ++i) {
    reply[i] = static_cast<std::uint8_t>(i * 31);
  }
  const Fingerprint good = fingerprint(ByteSpan{reply.data(), reply.size()});
  for (std::size_t pos : {std::size_t{0}, std::size_t{1000}, reply.size() - 1}) {
    for (std::uint8_t bit = 1; bit != 0; bit = static_cast<std::uint8_t>(bit << 1)) {
      Bytes bad = reply;
      bad[pos] ^= bit;
      EXPECT_FALSE(fingerprint(ByteSpan{bad.data(), bad.size()}) == good);
    }
  }
  Bytes shorter(reply.begin(), reply.end() - 1);
  EXPECT_FALSE(fingerprint(ByteSpan{shorter.data(), shorter.size()}) == good);
}

TEST(ReplayTransport, ReturnsRecordedFramesByteExactly) {
  ReplayTransport t;
  Bytes req = {1, 2, 3};
  Bytes rep(100000);
  for (std::size_t i = 0; i < rep.size(); ++i) rep[i] = static_cast<std::uint8_t>(i);
  t.record(req, rep);
  EXPECT_EQ(t.round_trip(ByteSpan{req.data(), req.size()}), rep);
  EXPECT_EQ(t.bytes_received(), rep.size());
  Bytes other = {1, 2, 4};
  EXPECT_THROW(t.round_trip(ByteSpan{other.data(), other.size()}),
               lvq::TransportError);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, 1, 0, 1},
      {"a", 10, 40, 2, 1, 1},
      {"b", 30, 60, 3, 1, 1},   // overlaps a: union is [10, 60)
      {"c", 90, 150, 4, 1, 1},  // clipped to the parent: [90, 100)
  };
  auto self = self_times_ms(spans);
  EXPECT_DOUBLE_EQ(self[0], 40e-6);
  EXPECT_DOUBLE_EQ(self[1], 30e-6);
}

}  // namespace
}  // namespace perfbench
