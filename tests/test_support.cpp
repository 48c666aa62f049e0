// Unit tests for the support library: contracts, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/assert.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace findep::support {
namespace {

TEST(Contracts, RequireThrowsWithLocation) {
  try {
    FINDEP_REQUIRE_MSG(1 == 2, "impossible");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_STREQ(e.kind(), "precondition");
    EXPECT_NE(std::string(e.what()).find("impossible"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Contracts, EnsureAndAssertKinds) {
  EXPECT_THROW(FINDEP_ENSURE(false), ContractViolation);
  EXPECT_THROW(FINDEP_ASSERT(false), ContractViolation);
  EXPECT_NO_THROW(FINDEP_REQUIRE(true));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(7);
  Rng child1 = parent.fork(1);
  Rng parent2(7);
  Rng child2 = parent2.fork(2);
  EXPECT_NE(child1(), child2());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BelowIsUniform) {
  Rng rng(3);
  std::array<int, 5> buckets{};
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    ++buckets[rng.below(5)];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, kN / 5, kN / 50);
  }
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(4);
  EXPECT_THROW((void)rng.below(0), ContractViolation);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdges) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  EXPECT_THROW((void)rng.chance(1.5), ContractViolation);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(7);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(9);
  double small_sum = 0.0, large_sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    small_sum += static_cast<double>(rng.poisson(3.0));
    large_sum += static_cast<double>(rng.poisson(100.0));
  }
  EXPECT_NEAR(small_sum / kN, 3.0, 0.1);
  EXPECT_NEAR(large_sum / kN, 100.0, 1.0);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(10);
  const std::array<double, 3> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0], kN / 4, kN / 40);
  EXPECT_NEAR(counts[2], 3 * kN / 4, kN / 40);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(11);
  const std::array<double, 2> zero = {0.0, 0.0};
  EXPECT_THROW((void)rng.categorical(zero), ContractViolation);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(12);
  std::array<int, 4> counts{};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.zipf(4, 0.0)];
  for (const int count : counts) EXPECT_NEAR(count, kN / 4, kN / 40);
}

TEST(Rng, ZipfSkewFavorsLowRanks) {
  Rng rng(13);
  std::array<int, 4> counts{};
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(4, 1.5)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[3]);
}

TEST(Rng, SampleIndicesDistinctAndComplete) {
  Rng rng(14);
  for (int trial = 0; trial < 100; ++trial) {
    const auto picked = rng.sample_indices(10, 4);
    ASSERT_EQ(picked.size(), 4u);
    for (std::size_t i = 0; i < picked.size(); ++i) {
      EXPECT_LT(picked[i], 10u);
      for (std::size_t j = i + 1; j < picked.size(); ++j) {
        EXPECT_NE(picked[i], picked[j]);
      }
    }
  }
  const auto everything = rng.sample_indices(5, 5);
  EXPECT_EQ(everything.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (const double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  EXPECT_NEAR(stats.variance(), 37.2, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(16);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0, 1);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 2.5);
}

TEST(Stats, MeanOf) {
  const std::vector<double> values = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(values), 3.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.6);
  h.add(-5.0);  // clamps into first
  h.add(5.0);   // clamps into last
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count_in(0), 2u);
  EXPECT_EQ(h.count_in(2), 1u);
  EXPECT_EQ(h.count_in(3), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_low(2), 0.5);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Table, PrintsRightAlignedColumnsUnderARule) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::format_cell(1.5)});
  t.add_row({"b", Table::format_cell(1.0 / 3.0)});

  std::ostringstream aligned;
  t.print(aligned);
  EXPECT_EQ(aligned.str(),
            " name     value\n"
            "---------------\n"
            "alpha       1.5\n"
            "    b  0.333333\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

}  // namespace
}  // namespace findep::support
