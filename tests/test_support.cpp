// Unit tests for the support library: contracts, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

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

TEST(ZipfTable, ZeroExponentIsUniform) {
  Rng rng(12);
  const ZipfTable table(4, 0.0);
  std::array<int, 4> counts{};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[table.draw(rng)];
  for (const int count : counts) EXPECT_NEAR(count, kN / 4, kN / 40);
}

TEST(ZipfTable, SkewFavorsLowRanks) {
  Rng rng(13);
  const ZipfTable table(4, 1.5);
  std::array<int, 4> counts{};
  for (int i = 0; i < 40000; ++i) ++counts[table.draw(rng)];
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

/// Floyd's sampler as Rng::sample_indices wrote it into a fresh vector
/// before it could fill a reused buffer.
std::vector<std::size_t> floyd_into_fresh_vector(Rng& rng, std::size_t n,
                                                 std::size_t k) {
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = rng.below(j + 1);
    bool already = false;
    for (const std::size_t c : chosen) {
      if (c == t) {
        already = true;
        break;
      }
    }
    chosen.push_back(already ? j : t);
  }
  return chosen;
}

TEST(Rng, SampleIndicesIntoBufferMatchesFloyd) {
  Rng a(16), b(16);
  std::vector<std::size_t> buffer = {99, 98, 97, 96, 95, 94, 93};
  for (std::size_t n = 0; n <= 9; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      for (int trial = 0; trial < 20; ++trial) {
        b.sample_indices(n, k, buffer);
        ASSERT_EQ(buffer, floyd_into_fresh_vector(a, n, k)) << n << " " << k;
        ASSERT_EQ(b.sample_indices(n, k), floyd_into_fresh_vector(a, n, k))
            << n << " " << k;
      }
    }
  }
  EXPECT_EQ(a(), b());
  EXPECT_THROW(b.sample_indices(2, 3, buffer), ContractViolation);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

// --- Bernoulli and ZipfTable, pinned to the draws they replace ----------

/// Asserts that one Bernoulli(p) draw from `by_draw` has the outcome of
/// one chance(p) from `by_chance`; both generators must start equal.
void expect_same_flip(double p, Rng& by_chance, Rng& by_draw) {
  const bool expected = by_chance.chance(p);
  ASSERT_EQ(Bernoulli(p).draw(by_draw), expected ? 1u : 0u)
      << std::hexfloat << p;
}

TEST(Bernoulli, MatchesChanceAtFixedProbabilities) {
  for (const double p :
       {0.0, 0x1.0p-53, 0.05, 0.45, 0.5, 1.0 - 0x1.0p-53, 1.0}) {
    Rng by_chance(21), by_draw(21);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_NO_FATAL_FAILURE(expect_same_flip(p, by_chance, by_draw));
    }
    // One rng() per flip on both sides: the streams stay in step.
    EXPECT_EQ(by_chance(), by_draw()) << p;
  }
}

TEST(Bernoulli, MatchesChanceAtRandomProbabilities) {
  Rng pick(22), by_chance(23), by_draw(23);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        expect_same_flip(pick.uniform(), by_chance, by_draw));
  }
  EXPECT_EQ(by_chance(), by_draw());
}

TEST(Bernoulli, MatchesChanceAtTheNextDrawsOwnValue) {
  // p = x · 2^-53 for the top 53 bits x of the coming draw, and the two
  // doubles either side of it: chance() is false, false and true, and a
  // threshold rounded the wrong way flips one of them.
  Rng by_chance(24), by_draw(24);
  for (int i = 0; i < 100000; ++i) {
    Rng peek = by_chance;
    const double at = static_cast<double>(peek() >> 11) * 0x1.0p-53;
    const double p =
        i % 3 == 0 ? at : std::nextafter(at, i % 3 == 1 ? 0.0 : 1.0);
    ASSERT_NO_FATAL_FAILURE(expect_same_flip(p, by_chance, by_draw));
  }
  EXPECT_EQ(by_chance(), by_draw());
}

TEST(Bernoulli, RejectsProbabilityOutsideUnitInterval) {
  EXPECT_THROW(Bernoulli{1.5}, ContractViolation);
  EXPECT_THROW(Bernoulli{-0.1}, ContractViolation);
}

/// The Zipf inversion as Rng::zipf made it before the weights were
/// tabulated: every weight recomputed with pow on every draw.
std::size_t zipf_by_pow(Rng& rng, std::size_t n, double s) {
  if (n == 1) return 0;
  double norm = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    norm += 1.0 / std::pow(static_cast<double>(rank), s);
  }
  double target = rng.uniform() * norm;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    target -= 1.0 / std::pow(static_cast<double>(rank), s);
    if (target < 0.0) return rank - 1;
  }
  return n - 1;
}

TEST(ZipfTable, DrawsWhatThePowInversionDrew) {
  for (std::size_t n = 1; n <= 12; ++n) {
    for (const double s : {0.0, 0.8, 1.0, 1.5, 3.0}) {
      const ZipfTable table(n, s);
      ASSERT_EQ(table.size(), n);
      Rng by_pow(31 + n), by_table(31 + n);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(table.draw(by_table), zipf_by_pow(by_pow, n, s))
            << n << " " << s;
      }
      // n = 1 draws nothing; every other n draws once per rank.
      EXPECT_EQ(by_pow(), by_table()) << n << " " << s;
    }
  }
}

TEST(ZipfTable, RejectsEmptyRangeAndNegativeExponent) {
  EXPECT_THROW(ZipfTable(0, 1.0), ContractViolation);
  EXPECT_THROW(ZipfTable(3, -0.5), ContractViolation);
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
