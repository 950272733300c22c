// Unit tests for comet::util — RNG determinism and distributional sanity,
// statistics, KL confidence bounds, table rendering, string helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/contract.h"
#include "util/kl_bounds.h"
#include "util/name_table.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/str.h"
#include "util/table.h"

namespace cu = comet::util;

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  cu::Rng rng(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, IndexCoversRangeUniformly) {
  cu::Rng rng(3);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.index(7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7.0, n / 7.0 * 0.1);
}

TEST(Rng, IndexThrowsOnZero) {
  cu::Rng rng(1);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, RangeInclusiveBounds) {
  cu::Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency) {
  cu::Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / double(n), 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  cu::Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, Fnv1aStableAndDistinct) {
  EXPECT_EQ(cu::fnv1a64("abc"), cu::fnv1a64("abc"));
  EXPECT_NE(cu::fnv1a64("abc"), cu::fnv1a64("abd"));
  EXPECT_NE(cu::fnv1a64(""), cu::fnv1a64("a"));
}

// ---------- stats ----------

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(cu::mean(xs), 5.0);
  EXPECT_NEAR(cu::stddev(xs), 2.138, 1e-3);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(cu::mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MapeBasic) {
  const std::vector<double> pred{110, 90};
  const std::vector<double> act{100, 100};
  EXPECT_NEAR(cu::mape(pred, act), 10.0, 1e-9);
}

TEST(Stats, MapeSkipsZeroActuals) {
  const std::vector<double> pred{110, 123};
  const std::vector<double> act{100, 0};
  EXPECT_NEAR(cu::mape(pred, act), 10.0, 1e-9);
}

TEST(Stats, MapeSizeMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(cu::mape(a, b), std::invalid_argument);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(cu::percentile(xs, 25), 2.0);
}

// ---------- KL bounds ----------

TEST(KlBounds, KlZeroWhenEqual) {
  EXPECT_NEAR(cu::bernoulli_kl(0.3, 0.3), 0.0, 1e-12);
}

TEST(KlBounds, KlPositiveAndAsymmetric) {
  EXPECT_GT(cu::bernoulli_kl(0.2, 0.8), 0.0);
  EXPECT_GT(cu::bernoulli_kl(0.8, 0.2), 0.0);
}

TEST(KlBounds, KlBoundaryCases) {
  EXPECT_GE(cu::bernoulli_kl(0.0, 0.5), 0.0);
  EXPECT_GE(cu::bernoulli_kl(1.0, 0.5), 0.0);
  EXPECT_TRUE(std::isfinite(cu::bernoulli_kl(0.0, 0.999)));
  EXPECT_TRUE(std::isfinite(cu::bernoulli_kl(1.0, 0.001)));
}

TEST(KlBounds, UpperBoundBracketsMean) {
  const double ub = cu::kl_upper_bound(0.5, 100, 1.0);
  EXPECT_GE(ub, 0.5);
  EXPECT_LE(ub, 1.0);
}

TEST(KlBounds, LowerBoundBracketsMean) {
  const double lb = cu::kl_lower_bound(0.5, 100, 1.0);
  EXPECT_LE(lb, 0.5);
  EXPECT_GE(lb, 0.0);
}

TEST(KlBounds, BoundsTightenWithSamples) {
  const double ub_small = cu::kl_upper_bound(0.7, 10, 1.0);
  const double ub_large = cu::kl_upper_bound(0.7, 1000, 1.0);
  EXPECT_LT(ub_large, ub_small);
  const double lb_small = cu::kl_lower_bound(0.7, 10, 1.0);
  const double lb_large = cu::kl_lower_bound(0.7, 1000, 1.0);
  EXPECT_GT(lb_large, lb_small);
}

TEST(KlBounds, BoundsWidenWithLevel) {
  EXPECT_LE(cu::kl_upper_bound(0.5, 50, 0.5), cu::kl_upper_bound(0.5, 50, 2.0));
  EXPECT_GE(cu::kl_lower_bound(0.5, 50, 0.5), cu::kl_lower_bound(0.5, 50, 2.0));
}

TEST(KlBounds, ZeroSamplesGiveVacuousBounds) {
  EXPECT_DOUBLE_EQ(cu::kl_upper_bound(0.5, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(cu::kl_lower_bound(0.5, 0, 1.0), 0.0);
}

TEST(KlBounds, BoundInversionProperty) {
  // n * kl(p_hat, bound) ~= level at the returned bound (when interior).
  const double p = 0.6;
  const std::size_t n = 200;
  const double level = 2.0;
  const double ub = cu::kl_upper_bound(p, n, level);
  EXPECT_NEAR(n * cu::bernoulli_kl(p, ub), level, 1e-6);
  const double lb = cu::kl_lower_bound(p, n, level);
  EXPECT_NEAR(n * cu::bernoulli_kl(p, lb), level, 1e-6);
}

TEST(KlBounds, LucbLevelIncreasesWithT) {
  EXPECT_LT(cu::kl_lucb_level(1, 10, 0.1), cu::kl_lucb_level(100, 10, 0.1));
}

// Parameterized coverage property: the KL interval covers the true mean with
// frequency at least ~(1 - 2*exp(-level)) in a Bernoulli simulation.
class KlCoverage : public ::testing::TestWithParam<double> {};

TEST_P(KlCoverage, IntervalCoversTrueMean) {
  const double p_true = GetParam();
  cu::Rng rng(1234 + static_cast<std::uint64_t>(p_true * 1000));
  const std::size_t n = 200;
  const double level = 3.0;  // exp(-3) ~ 0.05 per side
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) hits += rng.bernoulli(p_true);
    const double p_hat = static_cast<double>(hits) / n;
    const double lb = cu::kl_lower_bound(p_hat, n, level);
    const double ub = cu::kl_upper_bound(p_hat, n, level);
    covered += (lb <= p_true && p_true <= ub);
  }
  EXPECT_GE(covered / double(trials), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KlCoverage,
                         ::testing::Values(0.05, 0.3, 0.5, 0.7, 0.95));

// Bit-identity of the bounds the anchor engine compares. The engine's arm
// ordering and stopping rule hinge on exact comparisons between these
// doubles, so any speed-up of the bound computation must return the same
// bits as the plain 60-step bisection below (a copy of the original
// implementation, kept here as the reference).
namespace {

constexpr double kRefEps = 1e-15;

double ref_kl(double p, double q) {
  p = std::clamp(p, 0.0, 1.0);
  q = std::clamp(q, kRefEps, 1.0 - kRefEps);
  double kl = 0.0;
  if (p > 0.0) kl += p * std::log(p / q);
  if (p < 1.0) kl += (1.0 - p) * std::log((1.0 - p) / (1.0 - q));
  return kl;
}

double ref_upper(double p_hat, std::size_t n, double level) {
  if (n == 0) return 1.0;
  const double budget = level / static_cast<double>(n);
  double lo = std::clamp(p_hat, 0.0, 1.0);
  double hi = 1.0;
  if (ref_kl(p_hat, hi - kRefEps) <= budget) return 1.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ref_kl(p_hat, mid) > budget) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

double ref_lower(double p_hat, std::size_t n, double level) {
  if (n == 0) return 0.0;
  const double budget = level / static_cast<double>(n);
  double lo = 0.0;
  double hi = std::clamp(p_hat, 0.0, 1.0);
  if (ref_kl(p_hat, lo + kRefEps) <= budget) return 0.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ref_kl(p_hat, mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Levels the engine uses: the KL-LUCB schedule at early, middle and
/// late rounds of small and large levels, and the firm-up pass's
/// log(1 / core::kLucbConfidenceDelta).
std::vector<double> engine_levels() {
  std::vector<double> levels;
  for (const std::size_t t : {2, 41, 159}) {
    for (const std::size_t arms : {4, 57}) {
      levels.push_back(cu::kl_lucb_level(t, arms, 0.1));
    }
  }
  levels.push_back(std::log(1.0 / 0.1));
  return levels;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

TEST(KlBounds, BitIdenticalToPlainBisection) {
  std::size_t checked = 0;
  for (const double level : engine_levels()) {
    for (std::size_t n = 1; n <= 200; ++n) {
      for (std::size_t hits = 0; hits <= n; ++hits) {
        const double mean =
            static_cast<double>(hits) / static_cast<double>(n);
        ASSERT_EQ(bits(cu::kl_upper_bound(mean, n, level)),
                  bits(ref_upper(mean, n, level)))
            << hits << "/" << n << " level " << level;
        ASSERT_EQ(bits(cu::kl_lower_bound(mean, n, level)),
                  bits(ref_lower(mean, n, level)))
            << hits << "/" << n << " level " << level;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, engine_levels().size() * 200 * 203 / 2);
}

// A round's memoised bounds are the direct bounds at the round's level,
// bit for bit, whichever is asked first and however often; reset() moves
// to the next level and forgets the previous round.
TEST(KlBounds, RoundBoundsMatchDirectBounds) {
  cu::KlRoundBounds round;
  for (const double level : engine_levels()) {
    round.reset(level);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t n = 0; n <= 24; ++n) {
        for (std::size_t hits = 0; hits <= n; ++hits) {
          const double mean = cu::hit_rate(hits, n);
          const double ub = cu::kl_upper_bound(mean, n, level);
          const double lb = cu::kl_lower_bound(mean, n, level);
          if ((n + hits + pass) % 2 == 0) {
            ASSERT_EQ(bits(round.upper(hits, n)), bits(ub));
            ASSERT_EQ(bits(round.lower(hits, n)), bits(lb));
          } else {
            ASSERT_EQ(bits(round.lower(hits, n)), bits(lb));
            ASSERT_EQ(bits(round.upper(hits, n)), bits(ub));
          }
        }
      }
    }
  }
  EXPECT_EQ(cu::hit_rate(0, 0), 0.0);
  EXPECT_EQ(cu::hit_rate(3, 4), 0.75);
}

// ---------- Table ----------

TEST(Table, RendersHeaderAndRows) {
  cu::Table t({"model", "value"});
  t.add_row({"ithemal", "1.30"});
  t.add_row({"uica", "2.00"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("ithemal"), std::string::npos);
  EXPECT_NE(s.find("2.00"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  cu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"x"}), std::invalid_argument);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(cu::Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(cu::Table::fmt_pm(1.0, 0.5, 1), "1.0 +- 0.5");
}

// ---------- str ----------

TEST(Str, Trim) {
  EXPECT_EQ(cu::trim("  ab \t"), "ab");
  EXPECT_EQ(cu::trim(""), "");
  EXPECT_EQ(cu::trim("   "), "");
}

TEST(Str, Split) {
  const auto parts = cu::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Str, ToLowerAndStartsWith) {
  EXPECT_EQ(cu::to_lower("MoV"), "mov");
  EXPECT_TRUE(cu::starts_with("0x123", "0x"));
  EXPECT_FALSE(cu::starts_with("1", "0x"));
}

// The inline forms the parsers use must agree with <cctype> in the "C"
// locale on every byte, high bytes included.
TEST(Str, InlineCharClassesMatchCLocale) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(cu::is_space(c), std::isspace(b) != 0) << b;
    EXPECT_EQ(cu::ascii_lower(c), static_cast<char>(std::tolower(b))) << b;
  }
}

TEST(NameTable, CaseInsensitiveByPackedNameAndLength) {
  const cu::NameTable<int> table({{"al", 1}, {"rax", 2}, {"vextractf128", 3}});
  EXPECT_EQ(table.find("AL"), 1);
  EXPECT_EQ(table.find("rAx"), 2);
  EXPECT_EQ(table.find("VEXTRACTF128"), 3);
  EXPECT_FALSE(table.find("").has_value());
  EXPECT_FALSE(table.find("ra").has_value());
  EXPECT_FALSE(table.find("raxx").has_value());
  // The packed key holds the length, so NULs do not alias shorter names.
  EXPECT_FALSE(table.find(std::string_view("\0al", 3)).has_value());
  EXPECT_FALSE(table.find(std::string_view("al\0", 3)).has_value());
  EXPECT_FALSE(table.find(std::string_view("r\0ax", 4)).has_value());
  // Longer than any key can be: no match, no overrun.
  EXPECT_FALSE(table.find("vextractf128vextractf128").has_value());
  EXPECT_FALSE(table.find(std::string(16, 'a')).has_value());
  // Duplicate or overlong names are a contract violation at construction.
  EXPECT_THROW(cu::NameTable<int>({{"rax", 1}, {"RAX", 2}}),
               cu::ContractViolation);
  EXPECT_THROW(cu::NameTable<int>({{"abcdefghijklmnop", 1}}),
               cu::ContractViolation);
}

TEST(Str, FormatFixed) {
  EXPECT_EQ(cu::format_fixed(0.6333333333, 3), "0.633");
  EXPECT_EQ(cu::format_fixed(1.0, 3), "1.000");
  EXPECT_EQ(cu::format_fixed(0.0, 2), "0.00");
  EXPECT_EQ(cu::format_fixed(-2.5, 1), "-2.5");
  EXPECT_EQ(cu::format_fixed(12.3456, 0), "12");
}
