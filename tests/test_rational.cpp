#include "common/rational.hpp"

#include <gtest/gtest.h>

namespace a2a {
namespace {

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  const Rational neg(3, -9);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 3);
  EXPECT_EQ(Rational(0, 17), Rational(0));
}

TEST(Rational, RejectsZeroDenominator) {
  EXPECT_THROW(Rational(1, 0), InvalidArgument);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_THROW(Rational(1) / Rational(0), InvalidArgument);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 4), Rational(-1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, GcdMatchesHandComputedCases) {
  EXPECT_EQ(Rational::gcd(Rational(1, 4), Rational(1, 6)), Rational(1, 12));
  EXPECT_EQ(Rational::gcd(Rational(3, 10), Rational(1, 5)), Rational(1, 10));
  EXPECT_EQ(Rational::gcd(Rational(0), Rational(2, 7)), Rational(2, 7));
}

TEST(Rational, GcdDividesBothOperands) {
  for (int a = 1; a <= 12; ++a) {
    for (int b = 1; b <= 12; ++b) {
      const Rational x(a, 12), y(b, 12);
      const Rational g = Rational::gcd(x, y);
      EXPECT_EQ((x / g).den(), 1) << a << "/" << b;
      EXPECT_EQ((y / g).den(), 1) << a << "/" << b;
    }
  }
}

TEST(Rational, ApproximateRecoversExactRationals) {
  for (int num = 1; num <= 20; ++num) {
    for (int den = 1; den <= 20; ++den) {
      const double x = static_cast<double>(num) / den;
      const Rational r = Rational::approximate(x, 100);
      EXPECT_EQ(r, Rational(num, den));
    }
  }
}

TEST(Rational, ApproximateBoundsDenominator) {
  const Rational pi = Rational::approximate(3.14159265358979, 1000);
  EXPECT_LE(pi.den(), 1000);
  EXPECT_NEAR(pi.to_double(), 3.14159265358979, 1e-6);
}

TEST(Rational, ApproximateHandlesNegative) {
  const Rational r = Rational::approximate(-0.25, 100);
  EXPECT_EQ(r, Rational(-1, 4));
}

// Regression tests for the signed-overflow hazards in the cross-multiplying
// operators: with raw int64 intermediates every case below either crashed
// (UBSan) or silently produced garbage.

TEST(Rational, AdditionSurvivesLargeCoprimeDenominators) {
  // den product is ~2^62.6; raw cross-multiplication of numerators overflows.
  const Rational a(1'000'000'006, 2'000'000'011);
  const Rational b(1'000'000'007, 2'000'000'033);
  const Rational sum = a + b;
  EXPECT_NEAR(sum.to_double(), a.to_double() + b.to_double(), 1e-12);
  EXPECT_EQ(sum - b, a);
  EXPECT_EQ(sum - a, b);
}

TEST(Rational, AdditionOfHugeReducibleTermsReduces) {
  // a + b = 1; intermediates far exceed int64 without gcd pre-reduction.
  const std::int64_t big = 3'037'000'499;  // ~2^31.5, prime
  const Rational a(big - 1, big);
  const Rational b(1, big);
  EXPECT_EQ(a + b, Rational(1));
}

TEST(Rational, MultiplicationCrossReduces) {
  const std::int64_t big = 4'000'000'007;
  const Rational a(big, 3);
  const Rational b(3, big);
  EXPECT_EQ(a * b, Rational(1));
  // One-sided reduction: (big/2) * (2/3) = big/3.
  EXPECT_EQ(Rational(big, 2) * Rational(2, 3), Rational(big, 3));
}

TEST(Rational, ComparisonSurvivesCrossMultiplyOverflow)  {
  // Both cross-products exceed int64; the raw <=> verdict was wrong.
  const Rational a(INT64_MAX / 2, INT64_MAX - 1);
  const Rational b(INT64_MAX / 2 + 1, INT64_MAX - 2);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  // 1 + 6/p vs 1 + 6/q with p < q: exactly c > d, yet the difference
  // (~5e-18) is invisible to doubles and the cross-products exceed int64.
  const Rational c(3'037'000'499, 3'037'000'493);
  const Rational d(3'037'000'507, 3'037'000'501);
  EXPECT_GT(c, d);
  EXPECT_LT(d, c);
}

TEST(Rational, TrueOverflowIsDiagnosedNotSilent) {
  const Rational huge(INT64_MAX, 1);
  EXPECT_THROW(huge * huge, InvalidArgument);
  EXPECT_THROW(huge + huge, InvalidArgument);
  // INT64_MIN magnitudes do not trip negation UB.
  const Rational lowest(INT64_MIN, 1);
  EXPECT_EQ(lowest * Rational(1), lowest);
  EXPECT_EQ(lowest / lowest, Rational(1));
}

TEST(Rational, GcdSurvivesLargeDenominators) {
  // p*q ~ 9.0e18 fits int64 but the raw gcd(a*d, c*b) intermediates were
  // already squared-scale; must now compute exactly.
  const Rational ok =
      Rational::gcd(Rational(1, 3'000'000'019), Rational(1, 3'000'000'037));
  EXPECT_EQ(ok.num(), 1);
  EXPECT_EQ(ok.den(), 3'000'000'019LL * 3'000'000'037LL);
  // p*q ~ 1.6e19 does not fit: diagnosed, not silently wrong.
  EXPECT_THROW(
      (void)Rational::gcd(Rational(1, 4'000'000'007), Rational(1, 4'000'000'009)),
      InvalidArgument);
}

}  // namespace
}  // namespace a2a
