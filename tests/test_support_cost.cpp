// Unit tests for the saturating cost domain (support/cost.hpp).

#include "support/cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace subdp {
namespace {

TEST(Cost, InfinityIsNotFinite) {
  EXPECT_FALSE(is_finite(kInfinity));
  EXPECT_TRUE(is_finite(0));
  EXPECT_TRUE(is_finite(kInfinity - 1));
}

TEST(Cost, SatAddFiniteValuesIsExact) {
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_add(0, 0), 0);
  EXPECT_EQ(sat_add(1'000'000'000LL, 2'000'000'000LL), 3'000'000'000LL);
}

TEST(Cost, SatAddWithInfinitySaturates) {
  EXPECT_EQ(sat_add(kInfinity, 0), kInfinity);
  EXPECT_EQ(sat_add(0, kInfinity), kInfinity);
  EXPECT_EQ(sat_add(kInfinity, kInfinity), kInfinity);
}

TEST(Cost, SatAddDoesNotOverflowNearInfinity) {
  // Two large finite values must saturate, not wrap around.
  const Cost big = kInfinity - 1;
  EXPECT_EQ(sat_add(big, big), kInfinity);
  EXPECT_EQ(sat_add(big, 1), kInfinity);
}

TEST(Cost, ThreeOperandSatAdd) {
  EXPECT_EQ(sat_add(1, 2, 3), 6);
  EXPECT_EQ(sat_add(1, kInfinity, 3), kInfinity);
  EXPECT_EQ(sat_add(kInfinity, 2, 3), kInfinity);
  EXPECT_EQ(sat_add(1, 2, kInfinity), kInfinity);
}

TEST(Cost, SatMin) {
  EXPECT_EQ(sat_min(3, 5), 3);
  EXPECT_EQ(sat_min(5, 3), 3);
  EXPECT_EQ(sat_min(kInfinity, 3), 3);
  EXPECT_EQ(sat_min(kInfinity, kInfinity), kInfinity);
}

TEST(Cost, SatAddIsAssociativeOnSamples) {
  const Cost samples[] = {0, 1, 17, kInfinity - 2, kInfinity};
  for (const Cost a : samples) {
    for (const Cost b : samples) {
      for (const Cost c : samples) {
        EXPECT_EQ(sat_add(sat_add(a, b), c), sat_add(a, sat_add(b, c)));
      }
    }
  }
}

TEST(Cost, PlainMinPlusEqualsSaturatingMinPlus) {
  // The fast a-square fold: with operands in [0, kInfinity] and
  // best <= kInfinity, the unsaturated min-plus equals the saturating one.
  const Cost values[] = {0, 1, kInfinity - 1, kInfinity};
  for (const Cost best : values) {
    for (const Cost a : values) {
      for (const Cost b : values) {
        EXPECT_EQ(std::min(best, a + b), sat_min(best, sat_add(a, b)))
            << "best=" << best << " a=" << a << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace subdp
