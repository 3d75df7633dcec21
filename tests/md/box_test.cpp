#include "md/box.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::md {
namespace {

TEST(Box, BasicProperties) {
  const Box box(10.0);
  EXPECT_DOUBLE_EQ(box.length(), 10.0);
  EXPECT_DOUBLE_EQ(box.volume(), 1000.0);
  EXPECT_DOUBLE_EQ(box.max_cutoff(), 5.0);
}

TEST(Box, RejectsNonPositiveLength) {
  EXPECT_THROW(Box(0.0), util::ValueError);
  EXPECT_THROW(Box(-1.0), util::ValueError);
}

TEST(Box, RejectsNonFiniteLength) {
  EXPECT_THROW(Box(std::numeric_limits<double>::quiet_NaN()), util::ValueError);
  EXPECT_THROW(Box(std::numeric_limits<double>::infinity()), util::ValueError);
  EXPECT_THROW(Box(-std::numeric_limits<double>::infinity()), util::ValueError);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Values where a rounding shortcut would go wrong: signed zeros, ties and
/// their floating-point neighbors, subnormals, and the 2^51/2^52 seams.
std::vector<double> rounding_edge_values() {
  std::vector<double> values = {0.0, DBL_MIN, DBL_TRUE_MIN, 4.9e-320, DBL_MAX,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double half : {0.5, 1.5, 2.5, 3.5, 1e6 + 0.5, 0x1p50 + 0.5}) {
    values.push_back(half);
    values.push_back(std::nextafter(half, 0.0));
    values.push_back(std::nextafter(half, 1e300));
  }
  for (const double seam : {0x1p51, 0x1p52, 0x1p53, 0x1.8p52}) {
    double below = seam;
    double above = seam;
    for (int step = 0; step < 4; ++step) {
      values.push_back(below);
      values.push_back(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1e300);
    }
    values.push_back(seam - 0.5);
    values.push_back(seam + 0.5);
    values.push_back(seam - 1.5);
  }
  const std::size_t positives = values.size();
  for (std::size_t i = 0; i < positives; ++i) values.push_back(-values[i]);
  return values;
}

TEST(Box, RoundHalfEvenMatchesNearbyintBitwise) {
  for (const double t : rounding_edge_values()) {
    ASSERT_EQ(bits(round_half_even(t)), bits(std::nearbyint(t))) << t;
  }
  util::Rng rng(29);
  for (int i = 0; i < 1'000'000; ++i) {
    // Raw bit patterns (every exponent, NaNs and infinities included), then
    // the range a minimum image sees, then whole multiples of one half.
    const double patterned = std::bit_cast<double>(rng());
    const double near = rng.uniform(-8.0, 8.0);
    const double half = 0.5 * static_cast<double>(rng.uniform_int(-64, 64));
    for (const double t : {patterned, near, half}) {
      ASSERT_EQ(bits(round_half_even(t)), bits(std::nearbyint(t))) << t;
    }
  }
}

TEST(Box, DisplacementMatchesNearbyintMinimumImageBitwise) {
  const auto nearbyint_image = [](const Box& box, const Vec3& ri, const Vec3& rj) {
    Vec3 d = rj - ri;
    for (double& component : d) {
      component -= box.length() * std::nearbyint(component * (1.0 / box.length()));
    }
    return d;
  };
  util::Rng rng(31);
  for (int i = 0; i < 1'000'000; ++i) {
    const Box box(rng.uniform(5.0, 100.0));
    const double span = 3.0 * box.length();
    const Vec3 ri{rng.uniform(-span, span), rng.uniform(-span, span),
                  rng.uniform(-span, span)};
    const Vec3 rj{rng.uniform(-span, span), rng.uniform(-span, span),
                  rng.uniform(-span, span)};
    const Vec3 got = box.displacement(ri, rj);
    const Vec3 want = nearbyint_image(box, ri, rj);
    for (int k = 0; k < 3; ++k) ASSERT_EQ(bits(got[k]), bits(want[k])) << i;
  }
  // On a unit box the image count is the coordinate itself, so the edge
  // values reach the rounding through the displacement too.
  const Box unit(1.0);
  for (const double t : rounding_edge_values()) {
    const Vec3 got = unit.displacement(Vec3{0.0, 0.0, 0.0}, Vec3{t, -t, t});
    const Vec3 want = nearbyint_image(unit, Vec3{0.0, 0.0, 0.0}, Vec3{t, -t, t});
    for (int k = 0; k < 3; ++k) ASSERT_EQ(bits(got[k]), bits(want[k])) << t;
  }
}

TEST(Box, DisplacementIsExactlyAntisymmetric) {
  // Neighbor rows hold ids only, and the kernels rebuild a pair's
  // displacement from either end: displacement(a, b) is bitwise
  // -displacement(b, a), except that an exact-zero component is +0 from
  // both ends (so a row that must match a negated displacement negates it
  // rather than recomputing it from the other end).
  const auto expect_antisymmetric = [](const Box& box, const Vec3& a, const Vec3& b) {
    const Vec3 ab = box.displacement(a, b);
    const Vec3 ba = box.displacement(b, a);
    for (int k = 0; k < 3; ++k) {
      if (ab[k] == 0.0) {
        ASSERT_EQ(bits(ab[k]), bits(0.0)) << a[k] << " " << b[k];
        ASSERT_EQ(bits(ba[k]), bits(0.0)) << a[k] << " " << b[k];
      } else {
        ASSERT_EQ(bits(ab[k]), bits(-ba[k])) << a[k] << " " << b[k];
      }
    }
  };
  util::Rng rng(37);
  for (int i = 0; i < 200'000; ++i) {
    const Box box(rng.uniform(5.0, 100.0));
    const double span = 3.0 * box.length();
    expect_antisymmetric(box,
                         Vec3{rng.uniform(-span, span), rng.uniform(-span, span),
                              rng.uniform(-span, span)},
                         Vec3{rng.uniform(-span, span), rng.uniform(-span, span),
                              rng.uniform(-span, span)});
  }
  // Image counts of 2^51 and beyond take std::nearbyint.
  const Box unit(1.0);
  for (const double t : {0x1p51, 0x1p51 + 0.5, 0x1p51 + 1.5, 0x1p52 + 1.0, 0x1p60, 3e17}) {
    expect_antisymmetric(unit, Vec3{0.0, 0.25, -0.5}, Vec3{t, -t, t + 0.5});
  }
  // Half-integer image counts are ties, rounded to even from either end.
  for (const double length : {1.0, 2.0, 10.0, 17.84}) {
    const Box box(length);
    for (int n = -6; n <= 6; ++n) {
      const double tie = (static_cast<double>(n) + 0.5) * length;
      expect_antisymmetric(box, Vec3{0.0, 1.0, -2.0}, Vec3{tie, 1.0 + tie, tie - 2.0});
    }
  }
  // Shared coordinates and whole-box separations give exact zeros.
  const Box box(12.0);
  expect_antisymmetric(box, Vec3{1.0, 2.0, 3.0}, Vec3{1.0, 5.0, 15.0});
}

TEST(Box, DisplacementWithoutWrapping) {
  const Box box(10.0);
  const Vec3 d = box.displacement(Vec3{1.0, 1.0, 1.0}, Vec3{2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(Box, MinimumImageWrapsAcrossBoundary) {
  const Box box(10.0);
  const Vec3 d = box.displacement(Vec3{0.5, 0.0, 0.0}, Vec3{9.5, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(d[0], -1.0);  // shorter to go backwards through the wall
}

TEST(Box, DistanceSymmetry) {
  const Box box(17.84);
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Vec3 a{rng.uniform(0, 17.84), rng.uniform(0, 17.84), rng.uniform(0, 17.84)};
    const Vec3 b{rng.uniform(0, 17.84), rng.uniform(0, 17.84), rng.uniform(0, 17.84)};
    EXPECT_NEAR(box.distance(a, b), box.distance(b, a), 1e-12);
  }
}

TEST(Box, DistanceNeverExceedsHalfDiagonal) {
  const Box box(10.0);
  util::Rng rng(5);
  const double limit = 5.0 * std::sqrt(3.0) + 1e-9;
  for (int i = 0; i < 500; ++i) {
    const Vec3 a{rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const Vec3 b{rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)};
    EXPECT_LE(box.distance(a, b), limit);
  }
}

TEST(Box, DistanceInvariantUnderImageShifts) {
  const Box box(10.0);
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, 5.0, 6.0};
  const double base = box.distance(a, b);
  const Vec3 shifted{4.0 + 10.0, 5.0 - 20.0, 6.0 + 30.0};
  EXPECT_NEAR(box.distance(a, shifted), base, 1e-9);
}

TEST(Box, WrapIntoPrimaryCell) {
  const Box box(10.0);
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Vec3 r{rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const Vec3 w = box.wrap(r);
    for (int k = 0; k < 3; ++k) {
      EXPECT_GE(w[k], 0.0);
      EXPECT_LT(w[k], 10.0);
    }
    // Wrapping must not change any pairwise geometry.
    EXPECT_NEAR(box.distance(w, Vec3{0, 0, 0}), box.distance(r, Vec3{0, 0, 0}), 1e-9);
  }
}

TEST(Box, WrapIdempotent) {
  const Box box(10.0);
  const Vec3 r{23.7, -4.2, 9.999};
  const Vec3 once = box.wrap(r);
  const Vec3 twice = box.wrap(once);
  for (int k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(once[k], twice[k]);
}

}  // namespace
}  // namespace dpho::md
