// Cubic periodic simulation box with minimum-image displacement.
#pragma once

#include <cmath>

#include "md/system.hpp"

namespace dpho::md {

/// Round half to even, bit-identical to std::nearbyint under the default
/// rounding mode, signed zero included.  For |t| < 2^51, adding and
/// subtracting 1.5 * 2^52 rounds t to an integer with no libm call, and
/// copysign restores the sign of a zero result; larger values and NaN take
/// std::nearbyint.  A build that fuses the product forming t into the
/// addition (FMA contraction) would round differently.
inline double round_half_even(double t) {
  if (!(std::abs(t) < 0x1p51)) return std::nearbyint(t);
  return std::copysign((t + 0x1.8p52) - 0x1.8p52, t);
}

/// Cubic box with periodic boundary conditions on all three axes.
class Box {
 public:
  /// Throws ValueError unless `length` is positive and finite.
  explicit Box(double length);

  double length() const { return length_; }
  double volume() const { return length_ * length_ * length_; }
  /// Largest physically meaningful interaction cutoff (half the edge).
  double max_cutoff() const { return 0.5 * length_; }

  /// Minimum-image displacement r_j - r_i.
  Vec3 displacement(const Vec3& ri, const Vec3& rj) const {
    const auto image = [this](double x) {
      return x - length_ * round_half_even(x * inv_length_);
    };
    const Vec3 d = rj - ri;
    return {image(d[0]), image(d[1]), image(d[2])};
  }

  /// Minimum-image distance.
  double distance(const Vec3& ri, const Vec3& rj) const;

  /// Wraps a position into [0, L)^3.
  Vec3 wrap(const Vec3& r) const;

 private:
  double length_;
  double inv_length_;
};

}  // namespace dpho::md
