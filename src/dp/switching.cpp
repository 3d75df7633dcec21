#include "dp/switching.hpp"

#include "util/error.hpp"

namespace dpho::dp {

SwitchingFunction::SwitchingFunction(double rcut, double rcut_smth)
    : rcut_(rcut), rcut_smth_(rcut_smth) {
  if (!(rcut_smth > 0.0) || !(rcut_smth < rcut)) {
    throw util::ValueError("switching requires 0 < rcut_smth < rcut");
  }
}

double SwitchingFunction::value(double r) const {
  if (r >= rcut_) return 0.0;
  if (r < rcut_smth_) return 1.0 / r;
  const double x = (r - rcut_smth_) / (rcut_ - rcut_smth_);
  const double blend = x * x * x * (-6.0 * x * x + 15.0 * x - 10.0) + 1.0;
  return blend / r;
}

double SwitchingFunction::derivative(double r) const {
  if (r >= rcut_) return 0.0;
  if (r < rcut_smth_) return -1.0 / (r * r);
  const double width = rcut_ - rcut_smth_;
  const double x = (r - rcut_smth_) / width;
  const double blend = x * x * x * (-6.0 * x * x + 15.0 * x - 10.0) + 1.0;
  const double dblend = (-30.0 * x * x * x * x + 60.0 * x * x * x - 30.0 * x * x) / width;
  return dblend / r - blend / (r * r);
}

}  // namespace dpho::dp
