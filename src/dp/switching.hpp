// DeepPot-SE smooth radial switching function.
//
// The two radial cutoffs tuned by the hyperparameter search (rcut and
// rcut_smth, paper section 2.2.1) enter the model exclusively through this
// function:
//     s(r) = 1/r                                   for r <  rcut_smth
//     s(r) = (1/r) * (x^3 (-6x^2 + 15x - 10) + 1)  for rcut_smth <= r < rcut
//     s(r) = 0                                     for r >= rcut
// with x = (r - rcut_smth) / (rcut - rcut_smth).  The quintic blend makes
// s(r) and s'(r) vanish at rcut, so the learned potential energy surface is
// continuously differentiable as neighbors cross the cutoff sphere.
#pragma once

namespace dpho::dp {

/// Value/derivative pair of the switching function.
struct SwitchingFunction {
  /// Requires 0 < rcut_smth < rcut.
  SwitchingFunction(double rcut, double rcut_smth);

  double rcut() const { return rcut_; }
  double rcut_smth() const { return rcut_smth_; }

  double value(double r) const;
  double derivative(double r) const;

 private:
  double rcut_;
  double rcut_smth_;
};

}  // namespace dpho::dp
