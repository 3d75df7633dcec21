// The DeePMD training loss.
//
// L(t) = pe(t) * (dE/N)^2 + pf(t) * |dF|^2 / (3N)
//
// with prefactors interpolated between their start and limit values by the
// ratio lr(t)/lr(0):  p(t) = p_limit (1 - lr/lr0) + p_start (lr/lr0).
// Because pf_start (1000) >> pe_start (0.02), training initially minimizes
// force error and gradually shifts weight onto the energy error as the
// learning rate decays (paper section 2.2.1).
#pragma once

#include "dp/config.hpp"
#include "nn/schedule.hpp"

namespace dpho::dp {

/// Energy/force prefactors at a given step.
struct LossWeights {
  double pref_e = 0.0;
  double pref_f = 0.0;
};

class DeepmdLoss {
 public:
  DeepmdLoss(const LossConfig& config, nn::ExponentialDecay schedule);

  /// Prefactors at training step `step`.
  LossWeights weights_at(std::size_t step) const;

  const nn::ExponentialDecay& schedule() const { return schedule_; }

 private:
  LossConfig config_;
  nn::ExponentialDecay schedule_;
};

}  // namespace dpho::dp
