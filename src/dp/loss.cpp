#include "dp/loss.hpp"

namespace dpho::dp {

DeepmdLoss::DeepmdLoss(const LossConfig& config, nn::ExponentialDecay schedule)
    : config_(config), schedule_(schedule) {}

LossWeights DeepmdLoss::weights_at(std::size_t step) const {
  const double ratio = schedule_.lr(step) / schedule_.lr(0);
  const nn::LossPrefactorSchedule pe(config_.start_pref_e, config_.limit_pref_e);
  const nn::LossPrefactorSchedule pf(config_.start_pref_f, config_.limit_pref_f);
  return LossWeights{pe.at(ratio), pf.at(ratio)};
}

}  // namespace dpho::dp
