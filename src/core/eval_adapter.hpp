// The one-line boundary between core's evaluation contract and the task
// farm's work protocol.  Only code that actually hands evaluations to a
// cluster session (engine.cpp, and dpho_worker on the far side of the
// process backend) includes this header; everything else in core is
// hpc-free.
#pragma once

#include <utility>

#include "core/eval_outcome.hpp"
#include "hpc/taskfarm.hpp"

namespace dpho::core {

// FailureCause is a core-owned mirror of hpc::FailureCause; pin every value
// so the adapter below can be a static_cast.
#define DPHO_CHECK_CAUSE(name)                                  \
  static_assert(static_cast<int>(FailureCause::name) ==         \
                    static_cast<int>(hpc::FailureCause::name),  \
                "core::FailureCause::" #name                    \
                " diverged from hpc::FailureCause")
DPHO_CHECK_CAUSE(kNone);
DPHO_CHECK_CAUSE(kTrainingFailure);
DPHO_CHECK_CAUSE(kNonZeroExit);
DPHO_CHECK_CAUSE(kWallLimit);
DPHO_CHECK_CAUSE(kHungProcess);
DPHO_CHECK_CAUSE(kMissingArtifact);
DPHO_CHECK_CAUSE(kCorruptArtifact);
DPHO_CHECK_CAUSE(kNonFiniteFitness);
DPHO_CHECK_CAUSE(kException);
DPHO_CHECK_CAUSE(kNodeLoss);
DPHO_CHECK_CAUSE(kMpiRelaunch);
DPHO_CHECK_CAUSE(kPayloadCorruption);
#undef DPHO_CHECK_CAUSE

inline hpc::WorkResult to_work_result(EvalOutcome outcome) {
  return hpc::WorkResult{std::move(outcome.fitness), outcome.runtime_minutes,
                         outcome.training_error,
                         static_cast<hpc::FailureCause>(outcome.cause),
                         outcome.attempts};
}

inline EvalOutcome from_work_result(hpc::WorkResult result) {
  EvalOutcome outcome;
  outcome.fitness = std::move(result.fitness);
  outcome.runtime_minutes = result.sim_minutes;
  outcome.training_error = result.training_error;
  outcome.cause = static_cast<FailureCause>(result.cause);
  outcome.attempts = result.attempts;
  return outcome;
}

}  // namespace dpho::core
