#include "core/driver.hpp"

#include "util/error.hpp"

namespace dpho::core {

std::string to_string(ScheduleMode mode) {
  switch (mode) {
    case ScheduleMode::kGenerational: return "generational";
    case ScheduleMode::kSteadyState: return "steady_state";
  }
  throw util::ValueError("invalid schedule mode");
}

ScheduleMode schedule_mode_from_string(const std::string& name) {
  for (const ScheduleMode mode :
       {ScheduleMode::kGenerational, ScheduleMode::kSteadyState}) {
    if (to_string(mode) == name) return mode;
  }
  throw util::ParseError("unknown schedule mode: " + name);
}

std::vector<EvalRecord> RunRecord::all_evaluations() const {
  std::vector<EvalRecord> all;
  for (const GenerationRecord& gen : generations) {
    all.insert(all.end(), gen.evaluated.begin(), gen.evaluated.end());
  }
  return all;
}

std::size_t RunRecord::total_evaluations() const {
  std::size_t count = 0;
  for (const GenerationRecord& gen : generations) count += gen.evaluated.size();
  return count;
}

std::size_t RunRecord::total_failures() const {
  std::size_t count = 0;
  for (const GenerationRecord& gen : generations) count += gen.failures;
  return count;
}

}  // namespace dpho::core
