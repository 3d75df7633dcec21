// The records one evolution run produces, in either schedule mode: the
// analysis layer, checkpoints, persistence and the scheduler read these.
// The engine that fills them is core::EvolutionEngine (engine.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ea/individual.hpp"

namespace dpho::core {

/// How the EvolutionEngine schedules evaluations: generational barriers (the
/// paper's deployment) or asynchronous steady-state replacement.
enum class ScheduleMode : std::uint8_t {
  kGenerational = 0,
  kSteadyState,
};

std::string to_string(ScheduleMode mode);
ScheduleMode schedule_mode_from_string(const std::string& name);

/// Snapshot of one evaluated individual, for the analysis layer.
struct EvalRecord {
  std::vector<double> genome;
  std::vector<double> fitness;   // {rmse_e, rmse_f}; MAXINT on failure
  double runtime_minutes = 0.0;
  ea::EvalStatus status = ea::EvalStatus::kOk;
  std::size_t attempts = 1;            // farm reassignments + payload retries
  std::string failure_cause = "none";  // hpc FailureCause name
  int generation = 0;
  std::string uuid;
};

/// Per-generation accounting.
struct GenerationRecord {
  int generation = 0;
  std::vector<EvalRecord> evaluated;  // the individuals scored this generation
  double makespan_minutes = 0.0;
  std::size_t failures = 0;           // non-ok evaluations
  std::size_t node_failures = 0;      // nodes lost to injection
  std::vector<double> mutation_std;   // sigma vector in force at this generation
};

/// One full EA deployment ("one Summit job"), in either schedule mode.  In
/// steady-state mode a "generation" is a wave of `population_size`
/// completions in delivery order (the budget's remainder forms a short final
/// wave), so the analysis layer reads both modes identically.
struct RunRecord {
  std::uint64_t seed = 0;
  ScheduleMode mode = ScheduleMode::kGenerational;
  std::vector<GenerationRecord> generations;   // index 0 = initial population
  std::vector<EvalRecord> final_population;    // parents after the last selection
  double job_minutes = 0.0;                    // total simulated wall clock
  double busy_fraction = 0.0;                  // mean worker utilization in [0,1]

  /// All evaluations across every generation, in completion order.
  std::vector<EvalRecord> all_evaluations() const;
  std::size_t total_evaluations() const;
  std::size_t total_failures() const;
};

}  // namespace dpho::core
