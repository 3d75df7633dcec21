// End-to-end chaos: the EvolutionEngine driving real dpho_worker
// subprocesses through `--cluster process`, with fault plans SIGKILLing
// workers mid-wave.  The determinism contract under test: a faulty run's
// fitness archive is identical to the fault-free run of the same seed, and
// a scheduler death + resume never re-runs a delivered task.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>

#include "core/engine.hpp"
#include "core/eval_config_io.hpp"
#include "core/evaluator.hpp"
#include "obs/event_sink.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dpho::core {
namespace {

hpc::ClusterBackendConfig process_backend(std::size_t workers) {
  hpc::ClusterBackendConfig backend;
  backend.kind = hpc::ClusterBackendKind::kProcess;
  backend.process.worker_binary = DPHO_WORKER_BIN;
  backend.process.num_workers = workers;
  backend.process.eval_config_json =
      eval_backend_config_to_json(EvalBackendConfig{}).dump();
  backend.process.heartbeat_interval_seconds = 0.02;
  backend.process.heartbeat_timeout_seconds = 0.6;
  return backend;
}

hpc::FaultEvent kill_event(std::size_t batch, std::size_t task) {
  hpc::FaultEvent kill;
  kill.kind = hpc::FaultKind::kKillWorker;
  kill.batch = batch;
  kill.task = task;
  kill.attempt = 1;
  return kill;
}

/// The determinism contract: everything the optimizer *decides on* (who was
/// evaluated, what fitness came back, in which wave) is equal; only the
/// fault bookkeeping (attempts, failure causes, wall clock) may differ.
void expect_same_evaluations(const RunRecord& a, const RunRecord& b) {
  const std::vector<EvalRecord> lhs = a.all_evaluations();
  const std::vector<EvalRecord> rhs = b.all_evaluations();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].uuid, rhs[i].uuid) << i;
    EXPECT_EQ(lhs[i].fitness, rhs[i].fitness) << i;
    EXPECT_EQ(lhs[i].status, rhs[i].status) << i;
    EXPECT_EQ(lhs[i].generation, rhs[i].generation) << i;
  }
}

/// Task ids of every `kind` event in a JSONL timeline.
std::set<std::size_t> event_ids(const std::filesystem::path& timeline,
                                const std::string& kind) {
  std::set<std::size_t> ids;
  std::ifstream in(timeline);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const util::Json event = util::Json::parse(line);
    if (event.string_or("kind", "") != kind) continue;
    ids.insert(static_cast<std::size_t>(event.number_or("id", -1.0)));
  }
  return ids;
}

TEST(ProcessEngine, GenerationalKillTwoWorkersKeepsFitnessIdentical) {
  const auto evaluator = make_evaluator(EvalBackendConfig{});
  EngineConfig config;
  config.population_size = 6;
  config.generations = 2;
  config.cluster_backend = process_backend(3);

  const RunRecord clean = EvolutionEngine(config, *evaluator).run(5);

  // Two of the three real workers are SIGKILLed inside wave 1.
  config.farm.faults.events.push_back(kill_event(1, 1));
  config.farm.faults.events.push_back(kill_event(1, 4));
  const RunRecord faulty = EvolutionEngine(config, *evaluator).run(5);

  expect_same_evaluations(clean, faulty);
  ASSERT_EQ(faulty.generations.size(), 3u);
  EXPECT_EQ(faulty.generations[1].node_failures, 2u);
  // The re-dispatches are recorded on the victims' reports.
  std::size_t retried = 0;
  for (const EvalRecord& record : faulty.generations[1].evaluated) {
    if (record.attempts > 1) ++retried;
  }
  EXPECT_EQ(retried, 2u);
}

TEST(ProcessEngine, AsyncKillsKeepTheArchiveIdentical) {
  const auto evaluator = make_evaluator(EvalBackendConfig{});
  EngineConfig config;
  config.mode = ScheduleMode::kSteadyState;
  config.num_workers = 3;
  config.population_size = 6;
  config.total_evaluations = 18;
  config.cluster_backend = process_backend(3);

  const RunRecord clean = EvolutionEngine(config, *evaluator).run(5);

  config.farm.faults.events.push_back(kill_event(0, 2));
  config.farm.faults.events.push_back(kill_event(0, 7));
  const RunRecord faulty = EvolutionEngine(config, *evaluator).run(5);

  expect_same_evaluations(clean, faulty);
}

TEST(ProcessEngine, SchedulerDeathAndResumeNeverRerunsDeliveredTasks) {
  const auto evaluator = make_evaluator(EvalBackendConfig{});
  EngineConfig config;
  config.mode = ScheduleMode::kSteadyState;
  config.num_workers = 3;
  config.population_size = 6;
  config.total_evaluations = 18;
  config.cluster_backend = process_backend(3);

  const RunRecord full = EvolutionEngine(config, *evaluator).run(9);

  util::TempDir dir("process-resume");
  config.checkpoint_dir = dir.path();
  config.halt_after_evaluations = 8;  // the scheduler "dies" mid-session
  const auto before_timeline = dir.path() / "before.jsonl";
  obs::events().open(before_timeline);
  const RunRecord partial = EvolutionEngine(config, *evaluator).run(9);
  obs::events().close();
  EXPECT_LT(partial.all_evaluations().size(), full.all_evaluations().size());

  config.halt_after_evaluations.reset();
  config.resume = true;
  const auto after_timeline = dir.path() / "after.jsonl";
  obs::events().open(after_timeline);
  const RunRecord resumed = EvolutionEngine(config, *evaluator).run(9);
  obs::events().close();

  expect_same_evaluations(full, resumed);

  // The obs timeline is the witness: nothing delivered before the death is
  // dispatched -- or delivered -- again after the resume.
  const std::set<std::size_t> delivered_before =
      event_ids(before_timeline, "process.delivery");
  ASSERT_FALSE(delivered_before.empty());
  for (const std::size_t id : event_ids(after_timeline, "process.dispatch")) {
    EXPECT_EQ(delivered_before.count(id), 0u)
        << "task " << id << " re-dispatched after delivery";
  }
  for (const std::size_t id : event_ids(after_timeline, "process.delivery")) {
    EXPECT_EQ(delivered_before.count(id), 0u)
        << "task " << id << " re-delivered after delivery";
  }
}

}  // namespace
}  // namespace dpho::core
