// Deterministic fault-injection via hpc::FaultPlan: scripted worker kills,
// stragglers, payload corruption and scheduler restarts, plus the
// snapshot/restore contract the checkpoint layer relies on.
#include "hpc/taskfarm.hpp"

#include <gtest/gtest.h>

#include "hpc/faultplan_io.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::hpc {
namespace {

FarmConfig basic_config(std::size_t nodes) {
  FarmConfig config;
  config.job.nodes = nodes;
  config.job.wall_limit_minutes = 12 * 60;
  config.task_timeout_minutes = 120.0;
  config.real_threads = 2;
  return config;
}

WorkFn constant_work(double minutes, double fitness = 1.0) {
  return [minutes, fitness](std::size_t) {
    return WorkResult{{fitness, fitness}, minutes, false};
  };
}

FaultEvent kill_event(std::size_t batch, std::size_t task, std::size_t attempt) {
  FaultEvent event;
  event.kind = FaultKind::kKillWorker;
  event.batch = batch;
  event.task = task;
  event.attempt = attempt;
  return event;
}

TEST(FaultPlan, SingleKillReassignsTask) {
  FarmConfig config = basic_config(4);
  config.faults.events.push_back(kill_event(0, 0, 1));
  DaskCluster farm(ClusterSpec::testbed(4), config);
  const BatchReport report = farm.run_batch(4, constant_work(10.0));
  EXPECT_EQ(report.node_failures, 1u);
  EXPECT_EQ(report.workers_remaining, 3u);  // nannies disabled: never revived
  EXPECT_EQ(report.tasks[0].status, TaskStatus::kOk);
  EXPECT_EQ(report.tasks[0].attempts, 2u);  // reassigned once
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(report.tasks[i].status, TaskStatus::kOk);
    EXPECT_EQ(report.tasks[i].attempts, 1u);
  }
}

TEST(FaultPlan, KillsExhaustingMaxAttemptsYieldNodeFailure) {
  FarmConfig config = basic_config(5);
  config.max_attempts = 3;
  // Kill whichever node runs task 2 on every scheduler attempt.
  for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
    config.faults.events.push_back(kill_event(0, 2, attempt));
  }
  DaskCluster farm(ClusterSpec::testbed(5), config);
  const BatchReport report = farm.run_batch(5, constant_work(10.0));

  const TaskReport& doomed = report.tasks[2];
  EXPECT_EQ(doomed.status, TaskStatus::kNodeFailure);
  EXPECT_EQ(doomed.cause, FailureCause::kNodeLoss);
  EXPECT_EQ(doomed.attempts, config.max_attempts);
  EXPECT_TRUE(doomed.fitness.empty());
  // Three distinct nodes died for it; everyone else finished on the survivors.
  EXPECT_EQ(report.node_failures, 3u);
  EXPECT_EQ(report.workers_remaining, 2u);
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(report.tasks[i].status, TaskStatus::kOk) << "task " << i;
  }
}

TEST(FaultPlan, StragglerStretchesMakespan) {
  FarmConfig config = basic_config(2);
  FaultEvent straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.batch = 0;
  straggler.task = 1;
  straggler.factor = 5.0;
  config.faults.events.push_back(straggler);
  DaskCluster farm(ClusterSpec::testbed(2), config);
  const BatchReport report = farm.run_batch(2, constant_work(10.0));
  EXPECT_EQ(report.tasks[1].status, TaskStatus::kOk);
  EXPECT_DOUBLE_EQ(report.tasks[1].sim_minutes, 50.0);
  EXPECT_DOUBLE_EQ(report.makespan_minutes, 50.0);
}

TEST(FaultPlan, StragglerBeyondTimeoutBecomesTimeout) {
  FarmConfig config = basic_config(2);
  FaultEvent straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.batch = 0;
  straggler.task = 0;
  straggler.factor = 100.0;  // 10 min -> 1000 min >> the 2 h cap
  config.faults.events.push_back(straggler);
  DaskCluster farm(ClusterSpec::testbed(2), config);
  const BatchReport report = farm.run_batch(2, constant_work(10.0));
  EXPECT_EQ(report.tasks[0].status, TaskStatus::kTimeout);
  EXPECT_DOUBLE_EQ(report.tasks[0].sim_minutes, 120.0);
}

TEST(FaultPlan, CorruptPayloadFailsWithDistinctCause) {
  FarmConfig config = basic_config(2);
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kCorruptPayload;
  corrupt.batch = 0;
  corrupt.task = 1;
  config.faults.events.push_back(corrupt);
  DaskCluster farm(ClusterSpec::testbed(2), config);
  const BatchReport report = farm.run_batch(2, constant_work(10.0));
  EXPECT_EQ(report.tasks[1].status, TaskStatus::kTrainingError);
  EXPECT_EQ(report.tasks[1].cause, FailureCause::kPayloadCorruption);
  EXPECT_TRUE(report.tasks[1].fitness.empty());
  EXPECT_EQ(report.tasks[0].status, TaskStatus::kOk);
}

TEST(FaultPlan, SchedulerRestartDelaysTheWholeBatch) {
  FarmConfig config = basic_config(2);
  FaultEvent restart;
  restart.kind = FaultKind::kSchedulerRestart;
  restart.batch = 0;
  restart.delay_minutes = 15.0;
  config.faults.events.push_back(restart);
  DaskCluster farm(ClusterSpec::testbed(2), config);
  const BatchReport report = farm.run_batch(2, constant_work(10.0));
  EXPECT_EQ(report.scheduler_restarts, 1u);
  EXPECT_DOUBLE_EQ(report.makespan_minutes, 25.0);
  for (const auto& task : report.tasks) EXPECT_EQ(task.status, TaskStatus::kOk);
}

TEST(FaultPlan, EventsKeyOnBatchIndex) {
  FarmConfig config = basic_config(2);
  config.faults.events.push_back(kill_event(1, 0, 1));  // second batch only
  DaskCluster farm(ClusterSpec::testbed(2), config);
  const BatchReport first = farm.run_batch(2, constant_work(10.0));
  EXPECT_EQ(first.node_failures, 0u);
  const BatchReport second = farm.run_batch(2, constant_work(10.0));
  EXPECT_EQ(second.node_failures, 1u);
  EXPECT_EQ(farm.batches_run(), 2u);
}

TEST(FaultPlan, ScriptedKillsAreDeterministic) {
  FarmConfig config = basic_config(4);
  config.node_failure_probability = 0.05;
  config.seed = 11;
  config.faults.events.push_back(kill_event(0, 1, 1));
  DaskCluster a(ClusterSpec::testbed(4), config);
  DaskCluster b(ClusterSpec::testbed(4), config);
  const BatchReport ra = a.run_batch(8, constant_work(7.0));
  const BatchReport rb = b.run_batch(8, constant_work(7.0));
  ASSERT_EQ(ra.tasks.size(), rb.tasks.size());
  EXPECT_EQ(ra.node_failures, rb.node_failures);
  EXPECT_DOUBLE_EQ(ra.makespan_minutes, rb.makespan_minutes);
  for (std::size_t i = 0; i < ra.tasks.size(); ++i) {
    EXPECT_EQ(ra.tasks[i].status, rb.tasks[i].status);
    EXPECT_EQ(ra.tasks[i].attempts, rb.tasks[i].attempts);
    EXPECT_EQ(ra.tasks[i].node, rb.tasks[i].node);
  }
}

TEST(FaultPlan, SnapshotRestoreResumesTheFarmBitForBit) {
  FarmConfig config = basic_config(6);
  config.node_failure_probability = 0.15;
  config.seed = 23;
  config.faults.events.push_back(kill_event(1, 3, 1));

  // Reference: two batches straight through.
  DaskCluster reference(ClusterSpec::testbed(6), config);
  reference.run_batch(6, constant_work(9.0));
  const BatchReport want = reference.run_batch(6, constant_work(9.0));

  // Interrupted: snapshot after batch 0, restore into a fresh farm.
  DaskCluster first(ClusterSpec::testbed(6), config);
  first.run_batch(6, constant_work(9.0));
  const FarmSnapshot snapshot = first.snapshot();

  DaskCluster resumed(ClusterSpec::testbed(6), config);
  resumed.restore(snapshot);
  EXPECT_EQ(resumed.batches_run(), 1u);
  EXPECT_DOUBLE_EQ(resumed.clock_minutes(), first.clock_minutes());
  const BatchReport got = resumed.run_batch(6, constant_work(9.0));

  EXPECT_EQ(got.node_failures, want.node_failures);
  EXPECT_DOUBLE_EQ(got.makespan_minutes, want.makespan_minutes);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t i = 0; i < got.tasks.size(); ++i) {
    EXPECT_EQ(got.tasks[i].status, want.tasks[i].status) << "task " << i;
    EXPECT_EQ(got.tasks[i].node, want.tasks[i].node) << "task " << i;
    EXPECT_DOUBLE_EQ(got.tasks[i].sim_minutes, want.tasks[i].sim_minutes);
  }
  EXPECT_DOUBLE_EQ(resumed.clock_minutes(), reference.clock_minutes());
}

TEST(FaultPlan, RestoreRejectsMismatchedNodeCount) {
  DaskCluster big(ClusterSpec::testbed(4), basic_config(4));
  DaskCluster small(ClusterSpec::testbed(2), basic_config(2));
  EXPECT_THROW(small.restore(big.snapshot()), util::ValueError);
}

TEST(FaultPlan, FailureCauseStrings) {
  EXPECT_EQ(to_string(FailureCause::kNone), "none");
  EXPECT_EQ(to_string(FailureCause::kHungProcess), "hung_process");
  EXPECT_EQ(to_string(FailureCause::kMissingArtifact), "missing_artifact");
  EXPECT_EQ(to_string(FailureCause::kCorruptArtifact), "corrupt_artifact");
  EXPECT_EQ(to_string(FailureCause::kNonFiniteFitness), "nonfinite_fitness");
  EXPECT_EQ(to_string(FailureCause::kNodeLoss), "node_loss");
  EXPECT_EQ(to_string(FailureCause::kPayloadCorruption), "payload_corruption");
}

TEST(FaultPlanIo, JsonRoundTripPreservesEveryEvent) {
  FaultPlan plan;
  plan.events.push_back(kill_event(0, 4, 2));
  FaultEvent straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.batch = 1;
  straggler.task = 7;
  straggler.factor = 3.5;
  plan.events.push_back(straggler);
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kCorruptPayload;
  corrupt.batch = 2;
  corrupt.task = 9;
  plan.events.push_back(corrupt);
  FaultEvent restart;
  restart.kind = FaultKind::kSchedulerRestart;
  restart.batch = 3;
  restart.delay_minutes = 17.0;
  plan.events.push_back(restart);

  const FaultPlan back = fault_plan_from_json(fault_plan_to_json(plan));
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(back.events[i].batch, plan.events[i].batch);
    EXPECT_EQ(back.events[i].task, plan.events[i].task);
    EXPECT_EQ(back.events[i].attempt, plan.events[i].attempt);
    EXPECT_DOUBLE_EQ(back.events[i].factor, plan.events[i].factor);
    EXPECT_DOUBLE_EQ(back.events[i].delay_minutes, plan.events[i].delay_minutes);
  }
}

TEST(FaultPlanIo, LoadsFromFileAndRejectsUnknownKind) {
  util::TempDir dir("faultplan-io");
  const auto path = dir.path() / "plan.json";
  util::write_file(path,
                   "{\"events\": [{\"kind\": \"kill_worker\", \"batch\": 1,"
                   " \"task\": 2, \"attempt\": 3}]}");
  const FaultPlan plan = load_fault_plan(path);
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kKillWorker);
  EXPECT_EQ(plan.events[0].batch, 1u);
  EXPECT_EQ(plan.events[0].task, 2u);
  EXPECT_EQ(plan.events[0].attempt, 3u);

  util::write_file(path, "{\"events\": [{\"kind\": \"meteor_strike\"}]}");
  EXPECT_THROW(load_fault_plan(path), util::ParseError);
}

TEST(FaultPlanIo, CountsMustBeNonNegativeIntegersAndErrorsNameEventAndField) {
  // A wrapped -1 is an event that never fires and 1e30 an undefined cast;
  // both must be typed errors that name the event and the field.
  for (const std::string field : {"batch", "task", "attempt"}) {
    for (const char* bad : {"-1", "1e30", "2.5"}) {
      const std::string text = "{\"events\": [{\"kind\": \"kill_worker\","
                               " \"batch\": 0}, {\"kind\": \"kill_worker\","
                               " \"batch\": 1, \"" + field + "\": " + bad + "}]}";
      try {
        fault_plan_from_json(util::Json::parse(text));
        ADD_FAILURE() << field << " = " << bad << " loaded";
      } catch (const util::ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fault plan event 1"), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
      }
    }
  }
  EXPECT_THROW(fault_plan_from_json(util::Json::parse(
                   "{\"events\": [{\"kind\": \"kill_worker\", \"batch\": 0,"
                   " \"attempt\": 0}]}")),
               util::ParseError);
}

}  // namespace
}  // namespace dpho::hpc
