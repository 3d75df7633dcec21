// The multi-tenant Scheduler, in process on the simulated pool: two runs
// sharing one pool finish with the SAME archives as their single-tenant
// equivalents, cancel touches only its tenant, the refusal paths carry typed
// error codes, and a destroyed scheduler resumes every interrupted run from
// its state dir with the archives still matching.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codec_fuzz.hpp"
#include "core/driver.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dpho::sched {
namespace {

RunSpec quick_spec(const std::string& name, std::uint64_t seed,
                   std::size_t weight = 1) {
  RunSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.population_size = 6;
  spec.num_workers = 3;
  spec.total_evaluations = 18;
  spec.weight = weight;
  return spec;
}

SchedulerOptions options_in(const std::filesystem::path& dir) {
  SchedulerOptions options;
  options.state_dir = dir;
  options.pool_workers = 3;
  return options;
}

/// Steps until every run reached a terminal phase; bounded so a wedged
/// scheduler fails instead of hanging.
void drive(Scheduler& scheduler) {
  for (int round = 0; round < 200000 && !scheduler.idle(); ++round) {
    scheduler.step(0.0);
  }
  ASSERT_TRUE(scheduler.idle()) << "scheduler failed to drain";
}

/// Steps until the named runs hold at least `target` completions combined,
/// leaving them active (partial progress for the restart tests).
void step_until_completions(Scheduler& scheduler,
                            const std::vector<std::string>& names,
                            std::size_t target) {
  for (int round = 0; round < 200000; ++round) {
    std::size_t total = 0;
    for (const std::string& name : names) {
      total += scheduler.status(name).completions;
    }
    if (total >= target) return;
    ASSERT_FALSE(scheduler.idle()) << "runs finished before reaching " << target;
    scheduler.step(0.0);
  }
  FAIL() << "never reached " << target << " completions";
}

std::vector<core::EvalRecord> evaluations_of(const util::Json& result) {
  const std::vector<core::RunRecord> runs = core::runs_from_json(result);
  EXPECT_EQ(runs.size(), 1u);
  return runs.front().all_evaluations();
}

/// The determinism contract: who was evaluated, with what fitness, in which
/// generation -- equal; wall-clock and attempt counts may differ.
void expect_same_evaluations(const util::Json& a, const util::Json& b) {
  const std::vector<core::EvalRecord> lhs = evaluations_of(a);
  const std::vector<core::EvalRecord> rhs = evaluations_of(b);
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].uuid, rhs[i].uuid) << i;
    EXPECT_EQ(lhs[i].fitness, rhs[i].fitness) << i;
    EXPECT_EQ(lhs[i].status, rhs[i].status) << i;
    EXPECT_EQ(lhs[i].generation, rhs[i].generation) << i;
  }
}

/// Runs one spec alone on its own scheduler (same mux path, private pool)
/// and returns the result JSON -- the baseline the shared runs must match.
util::Json solo_result(const core::Evaluator& evaluator, const RunSpec& spec) {
  util::TempDir dir("sched-solo");
  Scheduler scheduler(options_in(dir.path()), evaluator);
  scheduler.submit(spec);
  drive(scheduler);
  return scheduler.result(spec.name);
}

ErrorCode code_of(const std::function<void()>& action) {
  try {
    action();
  } catch (const SchedError& error) {
    return error.code();
  }
  ADD_FAILURE() << "expected a SchedError";
  return ErrorCode::kInternal;
}

bool timeline_has(const std::filesystem::path& path, const std::string& kind) {
  for (const util::Json& event : obs::load_timeline(path)) {
    if (event.at("kind").as_string() == kind) return true;
  }
  return false;
}

TEST(Scheduler, TwoTenantsMatchTheirSoloEquivalents) {
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  util::TempDir dir("sched-pair");
  Scheduler scheduler(options_in(dir.path()), *evaluator);
  const RunSpec a = quick_spec("tenant-a", 5, /*weight=*/1);
  const RunSpec b = quick_spec("tenant-b", 9, /*weight=*/2);
  scheduler.submit(a);
  scheduler.submit(b);
  EXPECT_EQ(scheduler.active_runs(), 2u);
  drive(scheduler);

  EXPECT_EQ(scheduler.status("tenant-a").phase, RunPhase::kDone);
  EXPECT_EQ(scheduler.status("tenant-b").phase, RunPhase::kDone);
  EXPECT_EQ(scheduler.status("tenant-a").completions, 18u);
  EXPECT_EQ(scheduler.status("tenant-b").completions, 18u);

  // Sharing the pool must not have changed either run's trajectory.
  expect_same_evaluations(scheduler.result("tenant-a"),
                          solo_result(*evaluator, a));
  expect_same_evaluations(scheduler.result("tenant-b"),
                          solo_result(*evaluator, b));

  // Both tenants kept their own JSONL timeline.
  for (const std::string name : {"tenant-a", "tenant-b"}) {
    const std::filesystem::path timeline =
        dir.path() / "runs" / name / "timeline.jsonl";
    EXPECT_TRUE(timeline_has(timeline, "sched.run_submit")) << name;
    EXPECT_TRUE(timeline_has(timeline, "sched.run_done")) << name;
  }
}

TEST(Scheduler, RefusalsCarryTypedCodes) {
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  util::TempDir dir("sched-errors");
  SchedulerOptions options = options_in(dir.path());
  options.max_runs = 1;
  Scheduler scheduler(options, *evaluator);
  scheduler.submit(quick_spec("only", 1));

  EXPECT_EQ(code_of([&] { scheduler.submit(quick_spec("only", 2)); }),
            ErrorCode::kDuplicateRun);
  EXPECT_EQ(code_of([&] { scheduler.submit(quick_spec("second", 2)); }),
            ErrorCode::kTooManyRuns);
  EXPECT_EQ(code_of([&] { scheduler.status("ghost"); }),
            ErrorCode::kUnknownRun);
  EXPECT_EQ(code_of([&] { scheduler.cancel("ghost"); }),
            ErrorCode::kUnknownRun);
  EXPECT_EQ(code_of([&] { (void)scheduler.result("only"); }),
            ErrorCode::kNotFinished);
  EXPECT_THROW(scheduler.submit(quick_spec("bad name!", 3)), util::ValueError);

  drive(scheduler);
  // The cap counts ACTIVE runs: once "only" finished, a new tenant fits.
  scheduler.submit(quick_spec("second", 2));
  drive(scheduler);
  EXPECT_EQ(scheduler.known_runs(), 2u);
}

TEST(Scheduler, CancelLeavesTheOtherTenantUntouched) {
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  util::TempDir dir("sched-cancel");
  Scheduler scheduler(options_in(dir.path()), *evaluator);
  const RunSpec keep = quick_spec("keep", 5);
  scheduler.submit(quick_spec("doomed", 11));
  scheduler.submit(keep);
  step_until_completions(scheduler, {"doomed", "keep"}, 4);

  const RunStatus cancelled = scheduler.cancel("doomed");
  EXPECT_EQ(cancelled.phase, RunPhase::kCancelled);
  EXPECT_EQ(scheduler.active_runs(), 1u);
  // Cancelling twice (or cancelling a terminal run) is a bad request, and
  // a cancelled run has no result.
  EXPECT_EQ(code_of([&] { scheduler.cancel("doomed"); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(code_of([&] { (void)scheduler.result("doomed"); }),
            ErrorCode::kNotFinished);

  drive(scheduler);
  expect_same_evaluations(scheduler.result("keep"),
                          solo_result(*evaluator, keep));
  EXPECT_TRUE(timeline_has(dir.path() / "runs" / "doomed" / "timeline.jsonl",
                           "sched.run_cancel"));
  // list() keeps submission order and shows both phases.
  const std::vector<RunStatus> all = scheduler.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "doomed");
  EXPECT_EQ(all[0].phase, RunPhase::kCancelled);
  EXPECT_EQ(all[1].name, "keep");
  EXPECT_EQ(all[1].phase, RunPhase::kDone);
}

TEST(Scheduler, RestartResumesEveryInterruptedRun) {
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  util::TempDir dir("sched-restart");
  const RunSpec a = quick_spec("tenant-a", 5);
  const RunSpec b = quick_spec("tenant-b", 9, /*weight=*/2);
  {
    Scheduler scheduler(options_in(dir.path()), *evaluator);
    scheduler.submit(a);
    scheduler.submit(b);
    step_until_completions(scheduler, {"tenant-a", "tenant-b"}, 6);
    // Destroyed mid-flight: in-flight work is lost, checkpoints survive.
  }
  Scheduler scheduler(options_in(dir.path()), *evaluator);
  EXPECT_EQ(scheduler.resume_all(), 2u);
  EXPECT_EQ(scheduler.active_runs(), 2u);
  drive(scheduler);

  expect_same_evaluations(scheduler.result("tenant-a"),
                          solo_result(*evaluator, a));
  expect_same_evaluations(scheduler.result("tenant-b"),
                          solo_result(*evaluator, b));
  for (const std::string name : {"tenant-a", "tenant-b"}) {
    EXPECT_TRUE(timeline_has(dir.path() / "runs" / name / "timeline.jsonl",
                             "sched.run_resume"))
        << name;
  }
}

TEST(Scheduler, SpecFileIntegerFieldsFailLoudlyOnRestart) {
  // resume_all re-registers a cancelled run from its spec.json alone; every
  // integer there goes through Json::as_uint, so -1, 1e30 and 2.5 are typed
  // errors, not wrapped or undefined casts.
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  util::TempDir dir("sched-spec-fuzz");
  {
    Scheduler scheduler(options_in(dir.path()), *evaluator);
    scheduler.submit(quick_spec("axed", 7));
    scheduler.cancel("axed");
    drive(scheduler);
  }
  const std::filesystem::path spec_path = dir.path() / "runs" / "axed" / "spec.json";
  const auto restart = [&](const util::Json& submission) {
    util::write_file(spec_path, submission.dump());
    Scheduler scheduler(options_in(dir.path()), *evaluator);
    return scheduler.resume_all();
  };
  test_support::fuzz_integer_fields(
      util::Json::parse(util::read_file(spec_path)),
      {{"order"},
       {"spec", "population_size"},
       {"spec", "num_workers"},
       {"spec", "total_evaluations"},
       {"spec", "weight"},
       {"spec", "max_in_flight"},
       {"spec", "checkpoint_every"}},
      restart);
}

TEST(Scheduler, RestartReRegistersTerminalRunsWithoutResuming) {
  const auto evaluator = core::make_evaluator(core::EvalBackendConfig{});
  util::TempDir dir("sched-terminal");
  const RunSpec done = quick_spec("done", 5);
  {
    Scheduler scheduler(options_in(dir.path()), *evaluator);
    scheduler.submit(done);
    scheduler.submit(quick_spec("axed", 7));
    scheduler.cancel("axed");
    drive(scheduler);
  }
  Scheduler scheduler(options_in(dir.path()), *evaluator);
  // Nothing to resume, but both runs stay known: status and result answer,
  // and their names stay burned.
  EXPECT_EQ(scheduler.resume_all(), 0u);
  EXPECT_EQ(scheduler.known_runs(), 2u);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.status("done").phase, RunPhase::kDone);
  EXPECT_EQ(scheduler.status("done").completions, 18u);
  EXPECT_EQ(scheduler.status("axed").phase, RunPhase::kCancelled);
  EXPECT_EQ(evaluations_of(scheduler.result("done")).size(), 18u);
  EXPECT_EQ(code_of([&] { scheduler.submit(quick_spec("done", 1)); }),
            ErrorCode::kDuplicateRun);
  EXPECT_EQ(code_of([&] { (void)scheduler.result("axed"); }),
            ErrorCode::kNotFinished);
}

}  // namespace
}  // namespace dpho::sched
