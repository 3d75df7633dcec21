// Self-tests of the benchmark's own logic: the tail-percentile rule, the
// rejection/failure classifier, the FLOP formula, and every output check
// failing on a tampered input.  Run with `perfbench --self-test` (or
// `python3 perfbench/run.py --self-test`).
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>

#include "bench.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

using dpho::core::EvalRecord;
using dpho::ea::EvalStatus;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  failures += ok ? 0 : 1;
}

void test_tail_rule() {
  expect(!tail_quantile_level(19), "19 samples: no percentile has 10 beyond it");
  expect(tail_quantile_level(20) == 0.5, "20 samples: p50");
  expect(tail_quantile_level(39) == 0.5, "39 samples: p50");
  expect(tail_quantile_level(40) == 0.75, "40 samples: p75");
  expect(tail_quantile_level(199) == 0.9, "199 samples: p90");
  expect(tail_quantile_level(200) == 0.95, "200 samples: p95");
  expect(tail_quantile_level(999) == 0.95, "999 samples: p95");
  expect(tail_quantile_level(1000) == 0.99, "1000 samples: p99");

  Result forty;
  std::vector<double> samples;
  for (int i = 1; i <= 40; ++i) samples.push_back(i);
  report_latency(forty, samples);
  expect(forty.meta.at("latency_samples").as_int() == 40 &&
             forty.meta.at("latency_tail_percentile").as_number() == 75.0 &&
             forty.end_to_end.at("latency_tail_ms").value == 30.25 &&
             forty.end_to_end.at("latency_p50_ms").value == 20.5,
         "40 samples report p50 20.5, p75 30.25 and the sample count");
  Result four;
  report_latency(four, {4.0, 1.0, 3.0, 2.0});
  expect(four.meta.at("latency_tail_percentile").as_number() == 100.0 &&
             four.end_to_end.at("latency_tail_ms").value == 4.0,
         "4 samples report the largest as the tail");
}

EvalRecord record(EvalStatus status, const std::string& cause, std::size_t attempts,
                  double rcut = 7.0) {
  EvalRecord eval;
  eval.genome = {1e-3, 1e-5, rcut, 3.0, 0.5, 0.5, 0.5};
  eval.fitness = status == EvalStatus::kOk ? std::vector<double>{0.01, 0.2}
                                           : std::vector<double>{2147483647.0, 2147483647.0};
  eval.status = status;
  eval.failure_cause = cause;
  eval.attempts = attempts;
  eval.uuid = "00000000-0000-4000-8000-000000000000";
  return eval;
}

void test_classifier() {
  expect(classify(record(EvalStatus::kOk, "none", 1)) == EvalClass::kAccepted,
         "ok on the first attempt is accepted");
  expect(classify(record(EvalStatus::kTrainingError, "nonzero_exit", 1)) ==
             EvalClass::kRejected,
         "dp_train non-zero exit is a rejection");
  expect(classify(record(EvalStatus::kTrainingError, "non_finite_fitness", 1)) ==
             EvalClass::kRejected,
         "non-finite losses are a rejection");
  expect(classify(record(EvalStatus::kOk, "none", 2)) == EvalClass::kSystemFailure,
         "a retried success is a system failure");
  expect(classify(record(EvalStatus::kTrainingError, "nonzero_exit", 2)) ==
             EvalClass::kSystemFailure,
         "a re-dispatched rejection is a system failure");
  expect(classify(record(EvalStatus::kTrainingError, "hung_process", 1)) ==
             EvalClass::kSystemFailure,
         "a hung training is a system failure");
  expect(classify(record(EvalStatus::kTimeout, "wall_limit", 1)) ==
             EvalClass::kSystemFailure,
         "a timeout is a system failure");
  expect(classify(record(EvalStatus::kNodeFailure, "node_loss", 1)) ==
             EvalClass::kSystemFailure,
         "a lost node is a system failure");
}

void test_flop_formula() {
  // One-layer nets: embedding 1 -> 2, m2 = 1, fitting 2 -> 3 -> 1.
  dpho::dp::ModelSpec spec;
  spec.descriptor.neuron = {2};
  spec.descriptor.axis_neuron = 1;
  spec.fitting.neuron = {3};
  // Hand count for 5 directed pairs and 2 atoms, in multiply-adds:
  //   per pair: embedding 1*2 = 2, T accumulation 4*m1 = 8        -> 10
  //   per atom: fitting 2*3 + 3*1 = 9, D = T^T T_< 4*m1*m2 = 8   -> 17
  //   5 * 10 + 2 * 17 = 84
  expect(primal_multiply_adds(spec, 5.0, 2.0) == 84.0, "primal multiply-adds = 84");
  expect(md_step_flops(spec, 5.0, 2.0) == 336.0, "MD step FLOPs = 2 passes * 2 * 84");
  expect(grad_frame_flops(spec, 5.0, 2.0) == 1008.0, "gradient frame FLOPs = 6 * 2 * 84");
}

void test_campaign_check() {
  const double box = 17.84;
  const std::vector<EvalRecord> clean = {
      record(EvalStatus::kOk, "none", 1, 7.0),
      record(EvalStatus::kTrainingError, "nonzero_exit", 1, 9.5)};
  expect(check_campaign(clean, box, {false, false}).empty(), "a clean campaign passes");

  std::vector<EvalRecord> retried = clean;
  retried[0].attempts = 2;
  expect(!check_campaign(retried, box, {false, false}).empty(),
         "a retried evaluation fails the campaign check");

  std::vector<EvalRecord> bad_reject = clean;
  bad_reject[1].genome[2] = 7.5;
  expect(!check_campaign(bad_reject, box, {false, false}).empty(),
         "a rejection inside half the box without divergence fails");
  expect(check_campaign(bad_reject, box, {false, true}).empty(),
         "a rejection whose log reports divergence passes");

  std::vector<EvalRecord> nan_fitness = clean;
  nan_fitness[0].fitness[1] = std::numeric_limits<double>::quiet_NaN();
  expect(!check_campaign(nan_fitness, box, {false, false}).empty(),
         "a non-finite accepted RMSE fails");
}

void test_md_check() {
  MdTrace trace;
  trace.total_energy = {-100.0, -100.01, -100.02};
  trace.atoms = 100;
  trace.steps = 2;
  trace.rebuilds = 1;
  expect(check_md(trace, 1e-3).empty(), "a finite, conserving trajectory passes");
  MdTrace bad_force = trace;
  bad_force.forces_finite = false;
  expect(!check_md(bad_force, 1e-3).empty(), "a non-finite force fails");
  MdTrace bad_energy = trace;
  bad_energy.total_energy[1] = std::numeric_limits<double>::infinity();
  expect(!check_md(bad_energy, 1e-3).empty(), "a non-finite energy fails");
  MdTrace drifting = trace;
  drifting.total_energy.back() = -99.0;
  expect(!check_md(drifting, 1e-3).empty(), "drift above the bound fails");
  MdTrace rebuild_every_step = trace;
  rebuild_every_step.rebuilds = 2;
  expect(!check_md(rebuild_every_step, 1e-3).empty(), "rebuilds == steps fails");
}

void test_reply_check() {
  const DirectEval frame{-42.5, {0.1, -0.2, 0.3, 1e-17, 2.0, -3.5}};
  dpho::serve::EvalReply reply;
  reply.id = 7;
  reply.model = "m";
  reply.energies = {frame.energy};
  reply.forces = {frame.forces};
  const std::string good = dpho::serve::encode_eval_reply(reply).dump();
  expect(check_reply(good, 7, {&frame}).empty(), "an exact reply passes");

  dpho::serve::EvalReply flipped = reply;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &flipped.forces[0][3], sizeof bits);
  bits ^= 1;
  std::memcpy(&flipped.forces[0][3], &bits, sizeof bits);
  expect(!check_reply(dpho::serve::encode_eval_reply(flipped).dump(), 7, {&frame}).empty(),
         "a reply with one flipped force bit fails");
  expect(!check_reply(good, 8, {&frame}).empty(), "a reply to another id fails");
  const std::string error = dpho::serve::encode_error(
      {7, dpho::serve::ErrorCode::kOverloaded, "busy"}).dump();
  expect(!check_reply(error, 7, {&frame}).empty(), "an error reply fails");
}

}  // namespace

int run_self_tests() {
  test_tail_rule();
  test_classifier();
  test_flop_formula();
  test_campaign_check();
  test_md_check();
  test_reply_check();
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
