// Figure 1: energy-vs-force loss level plots per generation, aggregated over
// the five independent EA runs (generations 0..6, 3500 trainings total).
// Prints per-generation distribution summaries, a character-art level plot
// per generation, outlier counts (the culled gen-0 points), and the failed-
// training accounting discussed in section 3.1/3.2.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

using namespace dpho;

void print_fig1() {
  bench::print_header(
      "Figure 1", "energy vs force losses per generation, 5 runs x 100 individuals");
  const auto runs = bench::run_paper_experiment();

  std::size_t total_evaluations = 0;
  for (const auto& run : runs) {
    for (const auto& gen : run.generations) total_evaluations += gen.evaluated.size();
  }
  std::printf("total DeePMD trainings: %zu (paper: 3500 over seven generations)\n\n",
              total_evaluations);

  std::printf("gen |   n  fail | force loss (eV/A)            | energy loss (eV/atom)"
              "        | outliers\n");
  std::printf("    |           |   min    q25    med    q75   |    min     med     q75"
              "      | F>0.6 E>0.03\n");
  std::printf("----+-----------+-------------------------------+----------------------"
              "--------+-------------\n");
  for (int gen = 0; gen <= 6; ++gen) {
    const auto records = core::generation_solutions(runs, gen);
    const auto ok = core::successful(records);
    std::vector<double> force, energy;
    std::size_t outlier_f = 0, outlier_e = 0;
    for (const auto& r : ok) {
      energy.push_back(r.fitness[0]);
      force.push_back(r.fitness[1]);
      if (r.fitness[1] > 0.6) ++outlier_f;
      if (r.fitness[0] > 0.03) ++outlier_e;
    }
    const auto fs = util::summarize(force);
    const auto es = util::summarize(energy);
    std::printf("%3d | %4zu %4zu | %6.4f %6.4f %6.4f %6.4f | %8.5f %8.5f %8.5f | %5zu %5zu\n",
                gen, records.size(), records.size() - ok.size(), fs.min, fs.q25,
                fs.median, fs.q75, es.min, es.median, es.q75, outlier_f, outlier_e);
  }

  // Level plots: density of (force, energy) points per generation, in the
  // paper's cropped axes window (force < 0.6 eV/A, energy < 0.03 eV/atom).
  for (int gen : {0, 1, 3, 6}) {
    util::Histogram2d hist(0.0, 0.20, 56, 0.0, 0.012, 14);
    for (const auto& r : core::successful(core::generation_solutions(runs, gen))) {
      hist.add(r.fitness[1], r.fitness[0]);
    }
    std::printf("\ngeneration %d level plot (x: force 0..0.2 eV/A, y: energy 0..0.012"
                " eV/atom; %zu points outside window)\n",
                gen, hist.overflow());
    std::fputs(hist.render().c_str(), stdout);
  }

  // Failure accounting (section 3.2: 25 failed trainings across all jobs,
  // none in the last generation).
  std::size_t total_failures = 0, last_gen_failures = 0;
  for (const auto& run : runs) {
    for (const auto& gen : run.generations) {
      total_failures += gen.failures;
      if (gen.generation == 6) last_gen_failures += gen.failures;
    }
  }
  std::printf("\nfailed trainings: %zu total (paper: 25), %zu in the final generation"
              " (paper: 0)\n",
              total_failures, last_gen_failures);

  // Generation wall-clock (the implicit runtime objective).
  std::printf("per-generation makespans, run seed 1 (minutes): ");
  for (const auto& gen : runs.front().generations) {
    std::printf("%.0f ", gen.makespan_minutes);
  }
  std::printf("\n(job total %.0f min of the 720-minute allocation)\n",
              runs.front().job_minutes);
}

void BM_OneGeneration(benchmark::State& state) {
  const auto evaluator_ptr = core::make_evaluator(core::EvalBackendConfig{});
  const core::Evaluator& evaluator = *evaluator_ptr;
  core::EngineConfig config;
  config.population_size = static_cast<std::size_t>(state.range(0));
  config.generations = 1;
  config.farm.real_threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EvolutionEngine(config, evaluator).run(1));
  }
}
BENCHMARK(BM_OneGeneration)->Arg(25)->Arg(100)->Arg(400);

void BM_FullRun100x7(benchmark::State& state) {
  const auto evaluator_ptr = core::make_evaluator(core::EvalBackendConfig{});
  const core::Evaluator& evaluator = *evaluator_ptr;
  core::EngineConfig config;
  config.population_size = 100;
  config.generations = 6;
  config.farm.real_threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EvolutionEngine(config, evaluator).run(1));
  }
}
BENCHMARK(BM_FullRun100x7);

}  // namespace

int main(int argc, char** argv) {
  print_fig1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
