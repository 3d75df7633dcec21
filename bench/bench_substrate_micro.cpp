// Substrate micro-benchmarks: the kernels a real (non-surrogate) evaluation
// spends its time in -- MD stepping for data generation, the DeepPot-SE
// descriptor/energy (plain-double reference), analytic energy + forces, and
// one full training step on the tape oracle.  These
// support the paper's framing that the per-individual training dominates the
// workflow cost (everything around it is negligible).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "dp/loss.hpp"
#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "md/simulation.hpp"
#include "nn/optimizer.hpp"
#include "tape_oracle.hpp"

namespace {

using namespace dpho;

struct Fixture {
  md::LabelledData data;
  dp::TrainInput config;

  static const Fixture& instance() {
    static const Fixture kFixture = [] {
      Fixture f;
      md::SimulationConfig sim;
      sim.spec = md::SystemSpec::scaled_system(2);  // 20 atoms
      sim.num_frames = 8;
      sim.equilibration_steps = 150;
      sim.seed = 12;
      f.data = md::generate_reference_data(sim, 0.25);
      f.config.descriptor.rcut = 4.0;
      f.config.descriptor.rcut_smth = 2.0;
      f.config.descriptor.neuron = {8, 16};
      f.config.descriptor.axis_neuron = 4;
      f.config.descriptor.sel = 32;
      f.config.fitting.neuron = {32, 32};
      f.config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
      f.config.training.numb_steps = 4;
      return f;
    }();
    return kFixture;
  }
};

void print_context() {
  bench::print_header("Substrate micro-benchmarks",
                      "MD stepping, descriptor, analytic forces, tape training step");
  const auto& f = Fixture::instance();
  std::printf("system: %zu atoms, box %.2f A; model: embed {8,16} M2=4,"
              " fit {32,32}\n",
              f.data.train.types().size(), f.data.train.frame(0).box_length);
}

void BM_MdStep160Atoms(benchmark::State& state) {
  util::Rng rng(3);
  const md::SystemSpec spec = md::SystemSpec::paper_system();
  md::SystemState md_state = spec.create_initial_state(498.0, rng);
  const md::ReferencePotential potential(8.5);
  const md::VelocityVerlet integrator(1.0);
  const md::ForceProvider provider = [&](const md::SystemState& s) {
    return potential.compute(s);
  };
  md::ForceEnergy current = provider(md_state);
  for (auto _ : state) {
    current = integrator.step(md_state, provider, current);
  }
}
BENCHMARK(BM_MdStep160Atoms);

void BM_NeighborList160Atoms(benchmark::State& state) {
  util::Rng rng(4);
  const md::SystemSpec spec = md::SystemSpec::paper_system();
  const md::SystemState md_state = spec.create_initial_state(498.0, rng);
  const md::Box box(md_state.box_length);
  for (auto _ : state) {
    benchmark::DoNotOptimize(md::NeighborList(box, md_state.positions, 8.5));
  }
}
BENCHMARK(BM_NeighborList160Atoms);

void BM_ModelEnergyDoublePath(benchmark::State& state) {
  const auto& f = Fixture::instance();
  const dp::DeepPotModel model(f.config, f.data.train.types(),
                               f.data.train.mean_energy_per_atom(), 5);
  const md::Frame& frame = f.data.train.frame(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::energy(model, frame));
  }
}
BENCHMARK(BM_ModelEnergyDoublePath);

void BM_PotentialEvaluate(benchmark::State& state) {
  const auto& f = Fixture::instance();
  const dp::Potential potential(dp::DeepPotModel(
      f.config, f.data.train.types(), f.data.train.mean_energy_per_atom(), 5));
  const md::Frame& frame = f.data.train.frame(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(potential.evaluate(frame));
  }
}
BENCHMARK(BM_PotentialEvaluate);

void BM_FullTrainingStep(benchmark::State& state) {
  // One Adam step on the tape oracle, including the double-backprop through
  // the force loss.
  const auto& f = Fixture::instance();
  dp::DeepPotModel model(f.config, f.data.train.types(),
                         f.data.train.mean_energy_per_atom(), 5);
  const md::Frame& frame = f.data.train.frame(0);
  const nn::ExponentialDecay schedule(0.001, 1e-4, 1000);
  const dp::DeepmdLoss loss(dp::LossConfig{}, schedule);
  const dp::LossWeights weights = loss.weights_at(0);
  std::vector<double> params = model.gather_params();
  nn::Adam adam(params.size());
  ad::Tape tape(1 << 20);
  for (auto _ : state) {
    tape.reset();
    const oracle::TapeGraph graph = oracle::build_graph(tape, model, frame);
    const ad::Var frame_loss = oracle::loss(tape, graph.energy, frame.energy,
                                            graph.forces, frame.forces,
                                            frame.positions.size(), weights);
    const auto grads = tape.gradient(frame_loss, graph.params);
    std::vector<double> grad(params.size());
    for (std::size_t p = 0; p < grad.size(); ++p) grad[p] = grads[p].value();
    adam.step(params, grad, 1e-3);
    model.scatter_params(params);
  }
}
BENCHMARK(BM_FullTrainingStep);

void BM_SurrogateEvaluation(benchmark::State& state) {
  const core::TrainingSurrogate surrogate;
  core::HyperParams hp;
  hp.start_lr = 0.0047;
  hp.stop_lr = 1e-4;
  hp.rcut = 10.5;
  hp.rcut_smth = 2.4;
  hp.scale_by_worker = nn::LrScaling::kNone;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(surrogate.evaluate(hp, ++seed));
  }
}
BENCHMARK(BM_SurrogateEvaluation);

}  // namespace

int main(int argc, char** argv) {
  print_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
