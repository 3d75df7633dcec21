// Deploying the trained potential: run molecular dynamics ON the neural
// network, the end-use the paper's introduction motivates ("quantum
// mechanical accuracy at speedups of 10000x").  At laptop scale the
// reference potential is classical (not DFT), so the speed relation inverts;
// the accuracy/stability story is what carries over: the trained model's
// forces are exact gradients of a smooth learned surface, so NVE dynamics on
// it conserves energy.
//
// Usage: ./examples/md_with_nnp [train_steps] [md_steps]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "dp/md_session.hpp"
#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "md/integrator.hpp"
#include "md/simulation.hpp"

int main(int argc, char** argv) {
  using namespace dpho;
  const std::size_t train_steps = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300;
  const std::size_t md_steps = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;

  std::printf("== 1. reference data ==\n");
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(2);  // 20 atoms
  sim.num_frames = 40;
  sim.equilibration_steps = 250;
  sim.sample_interval = 3;
  sim.seed = 9;
  const md::LabelledData data = md::generate_reference_data(sim, 0.25);

  std::printf("== 2. train the potential (%zu steps) ==\n", train_steps);
  dp::TrainInput config;
  config.descriptor.rcut = 4.0;
  config.descriptor.rcut_smth = 2.0;
  config.descriptor.neuron = {8, 16};
  config.descriptor.axis_neuron = 4;
  config.descriptor.sel = 32;
  config.fitting.neuron = {32, 32};
  config.learning_rate.start_lr = 0.005;
  config.learning_rate.stop_lr = 0.001;
  config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
  config.training.numb_steps = train_steps;
  config.training.disp_freq = std::max<std::size_t>(train_steps / 4, 1);
  dp::Trainer trainer(config, data.train, data.validation);
  const dp::TrainResult train_result = trainer.train();
  std::printf("   rmse_e = %.4f eV/atom, rmse_f = %.4f eV/A\n",
              train_result.rmse_e_val, train_result.rmse_f_val);

  std::printf("== 3. NVE molecular dynamics ON the network (%zu steps of"
              " 0.5 fs) ==\n",
              md_steps);
  util::Rng rng(13);
  md::SystemState state = sim.spec.create_initial_state(150.0, rng);
  state.positions = data.validation.frame(0).positions;  // equilibrated start
  // A session keeps the neighbor skeleton and kernel workspace across steps;
  // `forces` holds the forces at the current positions between steps.
  const auto session = dp::Potential::borrow(trainer.model()).make_md_session();
  const md::VelocityVerlet integrator(0.5);  // fs
  std::vector<md::Vec3> forces(state.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> energies{session->compute(state, forces) +
                               md::kinetic_energy(state)};
  for (std::size_t step = 0; step < md_steps; ++step) {
    energies.push_back(integrator.step(state, *session, forces) +
                       md::kinetic_energy(state));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  double max_drift = 0.0;
  for (double e : energies) max_drift = std::max(max_drift, std::abs(e - energies[0]));
  std::printf("   initial total energy %.4f eV, max drift %.4f eV over %.1f fs\n",
              energies.front(), max_drift, 0.5 * static_cast<double>(md_steps));
  std::printf("   final temperature %.0f K; %.1f ms per NNP-MD step\n",
              md::kinetic_temperature(state),
              1000.0 * seconds / static_cast<double>(md_steps));
  std::printf("\n(on Summit this inverts: the trained network is ~10000x cheaper\n"
              "than the DFT it reproduces -- here the reference is classical,\n"
              "so the network is the expensive one; the stability carries over.)\n");
  return 0;
}
