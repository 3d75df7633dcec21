// Quickstart: the full pipeline in one file, at laptop scale.
//
//   1. Generate reference data: classical MD of a small molten AlCl3-KCl
//      system (the stand-in for the paper's CP2K DFT trajectory).
//   2. Train a DeepPot-SE neural-network potential on energies AND forces
//      with the DeePMD loss schedule.
//   3. Inspect the learning curve and use the trained potential to predict
//      energy/forces for a held-out configuration.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "dp/potential.hpp"
#include "dp/trainer.hpp"
#include "md/simulation.hpp"

int main() {
  using namespace dpho;

  // --- 1. reference data -------------------------------------------------
  std::printf("== generating reference data (molten AlCl3-KCl, 20 atoms) ==\n");
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::scaled_system(2);  // 20 atoms, paper composition
  sim.temperature_k = 498.0;                    // the paper's melt temperature
  sim.num_frames = 40;
  sim.equilibration_steps = 200;
  sim.sample_interval = 3;
  sim.seed = 7;
  const md::LabelledData data = md::generate_reference_data(sim, /*validation=*/0.25);
  std::printf("  %zu training frames + %zu validation frames, box %.2f A\n",
              data.train.size(), data.validation.size(), sim.spec.box_length());

  // --- 2. train a potential ----------------------------------------------
  std::printf("\n== training a DeepPot-SE potential ==\n");
  dp::TrainInput config;
  config.descriptor.rcut = 4.0;        // must stay below half the box edge
  config.descriptor.rcut_smth = 2.0;
  config.descriptor.neuron = {8, 16};  // laptop-sized networks
  config.descriptor.axis_neuron = 4;
  config.descriptor.sel = 32;
  config.fitting.neuron = {32, 32};
  config.learning_rate.start_lr = 0.002;
  config.learning_rate.stop_lr = 5e-4;
  config.learning_rate.scale_by_worker = nn::LrScaling::kNone;
  config.training.numb_steps = 300;
  config.training.disp_freq = 50;
  dp::Trainer trainer(config, data.train, data.validation);
  const dp::TrainResult result = trainer.train();
  std::printf("learning curve (energies eV/atom, forces eV/A):\n%s",
              result.lcurve.render().c_str());
  std::printf("final validation: rmse_e = %.4f eV/atom, rmse_f = %.4f eV/A"
              " (%.1fs wall)\n",
              result.rmse_e_val, result.rmse_f_val, result.wall_seconds);

  // --- 3. use the model --------------------------------------------------
  std::printf("\n== predicting a held-out frame ==\n");
  const md::Frame& frame = data.validation.frame(0);
  const md::ForceEnergy prediction =
      dp::Potential::borrow(trainer.model()).evaluate(frame);
  std::printf("  reference energy %.3f eV, predicted %.3f eV\n", frame.energy,
              prediction.energy);
  std::printf("  atom 0 force: reference (%.2f, %.2f, %.2f), predicted"
              " (%.2f, %.2f, %.2f) eV/A\n",
              frame.forces[0][0], frame.forces[0][1], frame.forces[0][2],
              prediction.forces[0][0], prediction.forces[0][1],
              prediction.forces[0][2]);
  return 0;
}
