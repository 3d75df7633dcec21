// Shared randomized-frame harness for DeepPot tests: small mixed-species
// frames plus a tiny model config.  Used by the finite-difference force
// cross-check (model_fd_test.cpp) and the analytic-vs-tape parity suite
// (fast_graph_parity_test.cpp) so both sample the same awkward topologies:
// near-cutoff pairs, asymmetric coordination, atoms on the switching
// shoulder.
#pragma once

#include <cmath>
#include <vector>

#include "dp/config.hpp"
#include "dp/fast_graph.hpp"
#include "md/system.hpp"
#include "util/rng.hpp"

namespace dpho::dp::test_harness {

/// The kernels' geometry of `frame`, from the model's own neighbor list.
inline FrameGeometry geometry_of(const DeepPotModel& model, const md::Frame& frame) {
  FrameGeometry geometry;
  build_frame_geometry(model, frame, model.build_topology(frame), geometry);
  return geometry;
}

/// Random frame: `atoms` atoms in a cubic box, rejection-sampled so no pair
/// (minimum-image) sits closer than 1.8 A — keeps energies in a sane range
/// without biasing toward lattice-like order.
inline md::Frame random_frame(util::Rng& rng, std::size_t atoms = 8,
                              double box = 7.0) {
  md::Frame frame;
  frame.box_length = box;
  while (frame.positions.size() < atoms) {
    const md::Vec3 candidate{rng.uniform(0.0, box), rng.uniform(0.0, box),
                             rng.uniform(0.0, box)};
    bool ok = true;
    for (const md::Vec3& r : frame.positions) {
      md::Vec3 d = candidate - r;
      for (int k = 0; k < 3; ++k) d[k] -= box * std::round(d[k] / box);
      if (md::norm(d) < 1.8) {
        ok = false;
        break;
      }
    }
    if (ok) frame.positions.push_back(candidate);
  }
  frame.forces.assign(atoms, md::Vec3{});
  return frame;
}

inline std::vector<md::Species> random_types(util::Rng& rng,
                                             std::size_t atoms = 8) {
  std::vector<md::Species> types(atoms);
  for (md::Species& t : types) {
    t = static_cast<md::Species>(rng.uniform_int(0, 2));
  }
  return types;
}

inline TrainInput small_config(nn::Activation activation) {
  TrainInput config;
  config.descriptor.rcut = 3.2;
  config.descriptor.rcut_smth = 2.0;
  config.descriptor.neuron = {4, 6};
  config.descriptor.axis_neuron = 2;
  config.descriptor.sel = 16;
  config.descriptor.activation = activation;
  config.fitting.neuron = {8};
  config.fitting.activation = activation;
  return config;
}

}  // namespace dpho::dp::test_harness
