#include "tape_oracle.hpp"

#include <algorithm>

#include "md/neighbor.hpp"
#include "util/error.hpp"

namespace dpho::oracle {

namespace {

/// Row i's displacement to neighbor j as the kernels take it: from the
/// pair's lower id, negated in the higher id's row.
md::Vec3 row_displacement(const md::Frame& frame, std::size_t i, std::size_t j) {
  const md::Box box(frame.box_length);
  if (j > i) return box.displacement(frame.positions[i], frame.positions[j]);
  const md::Vec3 d = box.displacement(frame.positions[j], frame.positions[i]);
  return md::Vec3{-d[0], -d[1], -d[2]};
}

}  // namespace

ad::Var apply(nn::Activation activation, ad::Var x) {
  switch (activation) {
    case nn::Activation::kRelu: return relu(x);
    case nn::Activation::kRelu6: return relu6(x);
    case nn::Activation::kSoftplus: return softplus(x);
    case nn::Activation::kSigmoid: return sigmoid(x);
    case nn::Activation::kTanh: return tanh(x);
    case nn::Activation::kIdentity: return x;
  }
  throw util::ValueError("invalid activation enum");
}

std::vector<ad::Var> bind_params(const nn::Mlp& net, ad::Tape& tape) {
  std::vector<ad::Var> bound;
  bind_params(net, tape, bound);
  return bound;
}

void bind_params(const nn::Mlp& net, ad::Tape& tape, std::vector<ad::Var>& out) {
  out.reserve(out.size() + net.num_params());
  for (double p : net.params()) out.push_back(tape.input(p));
}

std::vector<ad::Var> forward(const nn::Mlp& net, std::span<const ad::Var> bound_params,
                             std::span<const ad::Var> x) {
  if (bound_params.size() != net.num_params()) {
    throw util::ValueError("mlp forward: bound parameter count mismatch");
  }
  if (x.size() != net.input_width()) throw util::ValueError("mlp forward: bad input width");
  std::vector<ad::Var> current(x.begin(), x.end());
  std::vector<ad::Var> next;
  std::size_t offset = 0;
  for (const nn::LayerSpec& layer : net.layers()) {
    next.clear();
    const auto weights = bound_params.subspan(offset, layer.in * layer.out);
    const auto biases = bound_params.subspan(offset + layer.in * layer.out, layer.out);
    for (std::size_t o = 0; o < layer.out; ++o) {
      ad::Var sum = biases[o];
      for (std::size_t i = 0; i < layer.in; ++i) {
        sum = sum + weights[o * layer.in + i] * current[i];
      }
      next.push_back(apply(layer.activation, sum));
    }
    current.swap(next);
    offset += layer.in * layer.out + layer.out;
  }
  return current;
}

ad::Var switching_value(const dp::SwitchingFunction& switching, ad::Var r) {
  const double rv = r.value();
  if (rv >= switching.rcut()) return r.tape()->constant(0.0);
  if (rv < switching.rcut_smth()) return 1.0 / r;
  const double width = switching.rcut() - switching.rcut_smth();
  const ad::Var x = (r - switching.rcut_smth()) / width;
  const ad::Var x2 = x * x;
  const ad::Var x3 = x2 * x;
  const ad::Var blend = x3 * (-6.0 * x2 + 15.0 * x - 10.0) + 1.0;
  return blend / r;
}

ad::Var loss(ad::Tape& tape, ad::Var energy_pred, double energy_ref,
             std::span<const ad::Var> forces_pred,
             std::span<const md::Vec3> forces_ref, std::size_t n_atoms,
             const dp::LossWeights& weights) {
  if (forces_pred.size() != 3 * forces_ref.size()) {
    throw util::ValueError("loss: force spans disagree");
  }
  const double inv_n = 1.0 / static_cast<double>(n_atoms);
  const ad::Var de = (energy_pred - energy_ref) * inv_n;
  ad::Var total = weights.pref_e * de * de;
  ad::Var force_ss = tape.constant(0.0);
  for (std::size_t a = 0; a < forces_ref.size(); ++a) {
    for (std::size_t k = 0; k < 3; ++k) {
      const ad::Var df = forces_pred[a * 3 + k] - forces_ref[a][k];
      force_ss = force_ss + df * df;
    }
  }
  const double inv_3n = 1.0 / (3.0 * static_cast<double>(forces_ref.size()));
  return total + weights.pref_f * force_ss * inv_3n;
}

TapeGraph build_graph(ad::Tape& tape, const dp::DeepPotModel& model,
                      const md::Frame& frame) {
  const md::NeighborList list = model.build_topology(frame);
  const std::vector<md::Species>& types = model.types();
  const std::size_t n = types.size();
  const std::size_t m1 = model.spec().m1();
  const std::size_t m2 = model.spec().m2();
  constexpr std::size_t kNets = md::kNumSpecies * md::kNumSpecies;

  // Bind coordinates first, then parameters, so gradients for both are cheap
  // to extract from one backward pass.
  std::vector<ad::Var> coords;
  coords.reserve(3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 3; ++k) coords.push_back(tape.input(frame.positions[i][k]));
  }
  std::vector<ad::Var> params;
  params.reserve(model.num_params());
  for (std::size_t e = 0; e < kNets; ++e) bind_params(model.embedding_net(e), tape, params);
  for (std::size_t f = 0; f < md::kNumSpecies; ++f) {
    bind_params(model.fitting_net(f), tape, params);
  }
  std::vector<std::span<const ad::Var>> embed_views(kNets);
  std::vector<std::span<const ad::Var>> fit_views(md::kNumSpecies);
  std::size_t offset = 0;
  for (std::size_t e = 0; e < kNets; ++e) {
    embed_views[e] = std::span(params).subspan(offset, model.embedding_net(e).num_params());
    offset += model.embedding_net(e).num_params();
  }
  for (std::size_t f = 0; f < md::kNumSpecies; ++f) {
    fit_views[f] = std::span(params).subspan(offset, model.fitting_net(f).num_params());
    offset += model.fitting_net(f).num_params();
  }

  const double rcut = model.spec().descriptor.rcut;
  const double nu = model.sel_norm();
  ad::Var total = tape.constant(static_cast<double>(n) * model.energy_bias_per_atom());
  std::vector<ad::Var> t_matrix(m1 * 4);
  std::vector<ad::Var> descriptor(m1 * m2);
  for (std::size_t i = 0; i < n; ++i) {
    for (ad::Var& cell : t_matrix) cell = tape.constant(0.0);
    for (const std::size_t j : list.neighbors_of(i)) {
      // displacement = (x_j + shift) - x_i with a constant periodic shift,
      // so the graph differentiates through both coordinates.
      const md::Vec3 shift = row_displacement(frame, i, j) -
                             (frame.positions[j] - frame.positions[i]);
      const ad::Var dx = (coords[j * 3 + 0] + shift[0]) - coords[i * 3 + 0];
      const ad::Var dy = (coords[j * 3 + 1] + shift[1]) - coords[i * 3 + 1];
      const ad::Var dz = (coords[j * 3 + 2] + shift[2]) - coords[i * 3 + 2];
      const ad::Var r = ad::sqrt(dx * dx + dy * dy + dz * dz);
      if (r.value() >= rcut) continue;
      const ad::Var s = switching_value(model.switching(), r);
      const ad::Var inv_r = 1.0 / r;
      const ad::Var row[4] = {s, s * dx * inv_r, s * dy * inv_r, s * dz * inv_r};
      const std::size_t net = dp::DeepPotModel::pair_index(types[i], types[j]);
      const ad::Var input[1] = {s};
      const std::vector<ad::Var> g =
          forward(model.embedding_net(net), embed_views[net], std::span(input, 1));
      for (std::size_t m = 0; m < m1; ++m) {
        const ad::Var scaled = g[m] * nu;
        for (std::size_t c = 0; c < 4; ++c) {
          t_matrix[m * 4 + c] = t_matrix[m * 4 + c] + scaled * row[c];
        }
      }
    }
    for (std::size_t a = 0; a < m1; ++a) {
      for (std::size_t b = 0; b < m2; ++b) {
        ad::Var sum = t_matrix[a * 4 + 0] * t_matrix[b * 4 + 0];
        for (std::size_t c = 1; c < 4; ++c) {
          sum = sum + t_matrix[a * 4 + c] * t_matrix[b * 4 + c];
        }
        descriptor[a * m2 + b] = sum;
      }
    }
    const auto fit = static_cast<std::size_t>(types[i]);
    total = total + forward(model.fitting_net(fit), fit_views[fit], descriptor)[0];
  }

  // Forces: F = -dE/dx.
  TapeGraph graph;
  graph.energy = total;
  graph.forces.reserve(3 * n);
  for (const ad::Var& g : tape.gradient(total, coords)) graph.forces.push_back(-g);
  graph.params = std::move(params);
  return graph;
}

md::ForceEnergy energy_forces(const dp::DeepPotModel& model, const md::Frame& frame) {
  ad::Tape tape;
  const TapeGraph graph = build_graph(tape, model, frame);
  md::ForceEnergy out;
  out.energy = graph.energy.value();
  out.forces.resize(model.num_atoms());
  for (std::size_t i = 0; i < model.num_atoms(); ++i) {
    for (std::size_t k = 0; k < 3; ++k) out.forces[i][k] = graph.forces[i * 3 + k].value();
  }
  return out;
}

LossGrad loss_and_grad(const dp::DeepPotModel& model, const md::Frame& frame,
                       double energy_ref, std::span<const md::Vec3> forces_ref,
                       const dp::LossWeights& weights) {
  ad::Tape tape;
  const TapeGraph graph = build_graph(tape, model, frame);
  const ad::Var frame_loss = loss(tape, graph.energy, energy_ref, graph.forces,
                                  forces_ref, frame.positions.size(), weights);
  LossGrad result;
  result.loss = frame_loss.value();
  for (const ad::Var& g : tape.gradient(frame_loss, graph.params)) {
    result.grad.push_back(g.value());
  }
  return result;
}

double energy(const dp::DeepPotModel& model, const md::Frame& frame) {
  const md::NeighborList list = model.build_topology(frame);
  const std::vector<md::Species>& types = model.types();
  const std::size_t m1 = model.spec().m1();
  const std::size_t m2 = model.spec().m2();
  const double rcut = model.spec().descriptor.rcut;
  double total = 0.0;
  std::vector<double> t_matrix(m1 * 4);
  std::vector<double> descriptor(m1 * m2);
  for (std::size_t i = 0; i < types.size(); ++i) {
    std::fill(t_matrix.begin(), t_matrix.end(), 0.0);
    for (const std::size_t j : list.neighbors_of(i)) {
      const md::Vec3 d = row_displacement(frame, i, j);
      const double r = md::norm(d);
      if (r >= rcut) continue;
      const double s = model.switching().value(r);
      const double row[4] = {s, s * d[0] / r, s * d[1] / r, s * d[2] / r};
      const std::vector<double> g =
          model.embedding_net(dp::DeepPotModel::pair_index(types[i], types[j]))
              .forward(std::span(&s, 1));
      for (std::size_t m = 0; m < m1; ++m) {
        for (std::size_t c = 0; c < 4; ++c) {
          t_matrix[m * 4 + c] += model.sel_norm() * g[m] * row[c];
        }
      }
    }
    for (std::size_t a = 0; a < m1; ++a) {
      for (std::size_t b = 0; b < m2; ++b) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 4; ++c) sum += t_matrix[a * 4 + c] * t_matrix[b * 4 + c];
        descriptor[a * m2 + b] = sum;
      }
    }
    total += model.fitting_net(static_cast<std::size_t>(types[i])).forward(descriptor)[0] +
             model.energy_bias_per_atom();
  }
  return total;
}

}  // namespace dpho::oracle
