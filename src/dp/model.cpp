#include "dp/model.hpp"

#include "md/box.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpho::dp {

DeepPotModel::DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
                           double energy_bias_per_atom, std::uint64_t seed)
    : spec_(spec),
      types_(std::move(types)),
      energy_bias_per_atom_(energy_bias_per_atom),
      switching_(spec.descriptor.rcut, spec.descriptor.rcut_smth),
      sel_norm_(1.0 / static_cast<double>(spec.descriptor.sel)) {
  spec_.validate();
  if (types_.empty()) throw util::ValueError("model needs at least one atom");
  util::Rng rng(seed);

  const std::size_t m1 = spec_.m1();
  const std::size_t m2 = spec_.m2();
  embeddings_.reserve(md::kNumSpecies * md::kNumSpecies);
  for (std::size_t pair = 0; pair < md::kNumSpecies * md::kNumSpecies; ++pair) {
    nn::Mlp net(1, spec_.descriptor.neuron, spec_.descriptor.activation,
                spec_.descriptor.activation);
    net.init_xavier(rng);
    embeddings_.push_back(std::move(net));
  }
  fittings_.reserve(md::kNumSpecies);
  std::vector<std::size_t> fit_widths = spec_.fitting.neuron;
  fit_widths.push_back(1);  // scalar atomic energy head
  for (std::size_t t = 0; t < md::kNumSpecies; ++t) {
    nn::Mlp net(m1 * m2, fit_widths, spec_.fitting.activation,
                nn::Activation::kIdentity);
    net.init_xavier(rng);
    fittings_.push_back(std::move(net));
  }
  num_params_ = 0;
  for (const auto& net : embeddings_) num_params_ += net.num_params();
  for (const auto& net : fittings_) num_params_ += net.num_params();
}

DeepPotModel::DeepPotModel(const TrainInput& config, std::vector<md::Species> types,
                           double energy_bias_per_atom, std::uint64_t seed)
    : DeepPotModel(ModelSpec::from_train_input(config), std::move(types),
                   energy_bias_per_atom, seed) {}

std::vector<double> DeepPotModel::gather_params() const {
  std::vector<double> flat;
  flat.reserve(num_params_);
  for (const auto& net : embeddings_) {
    const auto view = net.params();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  for (const auto& net : fittings_) {
    const auto view = net.params();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  return flat;
}

void DeepPotModel::scatter_params(std::span<const double> params) {
  if (params.size() != num_params_) {
    throw util::ValueError("scatter_params: wrong parameter count");
  }
  std::size_t offset = 0;
  for (auto& net : embeddings_) {
    net.load_params(params.subspan(offset, net.num_params()));
    offset += net.num_params();
  }
  for (auto& net : fittings_) {
    net.load_params(params.subspan(offset, net.num_params()));
    offset += net.num_params();
  }
}

md::NeighborList DeepPotModel::build_topology(const md::Frame& frame) const {
  if (frame.positions.size() != types_.size()) {
    throw util::ValueError("frame atom count does not match model");
  }
  return md::NeighborList(md::Box(frame.box_length), frame.positions,
                          spec_.descriptor.rcut);
}

util::Json DeepPotModel::save() const {
  util::Json json;
  json["spec"] = spec_.to_json();
  json["energy_bias_per_atom"] = energy_bias_per_atom_;
  util::JsonArray type_array;
  for (md::Species s : types_) type_array.emplace_back(static_cast<int>(s));
  json["types"] = util::Json(std::move(type_array));
  util::JsonArray param_array;
  for (double p : gather_params()) param_array.emplace_back(p);
  json["params"] = util::Json(std::move(param_array));
  return json;
}

DeepPotModel DeepPotModel::load(const util::Json& json) {
  // "spec" is the current checkpoint shape; "config" is the legacy one (a
  // full TrainInput document, whose model block ModelSpec also understands).
  const ModelSpec spec = json.contains("spec")
                             ? ModelSpec::from_json(json.at("spec"))
                             : ModelSpec::from_json(json.at("config"));
  std::vector<md::Species> types;
  for (const util::Json& t : json.at("types").as_array()) {
    types.push_back(static_cast<md::Species>(t.as_int()));
  }
  DeepPotModel model(spec, std::move(types),
                     json.at("energy_bias_per_atom").as_number(), /*seed=*/0);
  std::vector<double> params;
  for (const util::Json& p : json.at("params").as_array()) {
    params.push_back(p.as_number());
  }
  model.scatter_params(params);
  return model;
}

}  // namespace dpho::dp
