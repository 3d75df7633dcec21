#include "dp/model_spec.hpp"

#include <sstream>

#include "util/error.hpp"

namespace dpho::dp {

namespace {

std::vector<std::size_t> parse_widths(const util::Json& json) {
  std::vector<std::size_t> widths;
  for (const util::Json& item : json.as_array()) {
    const std::int64_t w = item.as_int();
    if (w <= 0) throw util::ValueError("network widths must be positive");
    widths.push_back(static_cast<std::size_t>(w));
  }
  if (widths.empty()) throw util::ValueError("network needs at least one layer");
  return widths;
}

util::Json widths_to_json(const std::vector<std::size_t>& widths) {
  util::JsonArray array;
  for (std::size_t w : widths) array.emplace_back(w);
  return util::Json(std::move(array));
}

void parse_descriptor(const util::Json& json, DescriptorConfig& descriptor) {
  descriptor.rcut = json.number_or("rcut", descriptor.rcut);
  descriptor.rcut_smth = json.number_or("rcut_smth", descriptor.rcut_smth);
  if (json.contains("neuron")) descriptor.neuron = parse_widths(json.at("neuron"));
  // Through uint_or, so -1, 1e30 or 2.5 is a ValueError naming the key, not
  // a silent wrap to a huge width or a 1/sel near zero.
  descriptor.axis_neuron = json.uint_or("axis_neuron", descriptor.axis_neuron);
  descriptor.sel = json.uint_or("sel", descriptor.sel);
  if (json.contains("activation_function")) {
    descriptor.activation =
        nn::activation_from_string(json.at("activation_function").as_string());
  }
}

void parse_fitting(const util::Json& json, FittingConfig& fitting) {
  if (json.contains("neuron")) fitting.neuron = parse_widths(json.at("neuron"));
  if (json.contains("activation_function")) {
    fitting.activation =
        nn::activation_from_string(json.at("activation_function").as_string());
  }
}

}  // namespace

ModelSpec ModelSpec::from_train_input(const TrainInput& input) {
  ModelSpec spec;
  spec.descriptor = input.descriptor;
  spec.fitting = input.fitting;
  spec.validate();
  return spec;
}

ModelSpec ModelSpec::from_json(const util::Json& json) {
  // Unwrap the DeePMD input.json shape; the legacy model.json "config" block
  // is a full TrainInput document and carries the same wrapper.
  if (json.contains("model")) return from_json(json.at("model"));
  ModelSpec spec;
  if (json.contains("descriptor")) {
    parse_descriptor(json.at("descriptor"), spec.descriptor);
  }
  // Bare specs say "fitting"; input.json says "fitting_net".
  if (json.contains("fitting")) {
    parse_fitting(json.at("fitting"), spec.fitting);
  } else if (json.contains("fitting_net")) {
    parse_fitting(json.at("fitting_net"), spec.fitting);
  }
  spec.validate();
  return spec;
}

util::Json ModelSpec::to_json() const {
  util::Json json;
  util::Json& desc = json["descriptor"];
  desc["type"] = "se_e2_a";
  desc["rcut"] = descriptor.rcut;
  desc["rcut_smth"] = descriptor.rcut_smth;
  desc["neuron"] = widths_to_json(descriptor.neuron);
  desc["axis_neuron"] = descriptor.axis_neuron;
  desc["sel"] = descriptor.sel;
  desc["activation_function"] = nn::to_string(descriptor.activation);
  util::Json& fit = json["fitting"];
  fit["neuron"] = widths_to_json(fitting.neuron);
  fit["activation_function"] = nn::to_string(fitting.activation);
  return json;
}

void ModelSpec::validate() const {
  if (!(descriptor.rcut_smth > 0.0) || !(descriptor.rcut_smth < descriptor.rcut)) {
    throw util::ValueError("model spec: require 0 < rcut_smth < rcut");
  }
  if (descriptor.neuron.empty() || fitting.neuron.empty()) {
    throw util::ValueError("model spec: networks need at least one layer");
  }
  if (descriptor.axis_neuron == 0 ||
      descriptor.axis_neuron > descriptor.neuron.back()) {
    throw util::ValueError(
        "model spec: axis_neuron must be in [1, last embedding width]");
  }
  if (descriptor.sel == 0) throw util::ValueError("model spec: sel must be positive");
}

std::string ModelSpec::describe() const {
  std::ostringstream out;
  out << "se_e2_a rcut=" << descriptor.rcut << " rcut_smth=" << descriptor.rcut_smth
      << " embed=[";
  for (std::size_t i = 0; i < descriptor.neuron.size(); ++i) {
    out << (i ? "," : "") << descriptor.neuron[i];
  }
  out << "]x" << descriptor.axis_neuron << " sel=" << descriptor.sel << " "
      << nn::to_string(descriptor.activation) << " fit=[";
  for (std::size_t i = 0; i < fitting.neuron.size(); ++i) {
    out << (i ? "," : "") << fitting.neuron[i];
  }
  out << "] " << nn::to_string(fitting.activation);
  return out.str();
}

}  // namespace dpho::dp
