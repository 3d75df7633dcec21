#include "dp/config.hpp"

#include "dp/model_spec.hpp"
#include "util/error.hpp"

namespace dpho::dp {

TrainInput TrainInput::from_json(const util::Json& json) {
  // Counts go through as_uint, so -1 is an error naming the field rather
  // than a wrapped 2^64-1 that passes validate().
  const auto read_count = [](const util::Json& block, const char* key,
                             std::size_t& out) {
    if (!block.contains(key)) return;
    try {
      out = block.at(key).as_uint();
    } catch (const util::ValueError&) {
      throw util::ValueError(std::string("config: ") + key +
                             " must be an integer in [0, 2^64), got " +
                             block.at(key).dump());
    }
  };
  TrainInput input;
  if (json.contains("model")) {
    // The architecture block is ModelSpec's domain; share its parser.
    const ModelSpec spec = ModelSpec::from_json(json.at("model"));
    input.descriptor = spec.descriptor;
    input.fitting = spec.fitting;
  }
  if (json.contains("learning_rate")) {
    const util::Json& lr = json.at("learning_rate");
    input.learning_rate.start_lr = lr.number_or("start_lr", input.learning_rate.start_lr);
    input.learning_rate.stop_lr = lr.number_or("stop_lr", input.learning_rate.stop_lr);
    read_count(lr, "decay_steps", input.learning_rate.decay_steps);
    if (lr.contains("scale_by_worker")) {
      input.learning_rate.scale_by_worker =
          nn::lr_scaling_from_string(lr.at("scale_by_worker").as_string());
    }
  }
  if (json.contains("loss")) {
    const util::Json& loss = json.at("loss");
    input.loss.start_pref_e = loss.number_or("start_pref_e", input.loss.start_pref_e);
    input.loss.limit_pref_e = loss.number_or("limit_pref_e", input.loss.limit_pref_e);
    input.loss.start_pref_f = loss.number_or("start_pref_f", input.loss.start_pref_f);
    input.loss.limit_pref_f = loss.number_or("limit_pref_f", input.loss.limit_pref_f);
  }
  if (json.contains("training")) {
    const util::Json& training = json.at("training");
    read_count(training, "numb_steps", input.training.numb_steps);
    read_count(training, "batch_size", input.training.batch_size);
    read_count(training, "disp_freq", input.training.disp_freq);
    if (training.contains("seed")) {
      input.training.seed = static_cast<std::uint64_t>(training.at("seed").as_int());
    }
  }
  read_count(json, "num_workers", input.num_workers);
  input.validate();
  return input;
}

TrainInput TrainInput::from_json_text(const std::string& text) {
  return from_json(util::Json::parse(text));
}

util::Json TrainInput::to_json() const {
  util::Json json;
  const util::Json spec_json = ModelSpec{descriptor, fitting}.to_json();
  json["model"]["descriptor"] = spec_json.at("descriptor");
  json["model"]["fitting_net"] = spec_json.at("fitting");
  util::Json& lr = json["learning_rate"];
  lr["type"] = "exp";
  lr["start_lr"] = learning_rate.start_lr;
  lr["stop_lr"] = learning_rate.stop_lr;
  if (learning_rate.decay_steps > 0) lr["decay_steps"] = learning_rate.decay_steps;
  lr["scale_by_worker"] = nn::to_string(learning_rate.scale_by_worker);
  util::Json& loss_json = json["loss"];
  loss_json["start_pref_e"] = loss.start_pref_e;
  loss_json["limit_pref_e"] = loss.limit_pref_e;
  loss_json["start_pref_f"] = loss.start_pref_f;
  loss_json["limit_pref_f"] = loss.limit_pref_f;
  util::Json& training_json = json["training"];
  training_json["numb_steps"] = training.numb_steps;
  training_json["batch_size"] = training.batch_size;
  training_json["disp_freq"] = training.disp_freq;
  training_json["seed"] = training.seed;
  json["num_workers"] = num_workers;
  return json;
}

void TrainInput::validate() const {
  ModelSpec{descriptor, fitting}.validate();
  if (learning_rate.start_lr <= 0.0 || learning_rate.stop_lr <= 0.0) {
    throw util::ValueError("config: learning rates must be positive");
  }
  if (training.numb_steps == 0) throw util::ValueError("config: numb_steps must be > 0");
  if (training.batch_size == 0) throw util::ValueError("config: batch_size must be > 0");
  if (num_workers == 0) throw util::ValueError("config: num_workers must be > 0");
}

double TrainInput::scaled_start_lr() const {
  return learning_rate.start_lr *
         nn::scaling_factor(learning_rate.scale_by_worker, num_workers);
}

}  // namespace dpho::dp
