#include "dp/config.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace dpho::dp {
namespace {

TEST(Config, DefaultsMatchSection212) {
  const TrainInput input;
  EXPECT_EQ(input.descriptor.neuron, (std::vector<std::size_t>{25, 50, 100}));
  EXPECT_EQ(input.fitting.neuron, (std::vector<std::size_t>{240, 240, 240}));
  EXPECT_DOUBLE_EQ(input.loss.start_pref_e, 0.02);
  EXPECT_DOUBLE_EQ(input.loss.start_pref_f, 1000.0);
  EXPECT_DOUBLE_EQ(input.loss.limit_pref_e, 1.0);
  EXPECT_DOUBLE_EQ(input.loss.limit_pref_f, 1.0);
  EXPECT_EQ(input.training.numb_steps, 40000u);
  EXPECT_EQ(input.num_workers, 6u);  // one Summit node's GPUs
  EXPECT_EQ(input.learning_rate.scale_by_worker, nn::LrScaling::kLinear);
}

TEST(Config, JsonRoundTrip) {
  TrainInput input;
  input.descriptor.rcut = 9.5;
  input.descriptor.rcut_smth = 2.75;
  input.descriptor.activation = nn::Activation::kSoftplus;
  input.fitting.activation = nn::Activation::kSigmoid;
  input.learning_rate.start_lr = 0.0047;
  input.learning_rate.stop_lr = 1e-4;
  input.learning_rate.scale_by_worker = nn::LrScaling::kNone;
  input.training.numb_steps = 123;
  input.training.seed = 42;
  const TrainInput back = TrainInput::from_json(input.to_json());
  EXPECT_DOUBLE_EQ(back.descriptor.rcut, 9.5);
  EXPECT_DOUBLE_EQ(back.descriptor.rcut_smth, 2.75);
  EXPECT_EQ(back.descriptor.activation, nn::Activation::kSoftplus);
  EXPECT_EQ(back.fitting.activation, nn::Activation::kSigmoid);
  EXPECT_DOUBLE_EQ(back.learning_rate.start_lr, 0.0047);
  EXPECT_EQ(back.learning_rate.scale_by_worker, nn::LrScaling::kNone);
  EXPECT_EQ(back.training.numb_steps, 123u);
  EXPECT_EQ(back.training.seed, 42u);
}

TEST(Config, ParsesDeepmdStyleDocument) {
  const TrainInput input = TrainInput::from_json_text(R"({
    "model": {
      "descriptor": {"rcut": 8.0, "rcut_smth": 2.0, "neuron": [4, 8],
                     "axis_neuron": 4, "sel": 64,
                     "activation_function": "tanh"},
      "fitting_net": {"neuron": [16, 16], "activation_function": "relu"}
    },
    "learning_rate": {"start_lr": 0.001, "stop_lr": 1e-8,
                      "scale_by_worker": "sqrt"},
    "loss": {"start_pref_e": 0.02, "limit_pref_e": 1,
             "start_pref_f": 1000, "limit_pref_f": 1},
    "training": {"numb_steps": 40000, "batch_size": 2, "seed": 7}
  })");
  EXPECT_DOUBLE_EQ(input.descriptor.rcut, 8.0);
  EXPECT_EQ(input.descriptor.neuron, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(input.descriptor.sel, 64u);
  EXPECT_EQ(input.fitting.activation, nn::Activation::kRelu);
  EXPECT_EQ(input.learning_rate.scale_by_worker, nn::LrScaling::kSqrt);
  EXPECT_EQ(input.training.batch_size, 2u);
}

TEST(Config, UnknownKeysIgnored) {
  EXPECT_NO_THROW(TrainInput::from_json_text(
      R"({"model": {"type_map": ["Al"], "descriptor": {"rcut": 7.0, "rcut_smth": 2.0}},
          "nvnmd": {}, "extra": 1})"));
}

TEST(Config, ValidationCatchesBadCutoffOrdering) {
  TrainInput input;
  input.descriptor.rcut = 6.0;
  input.descriptor.rcut_smth = 6.0;
  EXPECT_THROW(input.validate(), util::ValueError);
  input.descriptor.rcut_smth = 7.0;
  EXPECT_THROW(input.validate(), util::ValueError);
}

TEST(Config, ValidationCatchesBadAxisNeuron) {
  TrainInput input;
  input.descriptor.axis_neuron = 0;
  EXPECT_THROW(input.validate(), util::ValueError);
  input.descriptor.axis_neuron = input.descriptor.neuron.back() + 1;
  EXPECT_THROW(input.validate(), util::ValueError);
}

TEST(Config, ValidationCatchesBadLearningRates) {
  TrainInput input;
  input.learning_rate.start_lr = 0.0;
  EXPECT_THROW(input.validate(), util::ValueError);
  input.learning_rate.start_lr = 0.001;
  input.learning_rate.stop_lr = -1e-8;
  EXPECT_THROW(input.validate(), util::ValueError);
}

TEST(Config, ScaledStartLr) {
  TrainInput input;
  input.learning_rate.start_lr = 0.001;
  input.num_workers = 6;
  input.learning_rate.scale_by_worker = nn::LrScaling::kLinear;
  EXPECT_DOUBLE_EQ(input.scaled_start_lr(), 0.006);
  input.learning_rate.scale_by_worker = nn::LrScaling::kNone;
  EXPECT_DOUBLE_EQ(input.scaled_start_lr(), 0.001);
}

TEST(Config, NegativeWidthRejected) {
  EXPECT_THROW(TrainInput::from_json_text(
                   R"({"model": {"descriptor": {"neuron": [4, -8]}}})"),
               util::ValueError);
}

TEST(Config, CountsMustBeNonNegativeIntegersAndErrorsNameTheField) {
  // A wrapped "batch_size": -1 would be 2^64-1 and pass validate().
  const std::pair<const char*, const char*> fields[] = {
      {"training", "numb_steps"}, {"training", "batch_size"},
      {"training", "disp_freq"}, {"learning_rate", "decay_steps"},
      {nullptr, "num_workers"}};
  for (const auto& [block, field] : fields) {
    for (const char* bad : {"-1", "1e30", "2.5"}) {
      const std::string member = std::string("\"") + field + "\": " + bad;
      const std::string text =
          block ? "{\"" + std::string(block) + "\": {" + member + "}}"
                : "{" + member + "}";
      try {
        TrainInput::from_json_text(text);
        ADD_FAILURE() << text << " parsed";
      } catch (const util::ValueError& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace dpho::dp
