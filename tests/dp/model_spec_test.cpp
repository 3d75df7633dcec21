#include "dp/model_spec.hpp"

#include <gtest/gtest.h>

#include "codec_fuzz.hpp"
#include "util/error.hpp"

namespace dpho::dp {
namespace {

TEST(ModelSpec, FromTrainInputTakesArchitectureSlice) {
  TrainInput input;
  input.descriptor.rcut = 7.5;
  input.descriptor.rcut_smth = 2.5;
  input.fitting.neuron = {16, 16};
  input.learning_rate.start_lr = 0.123;  // training policy: must not leak in
  const ModelSpec spec = ModelSpec::from_train_input(input);
  EXPECT_EQ(spec.descriptor, input.descriptor);
  EXPECT_EQ(spec.fitting, input.fitting);
}

TEST(ModelSpec, JsonRoundTrip) {
  ModelSpec spec;
  spec.descriptor.rcut = 9.5;
  spec.descriptor.rcut_smth = 2.75;
  spec.descriptor.neuron = {4, 8};
  spec.descriptor.axis_neuron = 3;
  spec.descriptor.sel = 32;
  spec.descriptor.activation = nn::Activation::kSoftplus;
  spec.fitting.neuron = {16};
  spec.fitting.activation = nn::Activation::kSigmoid;
  const ModelSpec back = ModelSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
}

TEST(ModelSpec, ParsesDeepmdInputJsonWrapper) {
  const ModelSpec spec = ModelSpec::from_json(util::Json::parse(R"({
    "model": {
      "descriptor": {"rcut": 8.0, "rcut_smth": 2.0, "neuron": [4, 8],
                     "axis_neuron": 4, "sel": 64,
                     "activation_function": "tanh"},
      "fitting_net": {"neuron": [16, 16], "activation_function": "relu"}
    },
    "learning_rate": {"start_lr": 0.001}
  })"));
  EXPECT_DOUBLE_EQ(spec.descriptor.rcut, 8.0);
  EXPECT_EQ(spec.descriptor.neuron, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(spec.descriptor.sel, 64u);
  EXPECT_EQ(spec.fitting.neuron, (std::vector<std::size_t>{16, 16}));
  EXPECT_EQ(spec.fitting.activation, nn::Activation::kRelu);
}

TEST(ModelSpec, ParsesBareModelBlockWithFittingNetKey) {
  const ModelSpec spec = ModelSpec::from_json(util::Json::parse(R"({
    "descriptor": {"rcut": 7.0, "rcut_smth": 2.0},
    "fitting_net": {"neuron": [8]}
  })"));
  EXPECT_DOUBLE_EQ(spec.descriptor.rcut, 7.0);
  EXPECT_EQ(spec.fitting.neuron, (std::vector<std::size_t>{8}));
}

TEST(ModelSpec, MissingFieldsKeepDefaults) {
  const ModelSpec spec = ModelSpec::from_json(util::Json::parse("{}"));
  EXPECT_EQ(spec, ModelSpec{});
  EXPECT_EQ(spec.descriptor.neuron, (std::vector<std::size_t>{25, 50, 100}));
  EXPECT_EQ(spec.fitting.neuron, (std::vector<std::size_t>{240, 240, 240}));
}

TEST(ModelSpec, M1M2Accessors) {
  ModelSpec spec;
  spec.descriptor.neuron = {4, 6};
  spec.descriptor.axis_neuron = 2;
  EXPECT_EQ(spec.m1(), 6u);
  EXPECT_EQ(spec.m2(), 2u);
}

TEST(ModelSpec, ValidationCatchesBadCutoffOrdering) {
  ModelSpec spec;
  spec.descriptor.rcut_smth = spec.descriptor.rcut;
  EXPECT_THROW(spec.validate(), util::ValueError);
  spec.descriptor.rcut_smth = -1.0;
  EXPECT_THROW(spec.validate(), util::ValueError);
}

TEST(ModelSpec, ValidationCatchesBadAxisNeuron) {
  ModelSpec spec;
  spec.descriptor.axis_neuron = 0;
  EXPECT_THROW(spec.validate(), util::ValueError);
  spec.descriptor.axis_neuron = spec.descriptor.neuron.back() + 1;
  EXPECT_THROW(spec.validate(), util::ValueError);
}

TEST(ModelSpec, ValidationCatchesZeroSel) {
  ModelSpec spec;
  spec.descriptor.sel = 0;
  EXPECT_THROW(spec.validate(), util::ValueError);
}

TEST(ModelSpec, FromJsonRejectsNegativeWidth) {
  EXPECT_THROW(ModelSpec::from_json(util::Json::parse(
                   R"({"descriptor": {"neuron": [4, -8]}})")),
               util::ValueError);
}

TEST(ModelSpec, IntegerFieldsRejectNegativeHugeAndFractionalValues) {
  ModelSpec spec;
  spec.descriptor.neuron = {4, 8};
  spec.fitting.neuron = {16, 16};
  // -1 used to wrap sel to 2^64 - 1, a descriptor scaled by about 5e-20.
  test_support::fuzz_integer_fields(
      spec.to_json(),
      {{"descriptor", "sel"},
       {"descriptor", "axis_neuron"},
       {"descriptor", "neuron", "1"},
       {"fitting", "neuron", "0"}},
      [](const util::Json& json) { return ModelSpec::from_json(json); });
  try {
    ModelSpec::from_json(util::Json::parse(R"({"descriptor": {"sel": -1}})"));
    ADD_FAILURE() << "sel = -1 parsed";
  } catch (const util::ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("sel"), std::string::npos) << e.what();
  }
}

TEST(ModelSpec, DescribeMentionsArchitecture) {
  ModelSpec spec;
  spec.descriptor.neuron = {4, 6};
  spec.descriptor.axis_neuron = 2;
  spec.fitting.neuron = {8};
  const std::string text = spec.describe();
  EXPECT_NE(text.find("se_e2_a"), std::string::npos);
  EXPECT_NE(text.find("4,6"), std::string::npos);
  EXPECT_NE(text.find("sel="), std::string::npos);
}

}  // namespace
}  // namespace dpho::dp
