// The model artifact: a JSON header (DeepPotModel::save) beside a raw
// little-endian float64 parameter blob, its one writer and one decoder, the
// legacy inline read, and the decoder's fuzz passes (tests/support/
// codec_fuzz.hpp for the header, a word-flip and prefix pass for the blob).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "codec_fuzz.hpp"
#include "dp/archive.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

#include "frame_harness.hpp"

namespace dpho::dp {
namespace {

using test_harness::random_frame;
using test_harness::random_types;
using test_harness::small_config;

DeepPotModel tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  return DeepPotModel(ModelSpec::from_train_input(small_config(nn::Activation::kTanh)),
                      random_types(rng, 8), /*energy_bias_per_atom=*/-1.5, seed);
}

/// The checkpoint shape earlier dp_train and ModelArchive::add wrote: the
/// parameters inline as a "params" array, and no "format".
util::Json legacy_checkpoint(const DeepPotModel& model) {
  util::Json json;
  json["spec"] = model.spec().to_json();
  json["energy_bias_per_atom"] = model.energy_bias_per_atom();
  util::JsonArray types;
  for (md::Species s : model.types()) types.emplace_back(static_cast<int>(s));
  json["types"] = util::Json(std::move(types));
  util::JsonArray params;
  for (double p : model.gather_params()) params.emplace_back(p);
  json["params"] = util::Json(std::move(params));
  return json;
}

std::span<const std::byte> bytes_of(const std::vector<double>& params) {
  return std::as_bytes(std::span(params));
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_bit_identical(const md::ForceEnergy& a, const md::ForceEnergy& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy),
            std::bit_cast<std::uint64_t>(b.energy));
  ASSERT_EQ(a.forces.size(), b.forces.size());
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.forces[i][k]),
                std::bit_cast<std::uint64_t>(b.forces[i][k]));
    }
  }
}

/// Decoding must throw a util::ValueError whose message holds `what`.
void expect_rejected(const util::Json& header, std::span<const std::byte> blob,
                     const std::string& what) {
  try {
    DeepPotModel::load(header, blob);
    ADD_FAILURE() << "decoded although it should fail with '" << what << "'";
  } catch (const util::ValueError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(ModelArtifact, ParametersRoundTripByteForByte) {
  util::TempDir dir;
  const DeepPotModel model = tiny_model(1);
  const std::vector<double> params = model.gather_params();
  model.save_file(dir.path() / "model.json");

  // The blob is exactly the parameters' bytes, in gather_params order.
  const std::string blob = util::read_file(dir.path() / "model.params");
  ASSERT_EQ(blob.size(), params.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(blob.data(), params.data(), blob.size()), 0);
  // save() is the header save_file wrote.
  EXPECT_EQ(util::Json::parse(util::read_file(dir.path() / "model.json")), model.save());

  const DeepPotModel loaded = DeepPotModel::load_file(dir.path() / "model.json");
  EXPECT_TRUE(same_bits(loaded.gather_params(), params));
  EXPECT_EQ(loaded.types(), model.types());
  EXPECT_EQ(loaded.energy_bias_per_atom(), model.energy_bias_per_atom());
  EXPECT_EQ(loaded.spec().to_json(), model.spec().to_json());
}

TEST(ModelArtifact, LoadsFromAnUnalignedBlobIntoPackedNets) {
  const DeepPotModel model = tiny_model(5);
  const std::vector<double> params = model.gather_params();
  // The blob one byte into its buffer, so no double in it is aligned.
  std::vector<std::byte> buffer(params.size() * sizeof(double) + 1);
  std::memcpy(buffer.data() + 1, params.data(), params.size() * sizeof(double));
  const std::span<const std::byte> blob(buffer.data() + 1, buffer.size() - 1);
  const DeepPotModel loaded = DeepPotModel::load(model.save(), blob);
  EXPECT_TRUE(same_bits(loaded.gather_params(), params));
  // Every net's packed weights were rebuilt from the blob.
  for (std::size_t pair = 0; pair < md::kNumSpecies * md::kNumSpecies; ++pair) {
    const auto got = loaded.embedding_net(pair).packed_weights();
    const auto want = model.embedding_net(pair).packed_weights();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "embedding net " << pair;
  }
  for (std::size_t t = 0; t < md::kNumSpecies; ++t) {
    const auto got = loaded.fitting_net(t).packed_weights();
    const auto want = model.fitting_net(t).packed_weights();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "fitting net " << t;
  }
  util::Rng rng(6);
  const md::Frame frame = random_frame(rng);
  expect_bit_identical(Potential::borrow(loaded).evaluate(frame),
                       Potential::borrow(model).evaluate(frame));
}

TEST(ModelArtifact, HeaderNamesFormatCountByteOrderAndChecksum) {
  const DeepPotModel model = tiny_model(2);
  const util::Json header = model.save();
  EXPECT_EQ(header.at("format").as_string(), DeepPotModel::kFormat);
  EXPECT_EQ(header.at("num_params").as_uint(), model.num_params());
  EXPECT_EQ(header.at("byte_order").as_string(), "little");
  EXPECT_EQ(header.at("checksum").as_string().size(), 16u);
  EXPECT_FALSE(header.contains("params"));
}

TEST(ModelArtifact, BlobPathSwapsTheExtension) {
  EXPECT_EQ(DeepPotModel::blob_path("run/model.json"),
            std::filesystem::path("run/model.params"));
  EXPECT_EQ(DeepPotModel::blob_path("m3"), std::filesystem::path("m3.params"));
  EXPECT_THROW(DeepPotModel::blob_path("run/model.params"), util::ValueError);
}

TEST(ModelArtifact, LegacyInlineCheckpointStillLoadsBitExactly) {
  util::TempDir dir;
  const DeepPotModel model = tiny_model(3);
  util::Rng rng(4);
  const md::Frame frame = random_frame(rng);
  const md::ForceEnergy direct = Potential::borrow(model).evaluate(frame);

  const std::filesystem::path path = dir.path() / "model.json";
  util::write_file(path, legacy_checkpoint(model).dump(2));
  EXPECT_TRUE(same_bits(DeepPotModel::load_file(path).gather_params(),
                        model.gather_params()));
  expect_bit_identical(Potential::load_file(path.string()).evaluate(frame), direct);
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "model.params"))
      << "the legacy read writes nothing";

  // An archive written before the artifact, its <id>.json inline.
  ModelArchive::create(dir.path() / "archive");
  util::write_file(dir.path() / "archive" / "old.json", legacy_checkpoint(model).dump(2));
  const std::filesystem::path catalog_path = dir.path() / "archive" / "archive.json";
  util::Json catalog = util::Json::parse(util::read_file(catalog_path));
  util::Json row;
  row["id"] = "old";
  row["file"] = "old.json";
  row["spec"] = model.spec().to_json();
  catalog["models"].as_array().push_back(row);
  util::write_file(catalog_path, catalog.dump(2));
  expect_bit_identical(
      ModelArchive::open(dir.path() / "archive").load("old").evaluate(frame), direct);
}

TEST(ModelArtifact, MissingBlobIsAnIoError) {
  util::TempDir dir;
  tiny_model(7).save_file(dir.path() / "model.json");
  std::filesystem::remove(dir.path() / "model.params");
  EXPECT_THROW(DeepPotModel::load_file(dir.path() / "model.json"), util::IoError);
}

TEST(ModelArtifact, AnOldHeaderBesideANewBlobFailsItsChecksum) {
  // A writer killed between its two writes leaves the new blob beside the
  // previous header (or no header at all).
  util::TempDir dir;
  const std::filesystem::path path = dir.path() / "model.json";
  tiny_model(8).save_file(path);
  const std::string old_header = util::read_file(path);
  tiny_model(9).save_file(path);
  util::write_file(path, old_header);
  try {
    DeepPotModel::load_file(path);
    ADD_FAILURE() << "a stale header decoded";
  } catch (const util::ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(ModelArtifact, DecoderRejectsEachMalformedField) {
  const DeepPotModel model = tiny_model(10);
  const util::Json header = model.save();
  const std::vector<double> params = model.gather_params();
  const auto with = [&](const std::string& key, util::Json value) {
    util::Json mutated = header;
    mutated[key] = std::move(value);
    return mutated;
  };

  expect_rejected(with("format", "dpho.model.v3"), bytes_of(params), "unknown format");
  expect_rejected(with("byte_order", "big"), bytes_of(params), "byte order");
  expect_rejected(with("num_params", "681"), bytes_of(params), "not a number");
  expect_rejected(with("checksum", "0123456789abcdef"), bytes_of(params),
                  "checksum mismatch");
  EXPECT_THROW(DeepPotModel::load(with("checksum", "not-hex"), bytes_of(params)),
               util::ParseError);

  std::vector<double> longer = params;
  longer.push_back(0.0);
  expect_rejected(header, bytes_of(longer), "not 8 * num_params");

  // A count, blob and checksum that agree with each other, under a spec of
  // another width.
  ModelSpec wider = model.spec();
  wider.fitting.neuron = {9};
  expect_rejected(with("spec", wider.to_json()), bytes_of(params),
                  "differs from the spec's");

  util::Json out_of_range = header;
  out_of_range["types"].as_array().back() = 3;
  expect_rejected(out_of_range, bytes_of(params), "types[7] is 3");
}

TEST(ModelArtifact, WriterKeepsNonFiniteParametersAndTheLoaderRefusesThem) {
  // A NaN from the last optimizer step still gives an artifact; dp_train then
  // exits 0 with a NaN lcurve, which the evaluator classifies.
  util::TempDir dir;
  DeepPotModel model = tiny_model(11);
  std::vector<double> params = model.gather_params();
  params[17] = std::numeric_limits<double>::quiet_NaN();
  model.scatter_params(params);
  model.save_file(dir.path() / "model.json");
  try {
    DeepPotModel::load_file(dir.path() / "model.json");
    ADD_FAILURE() << "a NaN parameter decoded";
  } catch (const util::ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("parameter 17 is not finite"), std::string::npos)
        << e.what();
  }
}

TEST(ModelArtifactFuzz, HeaderTruncationBitFlipsAndIntegerFields) {
  const DeepPotModel model = tiny_model(12);
  const util::Json header = model.save();
  const std::vector<double> params = model.gather_params();
  const auto decode = [&](const util::Json& h) {
    return DeepPotModel::load(h, bytes_of(params));
  };
  const std::string wire = header.dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode), wire.size());

  const test_support::FlipTally tally =
      test_support::fuzz_bit_flips(wire, decode, [&](const DeepPotModel& decoded) {
        // Whatever header survives, the parameters are the blob's bits.
        EXPECT_TRUE(same_bits(decoded.gather_params(), params));
        for (md::Species s : decoded.types()) {
          EXPECT_LT(static_cast<std::size_t>(s), md::kNumSpecies);
        }
      });
  EXPECT_GT(tally.rejected, 0u);

  std::vector<test_support::FieldPath> fields = {{"num_params"}};
  for (std::size_t i = 0; i < model.num_atoms(); ++i) {
    fields.push_back({"types", std::to_string(i)});
  }
  test_support::fuzz_integer_fields(header, fields, decode);
}

TEST(ModelArtifactFuzz, EveryBlobWordFlipAndStrictPrefixIsRejected) {
  const DeepPotModel model = tiny_model(13);
  const util::Json header = model.save();
  const std::vector<double> params = model.gather_params();

  // One bit per 8-byte word, rotating which bit.
  std::vector<double> flipped = params;
  for (std::size_t w = 0; w < params.size(); ++w) {
    flipped[w] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(params[w]) ^
                                       (std::uint64_t{1} << (w % 64)));
    expect_rejected(header, bytes_of(flipped), "checksum mismatch");
    flipped[w] = params[w];
  }
  const std::span<const std::byte> blob = bytes_of(params);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    expect_rejected(header, blob.first(cut), "not 8 * num_params");
  }
}

}  // namespace
}  // namespace dpho::dp
