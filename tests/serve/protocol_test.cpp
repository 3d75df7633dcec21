// serve protocol codec: round trips are bit-exact, and hostile input --
// truncation, bit flips, out-of-range integers, structural garbage -- always
// surfaces as a typed util error, never a crash or a silently wrong decode.
// The fuzz passes run through tests/support/codec_fuzz.hpp.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include "../dp/frame_harness.hpp"
#include "codec_fuzz.hpp"

namespace dpho::serve {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

EvalRequest sample_request() {
  util::Rng rng(7);
  EvalRequest request;
  request.id = 42;
  request.model = "m1";
  request.want_forces = true;
  request.frames.push_back(dp::test_harness::random_frame(rng, 8));
  request.frames.push_back(dp::test_harness::random_frame(rng, 8));
  return request;
}

TEST(ServeProtocol, EvalRequestRoundTripIsBitExact) {
  const EvalRequest request = sample_request();
  // Through the full wire path: encode -> compact dump -> parse -> decode.
  const util::Json wire =
      util::Json::parse(encode_eval_request(request).dump());
  const EvalRequest back = decode_eval_request(wire);
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.model, request.model);
  EXPECT_TRUE(back.want_forces);
  ASSERT_EQ(back.frames.size(), request.frames.size());
  for (std::size_t f = 0; f < back.frames.size(); ++f) {
    EXPECT_TRUE(bits_equal(back.frames[f].box_length,
                           request.frames[f].box_length));
    ASSERT_EQ(back.frames[f].positions.size(),
              request.frames[f].positions.size());
    for (std::size_t a = 0; a < back.frames[f].positions.size(); ++a) {
      for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(bits_equal(back.frames[f].positions[a][k],
                               request.frames[f].positions[a][k]));
      }
    }
  }
}

TEST(ServeProtocol, EvalReplyRoundTripIsBitExact) {
  EvalReply reply;
  reply.id = 9;
  reply.model = "m0";
  reply.energies = {-12.25, 0.1 + 0.2};  // deliberately non-representable sum
  reply.forces = {{1.0, -2.5, 3.25, 0.1, 0.2, 0.3},
                  {-0.7, 0.0, 1e-17, 4.0, 5.0, 6.0}};
  const EvalReply back =
      decode_eval_reply(util::Json::parse(encode_eval_reply(reply).dump()));
  EXPECT_EQ(back.id, reply.id);
  EXPECT_EQ(back.model, reply.model);
  ASSERT_EQ(back.energies.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(bits_equal(back.energies[i], reply.energies[i]));
  }
  ASSERT_EQ(back.forces.size(), 2u);
  for (std::size_t f = 0; f < 2; ++f) {
    ASSERT_EQ(back.forces[f].size(), reply.forces[f].size());
    for (std::size_t i = 0; i < back.forces[f].size(); ++i) {
      EXPECT_TRUE(bits_equal(back.forces[f][i], reply.forces[f][i]));
    }
  }
}

TEST(ServeProtocol, ForcelessReplyOmitsForces) {
  EvalReply reply;
  reply.id = 1;
  reply.model = "m0";
  reply.energies = {-3.5};
  const util::Json wire = encode_eval_reply(reply);
  EXPECT_FALSE(wire.contains("forces"));
  EXPECT_TRUE(decode_eval_reply(wire).forces.empty());
}

TEST(ServeProtocol, ErrorRoundTripAndCodeStrings) {
  for (const ErrorCode code :
       {ErrorCode::kOverloaded, ErrorCode::kBadRequest, ErrorCode::kUnknownModel,
        ErrorCode::kTooLarge, ErrorCode::kInternal}) {
    const ErrorReply error{17, code, "details"};
    const ErrorReply back =
        decode_error(util::Json::parse(encode_error(error).dump()));
    EXPECT_EQ(back.id, 17u);
    EXPECT_EQ(back.code, code);
    EXPECT_EQ(back.message, "details");
    EXPECT_EQ(error_code_from_string(to_string(code)), code);
  }
  EXPECT_THROW(error_code_from_string("nope"), util::ValueError);
}

TEST(ServeProtocol, CatalogRoundTrip) {
  std::vector<CatalogModel> models(2);
  models[0] = {"m0", 0, 8, "se_e2_a rcut=3.2", {{"rmse_f_val", 0.1}}};
  models[1] = {"m1", 1, 160, "se_e2_a rcut=6.0", {}};
  const std::vector<CatalogModel> back = decode_catalog_reply(
      util::Json::parse(encode_catalog_reply(3, models).dump()));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, "m0");
  EXPECT_EQ(back[0].rank, 0);
  EXPECT_EQ(back[0].num_atoms, 8u);
  ASSERT_EQ(back[0].objectives.size(), 1u);
  EXPECT_EQ(back[0].objectives[0].first, "rmse_f_val");
  EXPECT_DOUBLE_EQ(back[0].objectives[0].second, 0.1);
  EXPECT_EQ(back[1].id, "m1");
  EXPECT_EQ(back[1].num_atoms, 160u);
  EXPECT_TRUE(back[1].objectives.empty());
}

TEST(ServeProtocol, DecoderRejectsStructuralGarbage) {
  const util::Json valid = encode_eval_request(sample_request());
  EXPECT_THROW(message_type(util::Json::parse("[]")), util::ParseError);
  EXPECT_THROW(message_type(util::Json::parse("{\"x\":1}")), util::ParseError);
  EXPECT_THROW(decode_eval_request(util::Json::parse("{\"t\":\"result\"}")),
               util::ParseError);

  auto mutate = [&](auto&& fn) {
    util::Json copy = valid;
    fn(copy);
    return copy;
  };
  EXPECT_THROW(decode_eval_request(mutate([](util::Json& m) {
                 m["frames"] = util::JsonArray{};
               })),
               util::ValueError);
  EXPECT_THROW(decode_eval_request(mutate([](util::Json& m) {
                 m["frames"].as_array()[0]["coords"].as_array().pop_back();
               })),
               util::ValueError);  // no longer a multiple of 3
  EXPECT_THROW(decode_eval_request(mutate([](util::Json& m) {
                 m["frames"].as_array()[0]["coords"].as_array()[0] = "x";
               })),
               util::ParseError);
  EXPECT_THROW(decode_eval_request(mutate([](util::Json& m) {
                 m["frames"].as_array()[0]["box"] = -1.0;
               })),
               util::ValueError);
  EXPECT_THROW(decode_eval_request(mutate([](util::Json& m) {
                 m["forces"] = "yes";
               })),
               util::ParseError);
  EXPECT_THROW(decode_eval_request(mutate([](util::Json& m) { m["id"] = -3.0; })),
               util::ValueError);

  // Batch ceiling: kMaxBatchFrames + 1 minimal frames.
  util::Json huge = valid;
  util::JsonArray frames;
  util::Json frame;
  frame["box"] = 7.0;
  frame["coords"] = util::JsonArray{1.0, 2.0, 3.0};
  for (std::size_t i = 0; i <= kMaxBatchFrames; ++i) frames.push_back(frame);
  huge["frames"] = std::move(frames);
  EXPECT_THROW(decode_eval_request(huge), util::ValueError);
}

TEST(ServeProtocol, FuzzTruncationNeverCrashes) {
  const std::string wire = encode_eval_request(sample_request()).dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_eval_request), wire.size());
}

TEST(ServeProtocol, FuzzBitFlipsAreRejectedOrHarmless) {
  const std::string wire = encode_eval_request(sample_request()).dump();
  // A flip can land in a string or digit and stay in-contract; the decode
  // must still uphold its invariants.
  const test_support::FlipTally tally = test_support::fuzz_bit_flips(
      wire, decode_eval_request, [](const EvalRequest& request) {
        for (const md::Frame& frame : request.frames) {
          EXPECT_GT(frame.box_length, 0.0);
          EXPECT_FALSE(frame.positions.empty());
        }
      });
  EXPECT_GT(tally.rejected, 0u);
  // Sanity: the pass exercised every byte.
  EXPECT_EQ(tally.rejected + tally.survived, wire.size() * 3);
}

TEST(ServeProtocol, ReplyFuzzTruncationNeverCrashes) {
  EvalReply reply;
  reply.id = 5;
  reply.model = "m0";
  reply.energies = {-1.5, 2.25};
  reply.forces = {{1, 2, 3}, {4, 5, 6}};
  const std::string wire = encode_eval_reply(reply).dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_eval_reply), wire.size());
}

TEST(ServeProtocol, FuzzIntegerFieldsFailLoudly) {
  // 1e30, -1 and 2.5 in any integer field are typed errors, never a cast.
  test_support::fuzz_integer_fields(encode_eval_request(sample_request()),
                                    {{"id"}}, decode_eval_request);
  EvalReply reply;
  reply.id = 5;
  reply.model = "m0";
  reply.energies = {-1.5};
  test_support::fuzz_integer_fields(encode_eval_reply(reply), {{"id"}},
                                    decode_eval_reply);
  test_support::fuzz_integer_fields(
      encode_error(ErrorReply{3, ErrorCode::kOverloaded, "busy"}), {{"id"}},
      decode_error);
  const std::vector<CatalogModel> models = {{"m0", 0, 8, "spec", {}}};
  test_support::fuzz_integer_fields(encode_catalog_reply(1, models),
                                    {{"models", "0", "rank"}, {"models", "0", "atoms"}},
                                    decode_catalog_reply);
}

}  // namespace
}  // namespace dpho::serve
