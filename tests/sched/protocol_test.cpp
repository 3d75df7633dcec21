// sched protocol codec: round trips are exact (seeds survive as full 64-bit
// values), validation guards every field that becomes a path component or an
// engine parameter, and hostile input -- truncation, bit flips, out-of-range
// integers, structural garbage -- always surfaces as a typed util error,
// never a crash or a silently out-of-contract decode.  The fuzz passes run
// through tests/support/codec_fuzz.hpp.
#include "sched/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

#include "codec_fuzz.hpp"

namespace dpho::sched {
namespace {

/// Copy of `json` with one key dropped (util::JsonObject has no erase).
util::Json without(const util::Json& json, const std::string& key) {
  util::Json out;
  for (const auto& [k, v] : json.as_object()) {
    if (k != key) out[k] = v;
  }
  return out;
}

RunSpec sample_spec() {
  RunSpec spec;
  spec.name = "tenant-a_1";
  spec.seed = 0xDEADBEEFCAFEBABEull;  // exercises the full uint64 range
  spec.population_size = 12;
  spec.num_workers = 4;
  spec.total_evaluations = 48;
  spec.weight = 3;
  spec.max_in_flight = 2;
  spec.checkpoint_every = 5;
  spec.include_runtime_objective = true;
  return spec;
}

RunStatus sample_status() {
  RunStatus status;
  status.name = "tenant-a_1";
  status.phase = RunPhase::kActive;
  status.seed = 0xDEADBEEFCAFEBABEull;
  status.completions = 7;
  status.births = 10;
  status.budget = 48;
  status.queued = 1;
  status.outstanding = 2;
  status.now_minutes = 123.5;
  return status;
}

TEST(SchedProtocol, RunSpecRoundTripIsExact) {
  const RunSpec spec = sample_spec();
  // Through the full wire path: encode -> compact dump -> parse -> decode.
  const RunSpec back =
      run_spec_from_json(util::Json::parse(run_spec_to_json(spec).dump()));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.population_size, spec.population_size);
  EXPECT_EQ(back.num_workers, spec.num_workers);
  EXPECT_EQ(back.total_evaluations, spec.total_evaluations);
  EXPECT_EQ(back.weight, spec.weight);
  EXPECT_EQ(back.max_in_flight, spec.max_in_flight);
  EXPECT_EQ(back.checkpoint_every, spec.checkpoint_every);
  EXPECT_TRUE(back.include_runtime_objective);
}

TEST(SchedProtocol, RunSpecOptionalFieldsDefault) {
  util::Json wire = run_spec_to_json(sample_spec());
  wire = without(wire, "weight");
  wire = without(wire, "max_in_flight");
  wire = without(wire, "checkpoint_every");
  const RunSpec back = run_spec_from_json(wire);
  EXPECT_EQ(back.weight, 1u);
  EXPECT_EQ(back.max_in_flight, 0u);
  EXPECT_EQ(back.checkpoint_every, 1u);
}

TEST(SchedProtocol, RunStatusRoundTripIsExact) {
  const RunStatus status = sample_status();
  const RunStatus back =
      run_status_from_json(util::Json::parse(run_status_to_json(status).dump()));
  EXPECT_EQ(back.name, status.name);
  EXPECT_EQ(back.phase, status.phase);
  EXPECT_EQ(back.seed, status.seed);
  EXPECT_EQ(back.completions, status.completions);
  EXPECT_EQ(back.births, status.births);
  EXPECT_EQ(back.budget, status.budget);
  EXPECT_EQ(back.queued, status.queued);
  EXPECT_EQ(back.outstanding, status.outstanding);
  EXPECT_DOUBLE_EQ(back.now_minutes, status.now_minutes);
}

TEST(SchedProtocol, RequestAndReplyRoundTrips) {
  SubmitRequest submit;
  submit.id = 42;
  submit.spec = sample_spec();
  const SubmitRequest submit_back = decode_submit_request(
      util::Json::parse(encode_submit_request(submit).dump()));
  EXPECT_EQ(submit_back.id, 42u);
  EXPECT_EQ(submit_back.spec.name, submit.spec.name);
  EXPECT_EQ(submit_back.spec.seed, submit.spec.seed);

  const StatusRequest status_back = decode_status_request(util::Json::parse(
      encode_status_request(StatusRequest{7, "tenant-a_1", true}).dump()));
  EXPECT_EQ(status_back.id, 7u);
  EXPECT_EQ(status_back.run, "tenant-a_1");
  EXPECT_TRUE(status_back.want_record);

  const CancelRequest cancel_back = decode_cancel_request(
      util::Json::parse(encode_cancel_request(CancelRequest{8, "x"}).dump()));
  EXPECT_EQ(cancel_back.id, 8u);
  EXPECT_EQ(cancel_back.run, "x");

  const ListRequest list_back = decode_list_request(
      util::Json::parse(encode_list_request(ListRequest{9}).dump()));
  EXPECT_EQ(list_back.id, 9u);

  ResultReply result;
  result.id = 7;
  result.body = util::Json();
  result.body["run"] = run_status_to_json(sample_status());
  const ResultReply result_back = decode_result_reply(
      util::Json::parse(encode_result_reply(result).dump()));
  EXPECT_EQ(result_back.id, 7u);
  EXPECT_EQ(run_status_from_json(result_back.body.at("run")).completions, 7u);
}

TEST(SchedProtocol, ErrorRoundTripAndCodeStrings) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownRun, ErrorCode::kDuplicateRun,
        ErrorCode::kTooManyRuns, ErrorCode::kNotFinished, ErrorCode::kInternal}) {
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

TEST(SchedProtocol, PhaseStringsRoundTrip) {
  for (const RunPhase phase : {RunPhase::kActive, RunPhase::kDone,
                               RunPhase::kCancelled, RunPhase::kFailed}) {
    EXPECT_EQ(run_phase_from_string(to_string(phase)), phase);
  }
  EXPECT_THROW(run_phase_from_string("paused"), util::ValueError);
}

TEST(SchedProtocol, RunNameValidationGuardsThePathComponent) {
  EXPECT_NO_THROW(validate_run_name("abc-DEF_09"));
  EXPECT_THROW(validate_run_name(""), util::ValueError);
  EXPECT_THROW(validate_run_name(std::string(kMaxRunName + 1, 'a')),
               util::ValueError);
  EXPECT_NO_THROW(validate_run_name(std::string(kMaxRunName, 'a')));
  // Anything that could escape or alias inside state_dir/runs/.
  for (const char* hostile : {"../evil", "a/b", "a.b", "a b", "a\tb", "a\nb",
                              ".", "..", "caf\xc3\xa9"}) {
    EXPECT_THROW(validate_run_name(hostile), util::ValueError) << hostile;
  }
}

TEST(SchedProtocol, RunSpecValidationRejectsOutOfContractValues) {
  auto mutate = [](auto&& fn) {
    RunSpec spec = sample_spec();
    fn(spec);
    return spec;
  };
  EXPECT_NO_THROW(validate_run_spec(sample_spec()));
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) { s.name = "e/vil"; })),
               util::ValueError);
  EXPECT_THROW(
      validate_run_spec(mutate([](RunSpec& s) { s.population_size = 0; })),
      util::ValueError);
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) { s.num_workers = 0; })),
               util::ValueError);
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) { s.weight = 0; })),
               util::ValueError);
  // The budget must cover the initial wave (one birth per worker).
  EXPECT_THROW(validate_run_spec(mutate([](RunSpec& s) {
                 s.total_evaluations = s.num_workers - 1;
               })),
               util::ValueError);
}

TEST(SchedProtocol, DecoderRejectsStructuralGarbage) {
  const util::Json valid =
      encode_submit_request(SubmitRequest{1, sample_spec()});
  EXPECT_THROW(message_type(util::Json::parse("[]")), util::ParseError);
  EXPECT_THROW(message_type(util::Json::parse("{\"x\":1}")), util::ParseError);
  EXPECT_THROW(decode_submit_request(util::Json::parse("{\"t\":\"status\"}")),
               util::ParseError);

  auto mutate = [&](auto&& fn) {
    util::Json copy = valid;
    fn(copy);
    return copy;
  };
  EXPECT_THROW(decode_submit_request(without(valid, "spec")),
               util::ParseError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["spec"]["seed"] = "xyzt";  // not hex
               })),
               util::ParseError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["spec"]["name"] = "../evil";
               })),
               util::ValueError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["spec"]["population_size"] = -4.0;
               })),
               util::ValueError);
  EXPECT_THROW(decode_submit_request(mutate([](util::Json& m) {
                 m["id"] = -1.0;
               })),
               util::ValueError);
  // A failed status must carry its error; an active one must not need it.
  util::Json failed = run_status_to_json(sample_status());
  failed["phase"] = to_string(RunPhase::kFailed);
  failed = without(failed, "error");
  EXPECT_THROW(run_status_from_json(failed), util::ValueError);
  util::Json negative_clock = run_status_to_json(sample_status());
  negative_clock["now_minutes"] = -1.0;
  EXPECT_THROW(run_status_from_json(negative_clock), util::ValueError);
}

TEST(SchedProtocol, FuzzTruncationNeverCrashes) {
  const std::string wire =
      encode_submit_request(SubmitRequest{1, sample_spec()}).dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_submit_request),
            wire.size());
}

TEST(SchedProtocol, FuzzBitFlipsAreRejectedOrStayInContract) {
  const std::string wire =
      encode_submit_request(SubmitRequest{1, sample_spec()}).dump();
  // A flip can land in a digit or name character and stay legal; the
  // decoder's invariants must hold on anything it accepts.
  const test_support::FlipTally tally = test_support::fuzz_bit_flips(
      wire, decode_submit_request, [](const SubmitRequest& request) {
        EXPECT_NO_THROW(validate_run_spec(request.spec));
      });
  EXPECT_GT(tally.rejected, 0u);
  // Sanity: the pass exercised every byte.
  EXPECT_EQ(tally.rejected + tally.survived, wire.size() * 3);
}

TEST(SchedProtocol, ReplyFuzzTruncationNeverCrashes) {
  ResultReply reply;
  reply.id = 5;
  reply.body = util::Json();
  reply.body["run"] = run_status_to_json(sample_status());
  const std::string wire = encode_result_reply(reply).dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_result_reply),
            wire.size());
  const std::string error_wire =
      encode_error(ErrorReply{3, ErrorCode::kUnknownRun, "gone"}).dump();
  EXPECT_EQ(test_support::fuzz_truncation(error_wire, decode_error),
            error_wire.size());
}

TEST(SchedProtocol, FuzzIntegerFieldsFailLoudly) {
  // 1e30, -1 and 2.5 in any integer field are typed errors, never a cast.
  test_support::fuzz_integer_fields(encode_list_request(ListRequest{6}),
                                    {{"id"}}, decode_list_request);
  test_support::fuzz_integer_fields(
      encode_submit_request(SubmitRequest{1, sample_spec()}),
      {{"id"},
       {"spec", "population_size"},
       {"spec", "num_workers"},
       {"spec", "total_evaluations"},
       {"spec", "weight"},
       {"spec", "max_in_flight"},
       {"spec", "checkpoint_every"}},
      decode_submit_request);
  test_support::fuzz_integer_fields(
      encode_status_request(StatusRequest{7, "a", false}), {{"id"}},
      decode_status_request);
  test_support::fuzz_integer_fields(encode_cancel_request(CancelRequest{8, "a"}),
                                    {{"id"}}, decode_cancel_request);
  test_support::fuzz_integer_fields(
      run_status_to_json(sample_status()),
      {{"completions"}, {"births"}, {"budget"}, {"queued"}, {"outstanding"}},
      run_status_from_json);
  ResultReply reply;
  reply.id = 5;
  reply.body = util::Json();
  test_support::fuzz_integer_fields(encode_result_reply(reply), {{"id"}},
                                    decode_result_reply);
  test_support::fuzz_integer_fields(
      encode_error(ErrorReply{3, ErrorCode::kUnknownRun, "gone"}), {{"id"}},
      decode_error);
}

}  // namespace
}  // namespace dpho::sched
