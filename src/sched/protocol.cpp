#include "sched/protocol.hpp"

#include "hpc/net/wire.hpp"
#include "util/error.hpp"

namespace dpho::sched {

using hpc::net::bool_field;
using hpc::net::expect_type;
using hpc::net::number_field;
using hpc::net::string_field;
using hpc::net::uint_field;

std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownRun: return "unknown_run";
    case ErrorCode::kDuplicateRun: return "duplicate_run";
    case ErrorCode::kTooManyRuns: return "too_many_runs";
    case ErrorCode::kNotFinished: return "not_finished";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ErrorCode error_code_from_string(const std::string& name) {
  if (name == "bad_request") return ErrorCode::kBadRequest;
  if (name == "unknown_run") return ErrorCode::kUnknownRun;
  if (name == "duplicate_run") return ErrorCode::kDuplicateRun;
  if (name == "too_many_runs") return ErrorCode::kTooManyRuns;
  if (name == "not_finished") return ErrorCode::kNotFinished;
  if (name == "internal") return ErrorCode::kInternal;
  throw util::ValueError("sched message: unknown error code " + name);
}

std::string to_string(RunPhase phase) {
  switch (phase) {
    case RunPhase::kActive: return "active";
    case RunPhase::kDone: return "done";
    case RunPhase::kCancelled: return "cancelled";
    case RunPhase::kFailed: return "failed";
  }
  return "failed";
}

RunPhase run_phase_from_string(const std::string& name) {
  if (name == "active") return RunPhase::kActive;
  if (name == "done") return RunPhase::kDone;
  if (name == "cancelled") return RunPhase::kCancelled;
  if (name == "failed") return RunPhase::kFailed;
  throw util::ValueError("sched message: unknown run phase " + name);
}

void validate_run_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxRunName) {
    throw util::ValueError("sched: run name must be 1.." +
                           std::to_string(kMaxRunName) + " characters");
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      throw util::ValueError(
          "sched: run name must match [A-Za-z0-9_-]+, got \"" + name + "\"");
    }
  }
}

void validate_run_spec(const RunSpec& spec) {
  validate_run_name(spec.name);
  if (spec.population_size == 0) {
    throw util::ValueError("sched: population_size must be positive");
  }
  if (spec.num_workers == 0) {
    throw util::ValueError("sched: num_workers must be positive");
  }
  if (spec.weight == 0) {
    throw util::ValueError("sched: weight must be >= 1");
  }
  if (spec.total_evaluations < spec.num_workers) {
    throw util::ValueError(
        "sched: total_evaluations must cover the initial wave (>= "
        "num_workers)");
  }
}

util::Json run_spec_to_json(const RunSpec& spec) {
  util::Json json;
  json["name"] = spec.name;
  json["seed"] = hpc::net::encode_u64(spec.seed);
  json["population_size"] = spec.population_size;
  json["num_workers"] = spec.num_workers;
  json["total_evaluations"] = spec.total_evaluations;
  json["weight"] = spec.weight;
  json["max_in_flight"] = spec.max_in_flight;
  json["checkpoint_every"] = spec.checkpoint_every;
  json["include_runtime_objective"] = spec.include_runtime_objective;
  return json;
}

RunSpec run_spec_from_json(const util::Json& json) {
  RunSpec spec;  // a non-object spec fails string_field like a missing name
  spec.name = string_field(json, "name");
  spec.seed = hpc::net::decode_u64(string_field(json, "seed"));
  spec.population_size = uint_field(json, "population_size");
  spec.num_workers = uint_field(json, "num_workers");
  spec.total_evaluations = uint_field(json, "total_evaluations");
  if (json.contains("weight")) spec.weight = uint_field(json, "weight");
  if (json.contains("max_in_flight")) {
    spec.max_in_flight = uint_field(json, "max_in_flight");
  }
  if (json.contains("checkpoint_every")) {
    spec.checkpoint_every = uint_field(json, "checkpoint_every");
  }
  spec.include_runtime_objective =
      bool_field(json, "include_runtime_objective", false);
  validate_run_spec(spec);
  return spec;
}

util::Json run_status_to_json(const RunStatus& status) {
  util::Json json;
  json["name"] = status.name;
  json["phase"] = to_string(status.phase);
  json["seed"] = hpc::net::encode_u64(status.seed);
  json["completions"] = status.completions;
  json["births"] = status.births;
  json["budget"] = status.budget;
  json["queued"] = status.queued;
  json["outstanding"] = status.outstanding;
  json["now_minutes"] = status.now_minutes;
  if (!status.error.empty()) json["error"] = status.error;
  return json;
}

RunStatus run_status_from_json(const util::Json& json) {
  RunStatus status;  // a non-object status fails string_field like a missing name
  status.name = string_field(json, "name");
  validate_run_name(status.name);
  status.phase = run_phase_from_string(string_field(json, "phase"));
  status.seed = hpc::net::decode_u64(string_field(json, "seed"));
  status.completions = uint_field(json, "completions");
  status.births = uint_field(json, "births");
  status.budget = uint_field(json, "budget");
  status.queued = uint_field(json, "queued");
  status.outstanding = uint_field(json, "outstanding");
  status.now_minutes = number_field(json, "now_minutes");
  if (status.now_minutes < 0.0) {
    throw util::ValueError("sched message: now_minutes must be >= 0");
  }
  if (json.contains("error")) status.error = string_field(json, "error");
  if (status.phase == RunPhase::kFailed && status.error.empty()) {
    throw util::ValueError("sched message: failed status must carry an error");
  }
  return status;
}

util::Json encode_submit_request(const SubmitRequest& request) {
  util::Json message;
  message["t"] = kMsgSubmit;
  message["id"] = request.id;
  message["spec"] = run_spec_to_json(request.spec);
  return message;
}

SubmitRequest decode_submit_request(const util::Json& message) {
  expect_type(message, kMsgSubmit);
  SubmitRequest request;
  request.id = uint_field(message, "id");
  if (!message.contains("spec")) {
    throw util::ParseError("sched message: submit needs a spec");
  }
  request.spec = run_spec_from_json(message.at("spec"));
  return request;
}

util::Json encode_status_request(const StatusRequest& request) {
  util::Json message;
  message["t"] = kMsgStatus;
  message["id"] = request.id;
  message["run"] = request.run;
  message["record"] = request.want_record;
  return message;
}

StatusRequest decode_status_request(const util::Json& message) {
  expect_type(message, kMsgStatus);
  StatusRequest request;
  request.id = uint_field(message, "id");
  request.run = string_field(message, "run");
  validate_run_name(request.run);
  request.want_record = bool_field(message, "record", false);
  return request;
}

util::Json encode_cancel_request(const CancelRequest& request) {
  util::Json message;
  message["t"] = kMsgCancel;
  message["id"] = request.id;
  message["run"] = request.run;
  return message;
}

CancelRequest decode_cancel_request(const util::Json& message) {
  expect_type(message, kMsgCancel);
  CancelRequest request;
  request.id = uint_field(message, "id");
  request.run = string_field(message, "run");
  validate_run_name(request.run);
  return request;
}

util::Json encode_list_request(const ListRequest& request) {
  util::Json message;
  message["t"] = kMsgList;
  message["id"] = request.id;
  return message;
}

ListRequest decode_list_request(const util::Json& message) {
  expect_type(message, kMsgList);
  ListRequest request;
  request.id = uint_field(message, "id");
  return request;
}

util::Json encode_result_reply(const ResultReply& reply) {
  util::Json message;
  message["t"] = kMsgResult;
  message["id"] = reply.id;
  message["body"] = reply.body;
  return message;
}

ResultReply decode_result_reply(const util::Json& message) {
  expect_type(message, kMsgResult);
  ResultReply reply;
  reply.id = uint_field(message, "id");
  if (!message.contains("body")) {
    throw util::ParseError("sched message: result needs a body");
  }
  reply.body = message.at("body");
  return reply;
}

util::Json encode_error(const ErrorReply& error) {
  util::Json message;
  message["t"] = kMsgError;
  message["id"] = error.id;
  message["code"] = to_string(error.code);
  message["message"] = error.message;
  return message;
}

ErrorReply decode_error(const util::Json& message) {
  expect_type(message, kMsgError);
  ErrorReply error;
  error.id = uint_field(message, "id");
  error.code = error_code_from_string(string_field(message, "code"));
  error.message = string_field(message, "message");
  return error;
}

}  // namespace dpho::sched
