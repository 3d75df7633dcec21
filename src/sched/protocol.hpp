// Wire protocol of the dpho_sched multi-tenant HPO scheduler daemon.
//
// Messages ride the same hpc::net framing (4-byte big-endian length +
// compact JSON, "t"-tagged) as dp_serve and the process-cluster workers.
// Request kinds:
//
//   {"t":"submit","id":3,"spec":{"name":"a","seed":"000000000000002a",...}}
//   {"t":"status","id":4,"run":"a","record":false}
//   {"t":"cancel","id":5,"run":"a"}
//   {"t":"list","id":6}
//
// and two reply kinds:
//
//   {"t":"result","id":4,"body":{...}}   // per-request body, see scheduler
//   {"t":"error","id":4,"code":"unknown_run","message":"..."}
//
// A status request with "record":true embeds the finished run's full
// RunRecord JSON in the body ("not_finished" error while the run is still
// active), which is how `dpho_sched_client result` fetches archives.
//
// Seeds are 64-bit and travel as fixed-width hex strings (hpc::net::wire's
// encode_u64), since JSON numbers cannot hold the full uint64 range.
//
// Decoders read every field through the shared hpc/net/wire field layer and
// throw util::ParseError (malformed JSON or missing/ill-typed fields) or
// util::ValueError (structurally valid but out-of-contract values, e.g. an
// empty run name, a zero population or a count that is not an integer in
// [0, 2^64)).  They never crash on hostile input; tests/support/codec_fuzz.hpp
// feeds them truncated and bit-flipped frames and out-of-range integers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/net/wire.hpp"
#include "util/json.hpp"

namespace dpho::sched {

/// Message type tags ("t" values).
inline constexpr const char* kMsgSubmit = "submit";
inline constexpr const char* kMsgStatus = "status";
inline constexpr const char* kMsgCancel = "cancel";
inline constexpr const char* kMsgList = "list";
inline constexpr const char* kMsgResult = "result";
inline constexpr const char* kMsgError = "error";

/// Longest accepted run name; names are path components under the state dir.
inline constexpr std::size_t kMaxRunName = 64;

/// Why the scheduler refused a request.
enum class ErrorCode {
  kBadRequest,    // malformed message or out-of-contract spec
  kUnknownRun,    // run name never submitted
  kDuplicateRun,  // run name already submitted this scheduler lifetime
  kTooManyRuns,   // active-tenant cap reached
  kNotFinished,   // record requested while the run is still active
  kInternal,      // unexpected server-side failure
};

std::string to_string(ErrorCode code);
/// Inverse of to_string; throws util::ValueError on an unknown code string.
ErrorCode error_code_from_string(const std::string& name);

/// One tenant's lifecycle phase.
enum class RunPhase {
  kActive,     // stepping on the shared pool
  kDone,       // budget exhausted, result.json written
  kCancelled,  // retired by a cancel request
  kFailed,     // an exception ended the run (see RunStatus::error)
};

std::string to_string(RunPhase phase);
RunPhase run_phase_from_string(const std::string& name);

/// One HPO run submission: the input.json-shaped slice of core::EngineConfig
/// (steady-state mode) the scheduler exposes, plus multiplexing knobs
/// (weight, max_in_flight).
struct RunSpec {
  std::string name;                  // [A-Za-z0-9_-]+, unique per scheduler
  std::uint64_t seed = 0;
  std::size_t population_size = 10;  // archive capacity mu
  std::size_t num_workers = 3;       // concurrent evaluations this run targets
  std::size_t total_evaluations = 30;
  std::size_t weight = 1;            // weighted-round-robin share (>= 1)
  /// Cap on this run's forwarded-but-unfinished tasks; 0 = num_workers.
  std::size_t max_in_flight = 0;
  std::size_t checkpoint_every = 1;  // completions between checkpoint writes
  bool include_runtime_objective = false;
};

/// Throws util::ValueError unless `name` is a non-empty [A-Za-z0-9_-] string
/// of at most kMaxRunName characters (it becomes a directory name).
void validate_run_name(const std::string& name);
/// Full-spec validation (name, positive population/budget/weight, budget
/// covers the initial wave).
void validate_run_spec(const RunSpec& spec);

util::Json run_spec_to_json(const RunSpec& spec);
RunSpec run_spec_from_json(const util::Json& json);

/// One tenant's status as served to clients.
struct RunStatus {
  std::string name;
  RunPhase phase = RunPhase::kActive;
  std::uint64_t seed = 0;
  std::size_t completions = 0;  // evaluations applied to the archive
  std::size_t births = 0;       // offspring submitted
  std::size_t budget = 0;       // total_evaluations target
  std::size_t queued = 0;       // at the mux, not yet forwarded
  std::size_t outstanding = 0;  // forwarded to the pool, not yet resolved
  double now_minutes = 0.0;     // the run's stream clock
  std::string error;            // non-empty iff phase == kFailed
};

util::Json run_status_to_json(const RunStatus& status);
RunStatus run_status_from_json(const util::Json& json);

// --- requests --------------------------------------------------------------

struct SubmitRequest {
  std::uint64_t id = 0;  // client-chosen correlation id, echoed in the reply
  RunSpec spec;
};

struct StatusRequest {
  std::uint64_t id = 0;
  std::string run;
  bool want_record = false;  // embed the finished run's RunRecord JSON
};

struct CancelRequest {
  std::uint64_t id = 0;
  std::string run;
};

struct ListRequest {
  std::uint64_t id = 0;
};

// --- replies ---------------------------------------------------------------

/// The universal success reply: the request-specific body under "body".
struct ResultReply {
  std::uint64_t id = 0;
  util::Json body;
};

struct ErrorReply {
  std::uint64_t id = 0;  // 0 when the offending request yielded no id
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// The "t" tag of a decoded message (the shared wire field layer).
using hpc::net::message_type;

util::Json encode_submit_request(const SubmitRequest& request);
SubmitRequest decode_submit_request(const util::Json& message);

util::Json encode_status_request(const StatusRequest& request);
StatusRequest decode_status_request(const util::Json& message);

util::Json encode_cancel_request(const CancelRequest& request);
CancelRequest decode_cancel_request(const util::Json& message);

util::Json encode_list_request(const ListRequest& request);
ListRequest decode_list_request(const util::Json& message);

util::Json encode_result_reply(const ResultReply& reply);
ResultReply decode_result_reply(const util::Json& message);

util::Json encode_error(const ErrorReply& error);
ErrorReply decode_error(const util::Json& message);

}  // namespace dpho::sched
