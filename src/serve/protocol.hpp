// Wire protocol of the dp_serve inference daemon.
//
// Messages ride the hpc::net framing (4-byte big-endian length + compact
// JSON, "t"-tagged) that the process cluster already uses, so dp_serve needs
// no new transport.  Three request kinds:
//
//   {"t":"eval","id":7,"model":"m3","forces":true,
//    "frames":[{"box":17.84,"coords":[x0,y0,z0,x1,...]}, ...]}
//   {"t":"catalog","id":1}
//
// and two reply kinds:
//
//   {"t":"result","id":7,"model":"m3","energies":[...],
//    "forces":[[fx0,fy0,fz0,...], ...]}          // present iff requested
//   {"t":"error","id":7,"code":"overloaded","message":"..."}
//
// Coordinates and results are JSON numbers serialized with the shortest
// round-trip representation (util::Json), so a frame evaluated through the
// daemon is bit-identical to a direct dp::Potential::evaluate of the same
// frame -- the serve e2e tests assert exactly that.
//
// Decoders read every field through the shared hpc/net/wire field layer and
// throw util::ParseError (malformed JSON or missing/ill-typed fields) or
// util::ValueError (structurally valid but out-of-contract values, e.g. an
// id that is not an integer in [0, 2^64), a coords list that is not a
// multiple of 3, or a batch beyond kMaxBatchFrames).  They never crash on
// hostile input; tests/support/codec_fuzz.hpp feeds them truncated and
// bit-flipped frames and out-of-range integers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/net/wire.hpp"
#include "md/dataset.hpp"
#include "util/json.hpp"

namespace dpho::serve {

/// Hard batch ceiling per request; a request above this is refused with
/// kTooLarge before any evaluation work is queued.
inline constexpr std::size_t kMaxBatchFrames = 4096;

/// Message type tags ("t" values).
inline constexpr const char* kMsgEval = "eval";
inline constexpr const char* kMsgResult = "result";
inline constexpr const char* kMsgCatalog = "catalog";
inline constexpr const char* kMsgError = "error";

/// Why the daemon refused a request.
enum class ErrorCode {
  kOverloaded,    // request queue full or daemon draining
  kBadRequest,    // malformed message or wrong atom count
  kUnknownModel,  // model id not in the served selection
  kTooLarge,      // frame or batch above the configured caps
  kInternal,      // unexpected server-side failure
};

std::string to_string(ErrorCode code);
/// Throws util::ValueError on an unknown code string.
ErrorCode error_code_from_string(const std::string& name);

/// A batched energy/force request.  Frames carry positions and box only;
/// energy/forces members of md::Frame are ignored on the request path.
struct EvalRequest {
  std::uint64_t id = 0;  // client-chosen correlation id, echoed in the reply
  std::string model;     // archive id of the potential to evaluate with
  bool want_forces = false;
  std::vector<md::Frame> frames;
};

/// The answer to one EvalRequest, in frame order.
struct EvalReply {
  std::uint64_t id = 0;
  std::string model;
  std::vector<double> energies;
  // forces[f] is the flat [x0,y0,z0,x1,...] force vector of frame f; empty
  // when forces were not requested.
  std::vector<std::vector<double>> forces;
};

/// An error reply.  `id` is 0 when the offending request could not be parsed
/// far enough to recover one.
struct ErrorReply {
  std::uint64_t id = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// One catalog row as served to clients (a trimmed ArchiveEntry).
struct CatalogModel {
  std::string id;
  int rank = 0;
  std::size_t num_atoms = 0;
  std::string spec;  // human-readable ModelSpec::describe()
  std::vector<std::pair<std::string, double>> objectives;
};

/// The "t" tag of a decoded message (the shared wire field layer).
using hpc::net::message_type;

util::Json encode_eval_request(const EvalRequest& request);
EvalRequest decode_eval_request(const util::Json& message);

util::Json encode_eval_reply(const EvalReply& reply);
EvalReply decode_eval_reply(const util::Json& message);

util::Json encode_error(const ErrorReply& error);
ErrorReply decode_error(const util::Json& message);

util::Json encode_catalog_request(std::uint64_t id);
util::Json encode_catalog_reply(std::uint64_t id,
                                const std::vector<CatalogModel>& models);
std::vector<CatalogModel> decode_catalog_reply(const util::Json& message);

}  // namespace dpho::serve
