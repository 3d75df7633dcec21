// The message layer every loopback protocol shares, plus the codec of the
// scheduler <-> worker protocol.
//
// Every frame payload (net/frame.hpp) is one compact JSON object tagged by
// "t".  The worker, dp_serve and dpho_sched codecs all read it through the
// one field layer below.  Integers go through uint_field (Json::as_uint), so
// 1e30, -1 and 2.5 are typed errors, never an undefined cast.
//
// The worker vocabulary is deliberately small:
//
//   worker -> scheduler
//     {"t":"hello","token":3,"pid":4711}     first frame after connect
//     {"t":"hb","seq":17}                    heartbeat (liveness proof)
//     {"t":"result","id":5,...}              one finished evaluation
//
//   scheduler -> worker
//     {"t":"init","eval_config":{...},"heartbeat_interval_ms":50}
//     {"t":"task","id":5,"genome":[...],"eval_seed":"1a2b...","uuid":"...",
//      "straggler_seconds":0}                one evaluation to run
//     {"t":"shutdown"}                       orderly exit
//
// eval_seed travels as a hex string: JSON numbers are doubles and cannot
// hold a 64-bit seed losslessly.  straggler_seconds is the real injection
// backend of FaultKind::kStraggler -- the worker sleeps that long before
// evaluating, exactly where the simulator multiplies the runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/cluster_session.hpp"
#include "util/json.hpp"

namespace dpho::hpc::net {

/// Message type tags ("t" values).
inline constexpr const char* kMsgHello = "hello";
inline constexpr const char* kMsgInit = "init";
inline constexpr const char* kMsgHeartbeat = "hb";
inline constexpr const char* kMsgTask = "task";
inline constexpr const char* kMsgResult = "result";
inline constexpr const char* kMsgShutdown = "shutdown";

/// The "t" tag of a decoded message; throws util::ParseError unless the
/// message is an object with a string tag.
std::string message_type(const util::Json& message);
/// Throws util::ParseError unless message_type(message) == tag.
void expect_type(const util::Json& message, const char* tag);

/// Typed field access.  A missing or ill-typed field throws util::ParseError
/// naming the key; uint_field throws util::ValueError unless the number is an
/// integer in [0, 2^64).  bool_field returns `fallback` for an absent key.
std::uint64_t uint_field(const util::Json& message, const std::string& key);
double number_field(const util::Json& message, const std::string& key);
const std::string& string_field(const util::Json& message, const std::string& key);
const util::JsonArray& array_field(const util::Json& message,
                                   const std::string& key);
/// An array field whose elements must all be numbers.
std::vector<double> numbers_field(const util::Json& message, const std::string& key);
bool bool_field(const util::Json& message, const std::string& key, bool fallback);

/// The correlation id a daemon echoes in its reply: "id" when it passes
/// uint_field, else 0.
std::uint64_t reply_id(const util::Json& request) noexcept;

/// Lossless 64-bit <-> hex-string conversion for seeds (JSON numbers are
/// doubles).  decode_u64 takes exactly 1-16 hex digits: no sign, prefix or
/// whitespace; anything else throws util::ParseError.
std::string encode_u64(std::uint64_t value);
std::uint64_t decode_u64(const std::string& hex);

/// One blocking client round trip on a connected fd: writes `request` as a
/// frame, reads the reply frame and parses it.  Throws util::IoError when the
/// peer is gone and util::ParseError on a malformed reply.
util::Json exchange(int fd, const util::Json& request);

util::Json encode_hello(std::size_t token, std::int64_t pid);
util::Json encode_init(const std::string& eval_config_json,
                       double heartbeat_interval_seconds);
util::Json encode_heartbeat(std::uint64_t seq);
util::Json encode_task(const TaskSpec& spec, double straggler_seconds);
util::Json encode_result(std::size_t id, const WorkResult& result);
util::Json encode_shutdown();

/// Field extraction; each throws a util::Error on malformed messages.
std::size_t hello_token(const util::Json& message);
TaskSpec decode_task(const util::Json& message);
double task_straggler_seconds(const util::Json& message);
std::size_t result_id(const util::Json& message);
WorkResult decode_result(const util::Json& message);

}  // namespace dpho::hpc::net
