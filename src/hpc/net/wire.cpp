#include "hpc/net/wire.hpp"

#include <charconv>
#include <cstdio>

#include "hpc/net/frame.hpp"
#include "util/error.hpp"

namespace dpho::hpc::net {

namespace {

const util::Json& field(const util::Json& message, const std::string& key,
                        bool (util::Json::*is_kind)() const, const char* kind) {
  if (!message.contains(key) || !(message.at(key).*is_kind)()) {
    throw util::ParseError("wire message: missing " + std::string(kind) +
                           " field " + key);
  }
  return message.at(key);
}

}  // namespace

std::string message_type(const util::Json& message) {
  if (!message.is_object() || !message.contains("t") ||
      !message.at("t").is_string()) {
    throw util::ParseError("wire message without a \"t\" tag");
  }
  return message.at("t").as_string();
}

void expect_type(const util::Json& message, const char* tag) {
  const std::string type = message_type(message);
  if (type != tag) {
    throw util::ParseError("wire message: expected t=" + std::string(tag) +
                           ", got t=" + type);
  }
}

std::uint64_t uint_field(const util::Json& message, const std::string& key) {
  const util::Json& value = field(message, key, &util::Json::is_number, "numeric");
  try {
    return value.as_uint();
  } catch (const util::ValueError&) {
    throw util::ValueError("wire message: field " + key +
                           " must be an integer in [0, 2^64), got " + value.dump());
  }
}

double number_field(const util::Json& message, const std::string& key) {
  return field(message, key, &util::Json::is_number, "numeric").as_number();
}

const std::string& string_field(const util::Json& message, const std::string& key) {
  return field(message, key, &util::Json::is_string, "string").as_string();
}

const util::JsonArray& array_field(const util::Json& message,
                                   const std::string& key) {
  return field(message, key, &util::Json::is_array, "array").as_array();
}

std::vector<double> numbers_field(const util::Json& message, const std::string& key) {
  std::vector<double> values;
  for (const util::Json& value : array_field(message, key)) {
    if (!value.is_number()) {
      throw util::ParseError("wire message: field " + key + " holds a non-number");
    }
    values.push_back(value.as_number());
  }
  return values;
}

bool bool_field(const util::Json& message, const std::string& key, bool fallback) {
  if (!message.contains(key)) return fallback;
  return field(message, key, &util::Json::is_bool, "bool").as_bool();
}

std::uint64_t reply_id(const util::Json& request) noexcept {
  try {
    return uint_field(request, "id");
  } catch (const std::exception&) {
    return 0;
  }
}

std::string encode_u64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t decode_u64(const std::string& hex) {
  // from_chars takes bare digits only, and 16 of them cannot overflow.
  std::uint64_t value = 0;
  const char* end = hex.data() + hex.size();
  if (hex.empty() || hex.size() > 16 ||
      std::from_chars(hex.data(), end, value, 16).ptr != end) {
    throw util::ParseError("bad u64 hex field: \"" + hex + "\"");
  }
  return value;
}

util::Json exchange(int fd, const util::Json& request) {
  if (!write_frame(fd, request.dump())) {
    throw util::IoError("peer closed the connection");
  }
  const std::optional<std::string> reply = read_frame(fd);
  if (!reply) throw util::IoError("connection lost awaiting the reply");
  return util::Json::parse(*reply);
}

util::Json encode_hello(std::size_t token, std::int64_t pid) {
  util::Json msg;
  msg["t"] = kMsgHello;
  msg["token"] = token;
  msg["pid"] = pid;
  return msg;
}

util::Json encode_init(const std::string& eval_config_json,
                       double heartbeat_interval_seconds) {
  util::Json msg;
  msg["t"] = kMsgInit;
  msg["eval_config"] = eval_config_json.empty()
                           ? util::Json(util::JsonObject{})
                           : util::Json::parse(eval_config_json);
  msg["heartbeat_interval_seconds"] = heartbeat_interval_seconds;
  return msg;
}

util::Json encode_heartbeat(std::uint64_t seq) {
  util::Json msg;
  msg["t"] = kMsgHeartbeat;
  msg["seq"] = encode_u64(seq);
  return msg;
}

util::Json encode_task(const TaskSpec& spec, double straggler_seconds) {
  util::Json msg;
  msg["t"] = kMsgTask;
  msg["id"] = spec.id;
  util::JsonArray genome;
  for (double gene : spec.genome) genome.emplace_back(gene);
  msg["genome"] = util::Json(std::move(genome));
  msg["eval_seed"] = encode_u64(spec.eval_seed);
  msg["uuid"] = spec.uuid;
  if (straggler_seconds > 0.0) msg["straggler_seconds"] = straggler_seconds;
  return msg;
}

util::Json encode_result(std::size_t id, const WorkResult& result) {
  util::Json msg;
  msg["t"] = kMsgResult;
  msg["id"] = id;
  util::JsonArray fitness;
  for (double f : result.fitness) fitness.emplace_back(f);
  msg["fitness"] = util::Json(std::move(fitness));
  msg["sim_minutes"] = result.sim_minutes;
  msg["training_error"] = result.training_error;
  msg["cause"] = to_string(result.cause);
  msg["attempts"] = result.attempts;
  return msg;
}

util::Json encode_shutdown() {
  util::Json msg;
  msg["t"] = kMsgShutdown;
  return msg;
}

std::size_t hello_token(const util::Json& message) {
  return uint_field(message, "token");
}

TaskSpec decode_task(const util::Json& message) {
  TaskSpec spec;
  spec.id = uint_field(message, "id");
  spec.genome = numbers_field(message, "genome");
  spec.eval_seed = decode_u64(string_field(message, "eval_seed"));
  spec.uuid = string_field(message, "uuid");
  return spec;
}

double task_straggler_seconds(const util::Json& message) {
  return message.number_or("straggler_seconds", 0.0);
}

std::size_t result_id(const util::Json& message) {
  return uint_field(message, "id");
}

WorkResult decode_result(const util::Json& message) {
  WorkResult result;
  result.fitness = numbers_field(message, "fitness");
  result.sim_minutes = number_field(message, "sim_minutes");
  result.training_error = message.at("training_error").as_bool();
  result.cause = failure_cause_from_string(string_field(message, "cause"));
  result.attempts = message.contains("attempts") ? uint_field(message, "attempts") : 1;
  return result;
}

}  // namespace dpho::hpc::net
