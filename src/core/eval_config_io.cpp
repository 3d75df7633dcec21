#include "core/eval_config_io.hpp"

#include "util/error.hpp"

namespace dpho::core {

namespace {

// One field list drives both directions so the two cannot drift apart.
#define DPHO_SURROGATE_DOUBLE_FIELDS(X) \
  X(train_steps)                        \
  X(force_floor)                        \
  X(force_rcut_amp)                     \
  X(force_rcut_decay)                   \
  X(force_smth_penalty)                 \
  X(smth_threshold)                     \
  X(energy_floor)                       \
  X(energy_rcut_amp)                    \
  X(energy_rcut_decay)                  \
  X(lr_optimum_log10)                   \
  X(lr_curvature_f)                     \
  X(lr_curvature_e)                     \
  X(stop_lr_best_log10)                 \
  X(stop_lr_penalty_f)                  \
  X(stop_lr_penalty_e)                  \
  X(balance_lo_log10)                   \
  X(balance_span)                       \
  X(tradeoff_force_gain)                \
  X(tradeoff_energy_base)               \
  X(tradeoff_energy_gain)               \
  X(untrained_force)                    \
  X(untrained_energy)                   \
  X(budget_floor)                       \
  X(runtime_base)                       \
  X(runtime_rcut_amp)                   \
  X(runtime_rcut_ref)                   \
  X(failed_runtime_lo)                  \
  X(failed_runtime_hi)                  \
  X(diverge_lr_soft)                    \
  X(diverge_lr_hard)                    \
  X(base_failure_rate)                  \
  X(noise_sigma)                        \
  X(runtime_noise)

util::Json surrogate_to_json(const SurrogateConfig& config) {
  util::Json obj;
  obj["num_workers"] = config.num_workers;
#define DPHO_PUT(field) obj[#field] = config.field;
  DPHO_SURROGATE_DOUBLE_FIELDS(DPHO_PUT)
#undef DPHO_PUT
  return obj;
}

SurrogateConfig surrogate_from_json(const util::Json& json) {
  SurrogateConfig config;
  config.num_workers = json.uint_or("num_workers", config.num_workers);
#define DPHO_GET(field) config.field = json.number_or(#field, config.field);
  DPHO_SURROGATE_DOUBLE_FIELDS(DPHO_GET)
#undef DPHO_GET
  return config;
}

util::Json subprocess_to_json(const SubprocessEvalOptions& options) {
  util::Json obj;
  obj["dp_train_binary"] = options.dp_train_binary.string();
  obj["train_data_dir"] = options.train_data_dir.string();
  obj["validation_data_dir"] = options.validation_data_dir.string();
  obj["workspace_dir"] = options.workspace_dir.string();
  obj["input_template"] = options.input_template;
  obj["wall_limit_seconds"] = options.wall_limit_seconds;
  obj["sim_minutes_per_real_second"] = options.sim_minutes_per_real_second;
  obj["trainer_threads"] = options.trainer_threads;
  obj["max_attempts"] = options.max_attempts;
  obj["retry_backoff_seconds"] = options.retry_backoff_seconds;
  obj["retry_backoff_cap_seconds"] = options.retry_backoff_cap_seconds;
  obj["watchdog_grace_seconds"] = options.watchdog_grace_seconds;
  obj["watchdog_poll_seconds"] = options.watchdog_poll_seconds;
  obj["sigterm_grace_seconds"] = options.sigterm_grace_seconds;
  return obj;
}

SubprocessEvalOptions subprocess_from_json(const util::Json& json) {
  SubprocessEvalOptions options;
  options.dp_train_binary = json.string_or("dp_train_binary", "");
  options.train_data_dir = json.string_or("train_data_dir", "");
  options.validation_data_dir = json.string_or("validation_data_dir", "");
  options.workspace_dir = json.string_or("workspace_dir", "");
  options.input_template = json.string_or("input_template", "");
  options.wall_limit_seconds =
      json.number_or("wall_limit_seconds", options.wall_limit_seconds);
  options.sim_minutes_per_real_second = json.number_or(
      "sim_minutes_per_real_second", options.sim_minutes_per_real_second);
  options.trainer_threads = json.uint_or("trainer_threads", options.trainer_threads);
  options.max_attempts = json.uint_or("max_attempts", options.max_attempts);
  options.retry_backoff_seconds =
      json.number_or("retry_backoff_seconds", options.retry_backoff_seconds);
  options.retry_backoff_cap_seconds = json.number_or(
      "retry_backoff_cap_seconds", options.retry_backoff_cap_seconds);
  options.watchdog_grace_seconds =
      json.number_or("watchdog_grace_seconds", options.watchdog_grace_seconds);
  options.watchdog_poll_seconds =
      json.number_or("watchdog_poll_seconds", options.watchdog_poll_seconds);
  options.sigterm_grace_seconds =
      json.number_or("sigterm_grace_seconds", options.sigterm_grace_seconds);
  return options;
}

}  // namespace

util::Json eval_backend_config_to_json(const EvalBackendConfig& config) {
  util::Json obj;
  obj["backend"] = to_string(config.backend);
  switch (config.backend) {
    case EvalBackend::kSurrogate:
      obj["surrogate"] = surrogate_to_json(config.surrogate);
      return obj;
    case EvalBackend::kSubprocess:
      obj["subprocess"] = subprocess_to_json(config.subprocess);
      return obj;
    case EvalBackend::kRealTraining:
      break;
  }
  throw util::ValueError(
      "eval backend '" + to_string(config.backend) +
      "' holds borrowed datasets and cannot be shipped to a worker");
}

EvalBackendConfig eval_backend_config_from_json(const util::Json& json) {
  if (!json.is_object()) {
    throw util::ParseError("eval config: expected a JSON object");
  }
  EvalBackendConfig config;
  const std::string backend =
      json.string_or("backend", to_string(EvalBackend::kSurrogate));
  if (backend == to_string(EvalBackend::kSurrogate)) {
    config.backend = EvalBackend::kSurrogate;
    if (json.contains("surrogate")) {
      config.surrogate = surrogate_from_json(json.at("surrogate"));
    }
  } else if (backend == to_string(EvalBackend::kSubprocess)) {
    config.backend = EvalBackend::kSubprocess;
    if (json.contains("subprocess")) {
      config.subprocess = subprocess_from_json(json.at("subprocess"));
    }
  } else {
    throw util::ParseError("eval config: unsupported backend '" + backend +
                           "'");
  }
  return config;
}

}  // namespace dpho::core
