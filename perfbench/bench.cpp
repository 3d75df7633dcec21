#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "nn/simd.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using dpho::util::Json;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::optional<double> tail_quantile_level(std::size_t samples) {
  // Integer form of n * (1 - q) >= 10, so the rule has no rounding edge.
  for (const int permille : {990, 950, 900, 750, 500}) {
    if (samples * static_cast<std::size_t>(1000 - permille) >= 10000) {
      return permille / 1000.0;
    }
  }
  return std::nullopt;
}

void report_latency(Result& result, const std::vector<double>& latencies_ms) {
  const std::optional<double> level = tail_quantile_level(latencies_ms.size());
  const double tail = level ? quantile(latencies_ms, *level)
                            : *std::max_element(latencies_ms.begin(),
                                                latencies_ms.end());
  result.end_to_end["latency_p50_ms"] = {median(latencies_ms), "ms"};
  result.end_to_end["latency_tail_ms"] = {tail, "ms"};
  result.meta["latency_samples"] = latencies_ms.size();
  result.meta["latency_tail_percentile"] = level ? *level * 100.0 : 100.0;
}

double peak_rss_mb() {
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

Json host_metadata() {
  Json host = Json(dpho::util::JsonObject{});
  host["nproc"] = static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  host["simd_level"] = std::string(dpho::nn::simd::level_name());
  host["simd_enabled"] = dpho::nn::simd::enabled();
  host["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  host["compiler"] = std::string("gcc ") + __VERSION__;
  return host;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

double primal_multiply_adds(const dpho::dp::ModelSpec& spec, double pairs,
                            double atoms) {
  double embed = 0.0;
  std::size_t width = 1;  // the embedding net's input is the scalar s(r)
  for (const std::size_t out : spec.descriptor.neuron) {
    embed += static_cast<double>(width * out);
    width = out;
  }
  const double m1 = static_cast<double>(spec.m1());
  const double m2 = static_cast<double>(spec.m2());
  double fit = 0.0;
  width = spec.m1() * spec.m2();
  for (const std::size_t out : spec.fitting.neuron) {
    fit += static_cast<double>(width * out);
    width = out;
  }
  fit += static_cast<double>(width);  // scalar energy output layer
  return pairs * (embed + 4.0 * m1) + atoms * (fit + 4.0 * m1 * m2);
}

double md_step_flops(const dpho::dp::ModelSpec& spec, double pairs, double atoms) {
  return 2.0 * 2.0 * primal_multiply_adds(spec, pairs, atoms);
}

double grad_frame_flops(const dpho::dp::ModelSpec& spec, double pairs,
                        double atoms) {
  return 2.0 * 6.0 * primal_multiply_adds(spec, pairs, atoms);
}

EvalClass classify(const dpho::core::EvalRecord& record) {
  using dpho::ea::EvalStatus;
  if (record.attempts != 1) return EvalClass::kSystemFailure;
  if (record.status == EvalStatus::kOk) return EvalClass::kAccepted;
  if (record.status == EvalStatus::kTrainingError &&
      (record.failure_cause == "nonzero_exit" ||
       record.failure_cause == "non_finite_fitness")) {
    return EvalClass::kRejected;
  }
  return EvalClass::kSystemFailure;
}

std::vector<std::string> check_campaign(
    const std::vector<dpho::core::EvalRecord>& records, double box_length,
    const std::vector<bool>& log_reports_divergence) {
  std::vector<std::string> found;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const dpho::core::EvalRecord& record = records[i];
    const std::string who = "evaluation " + record.uuid;
    switch (classify(record)) {
      case EvalClass::kSystemFailure:
        found.push_back(who + " is a system failure (status " +
                        dpho::ea::to_string(record.status) + ", cause " +
                        record.failure_cause + ", attempts " +
                        std::to_string(record.attempts) + ")");
        break;
      case EvalClass::kRejected: {
        const double rcut = record.genome.at(2);
        const bool diverged =
            i < log_reports_divergence.size() && log_reports_divergence[i];
        if (!(rcut > 0.5 * box_length) && !diverged) {
          found.push_back(who + " was rejected with rcut " + std::to_string(rcut) +
                          " inside half the box and no divergence in its log");
        }
        break;
      }
      case EvalClass::kAccepted:
        if (record.fitness.size() != 2 || !std::isfinite(record.fitness[0]) ||
            !std::isfinite(record.fitness[1])) {
          found.push_back(who + " was accepted with a non-finite RMSE");
        }
        break;
    }
  }
  return found;
}

std::vector<std::string> check_md(const MdTrace& trace, double drift_bound_ev) {
  std::vector<std::string> found;
  if (!trace.forces_finite) found.push_back("a force component is not finite");
  for (const double energy : trace.total_energy) {
    if (!std::isfinite(energy)) {
      found.push_back("a step energy is not finite");
      break;
    }
  }
  if (trace.total_energy.size() >= 2 && trace.atoms > 0) {
    const double drift = std::abs(trace.total_energy.back() -
                                  trace.total_energy.front()) /
                         static_cast<double>(trace.atoms);
    if (!(drift < drift_bound_ev)) {
      found.push_back("NVE drift " + std::to_string(drift) +
                      " eV/atom is not under " + std::to_string(drift_bound_ev));
    }
  }
  if (!(trace.rebuilds < trace.steps)) {
    found.push_back("neighbor rebuilds " + std::to_string(trace.rebuilds) +
                    " are not fewer than steps " + std::to_string(trace.steps));
  }
  return found;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::vector<std::string> check_reply(const std::string& reply_payload,
                                     std::uint64_t request_id,
                                     const std::vector<const DirectEval*>& expected) {
  const std::string who = "request " + std::to_string(request_id);
  dpho::serve::EvalReply reply;
  try {
    const Json message = Json::parse(reply_payload);
    if (dpho::serve::message_type(message) != dpho::serve::kMsgResult) {
      return {who + " was answered with '" + dpho::serve::message_type(message) +
              "', not a result"};
    }
    reply = dpho::serve::decode_eval_reply(message);
  } catch (const std::exception& e) {
    return {who + " reply does not decode: " + e.what()};
  }
  if (reply.id != request_id) return {who + " reply carries id " + std::to_string(reply.id)};
  if (reply.energies.size() != expected.size() || reply.forces.size() != expected.size()) {
    return {who + " reply has the wrong number of frames"};
  }
  for (std::size_t f = 0; f < expected.size(); ++f) {
    bool same = same_bits(reply.energies[f], expected[f]->energy) &&
                reply.forces[f].size() == expected[f]->forces.size();
    for (std::size_t k = 0; same && k < reply.forces[f].size(); ++k) {
      same = same_bits(reply.forces[f][k], expected[f]->forces[k]);
    }
    if (!same) {
      return {who + " frame " + std::to_string(f) +
              " differs from the direct dp::Potential::evaluate"};
    }
  }
  return {};
}

}  // namespace perfbench
