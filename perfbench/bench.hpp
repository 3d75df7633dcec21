// Shared pieces of the end-to-end benchmark: run options, the result record,
// statistics, host metadata, FLOP formulas and the output checks.
//
// Everything here is benchmark-side code.  Spans and counters are taken
// around calls into the repository's public functions; nothing under src/
// is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "dp/model_spec.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace util = dpho::util;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return seconds_between(start, end) * 1e3;
}

/// Wall time of one call of `fn`, in ms.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return ms_between(start, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::filesystem::path work_dir;     // per-run scratch, deleted at exit
  std::filesystem::path fixture_dir;  // seed-independent fixtures, kept
  std::filesystem::path bin_dir;      // holds dpho_worker and dp_train
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  `end_to_end` is printed with --trace 0 and
/// `per_layer` with --trace 1; `meta` carries host/input metadata, sample
/// counts, fingerprints and the traced decompositions.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  util::Json meta = util::Json(util::JsonObject{});
  std::vector<std::string> violations;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void add_violations(const std::vector<std::string>& found) {
    violations.insert(violations.end(), found.begin(), found.end());
  }
};

Result run_hpo_process(const Options& options);
Result run_md(const Options& options, bool nnp);
Result run_serve_pareto(const Options& options);
int run_self_tests();

// -- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(std::span<const double> values);

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples beyond
/// it (n * (1 - q) >= 10); nullopt when even the median has fewer.
std::optional<double> tail_quantile_level(std::size_t samples);

/// Fills latency_p50_ms and latency_tail_ms from `latencies_ms` and records
/// the sample count and the tail percentile in `result.meta`.  With fewer
/// than 20 samples no percentile qualifies and the tail is the largest
/// sample (reported as percentile 100).
void report_latency(Result& result, const std::vector<double>& latencies_ms);

// -- host ------------------------------------------------------------------

/// Peak resident set of this process and of its largest waited-for
/// descendant, in MB.
double peak_rss_mb();

/// nproc, SIMD level, build type, compiler, git sha.
util::Json host_metadata();

/// 64-bit FNV-1a over raw bytes; fingerprints are printed as 16 hex digits.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

// -- computed operation counts ---------------------------------------------

/// Multiply-adds of one DeepPot-SE primal pass: the embedding net on every
/// directed pair, the descriptor contraction T = sum_j R_j^T G_j (4 x m1 per
/// pair) and D = T^T T_< (4 x m1 x m2 per atom), and the fitting net with
/// its scalar output layer on every atom.
double primal_multiply_adds(const dpho::dp::ModelSpec& spec, double pairs,
                            double atoms);
/// One MD force call: the primal plus one reverse pass for the coordinate
/// adjoints, at 2 FLOPs per multiply-add.
double md_step_flops(const dpho::dp::ModelSpec& spec, double pairs, double atoms);
/// One training gradient frame: primal, reverse with input and parameter
/// adjoints (2 passes), and the forward-over-reverse tangent of both (3
/// passes) -- six pass-equivalents at 2 FLOPs per multiply-add.
double grad_frame_flops(const dpho::dp::ModelSpec& spec, double pairs,
                        double atoms);

// -- evaluation outcome classes --------------------------------------------

enum class EvalClass { kAccepted, kRejected, kSystemFailure };

/// Accepted: status ok on the first attempt.  Rejected: a deterministic
/// hyperparameter rejection -- dp_train exited non-zero or its losses went
/// non-finite, on the first attempt.  Everything else (timeouts, lost
/// nodes, hung or corrupt trainings, exceptions, any retry or re-dispatch)
/// is a system failure.
EvalClass classify(const dpho::core::EvalRecord& record);

// -- output checks ---------------------------------------------------------
// Each returns the violations it found; an empty list means the check held.

/// hpo_process: no system failures; every rejection has rcut above half the
/// box or a dp_train log that reports divergence (`diverged[i]`); accepted
/// fitnesses are finite.
std::vector<std::string> check_campaign(
    const std::vector<dpho::core::EvalRecord>& records, double box_length,
    const std::vector<bool>& log_reports_divergence);

/// md_*: finite energies and forces, |E_last - E_first| / atoms under
/// `drift_bound_ev`, and rebuilds < steps.
struct MdTrace {
  std::vector<double> total_energy;  // per step, eV
  bool forces_finite = true;
  std::size_t atoms = 0;
  std::size_t steps = 0;
  std::size_t rebuilds = 0;
};
std::vector<std::string> check_md(const MdTrace& trace, double drift_bound_ev);

/// serve_pareto: a reply is correct when it is a `result` whose energies and
/// forces equal the direct evaluation bit for bit.
struct DirectEval {
  double energy = 0.0;
  std::vector<double> forces;  // flat x0,y0,z0,...
};
std::vector<std::string> check_reply(const std::string& reply_payload,
                                     std::uint64_t request_id,
                                     const std::vector<const DirectEval*>& expected);

}  // namespace perfbench
