// md_nnp and md_ref: NVE velocity-Verlet MD through a persistent
// md::PotentialSession -- dp::MdSession on a 2,050-atom melt, or
// md::ReferenceSession (BMH + Wolf) on a 16,380-atom melt -- on two busy
// threads.
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "dp/md_session.hpp"
#include "dp/model.hpp"
#include "hpc/thread_pool.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"
#include "md/potential.hpp"
#include "md/session.hpp"
#include "md/system.hpp"
#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dpho;

namespace {

// Busy threads per force call: hpc::ThreadPool's caller claims work too, so
// the pool gets one worker fewer.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetupRepeats = 3;
constexpr double kTemperatureK = 498.0;
constexpr double kDtFs = 1.0;
constexpr double kSkin = 0.8;
constexpr double kReferenceCutoff = 6.5;
// Fixed work: steps per requested second at the nominal rate of each
// workload on a 4-core host (about 2 NNP and 12 reference steps/s).
constexpr std::size_t kNnpStepsPerSecond = 2;
constexpr std::size_t kRefStepsPerSecond = 12;
// NVE energy drift bound over a run, eV/atom.
constexpr double kDriftBoundEv = 0.02;

/// Benchmark-owned session wrapper for traced runs: times every force call
/// and notes whether it rebuilt the neighbor list.
class TimedSession final : public md::PotentialSession {
 public:
  explicit TimedSession(md::PotentialSession& inner) : inner_(inner) {}

  std::vector<double> compute_ms;
  std::vector<bool> rebuilt;

  double compute(const md::SystemState& state, std::span<md::Vec3> forces) override {
    const std::size_t before = inner_.neighbor_rebuilds();
    const Clock::time_point start = Clock::now();
    const double energy = inner_.compute(state, forces);
    compute_ms.push_back(ms_between(start, Clock::now()));
    rebuilt.push_back(inner_.neighbor_rebuilds() != before);
    return energy;
  }
  double cutoff() const override { return inner_.cutoff(); }
  double skin() const override { return inner_.skin(); }
  std::size_t steps() const override { return inner_.steps(); }
  std::size_t neighbor_rebuilds() const override { return inner_.neighbor_rebuilds(); }

 private:
  md::PotentialSession& inner_;
};

/// Builds the force backend for one workload: the potential or model, the
/// pool, and a fresh session over them.
struct Backend {
  std::unique_ptr<hpc::ThreadPool> pool;
  std::shared_ptr<const dp::DeepPotModel> model;  // nnp only
  std::optional<md::ReferencePotential> reference;
  std::unique_ptr<md::PotentialSession> session;
};

dp::ModelSpec nnp_spec() {
  dp::ModelSpec spec;  // paper widths: 25/50/100 embedding, 240x3 fitting
  spec.descriptor.rcut = 6.0;
  spec.descriptor.rcut_smth = 3.0;
  return spec;
}

std::unique_ptr<md::PotentialSession> make_session(const Backend& backend,
                                                   hpc::ThreadPool* pool) {
  md::SessionOptions options;
  options.skin = kSkin;
  options.pool = pool;
  if (backend.model) return std::make_unique<dp::MdSession>(backend.model, options);
  return std::make_unique<md::ReferenceSession>(*backend.reference, options);
}

Backend make_backend(bool nnp, const md::SystemState& state, std::uint64_t seed) {
  Backend backend;
  backend.pool = std::make_unique<hpc::ThreadPool>(kThreads - 1);
  if (nnp) {
    backend.model = std::make_shared<const dp::DeepPotModel>(
        nnp_spec(), state.types, 0.0, util::hash_combine(seed, 0x30DE1));
  } else {
    backend.reference.emplace(kReferenceCutoff);
  }
  backend.session = make_session(backend, backend.pool.get());
  return backend;
}

struct ReplayConfig {
  std::size_t threads = kThreads;  // busy threads
  bool simd = true;
};

/// Median force-call time on `state` per configuration, each through a
/// fresh session warmed by one call.  Calls alternate between the
/// configurations so that slow drift in the host's speed affects all alike.
std::vector<double> replay_force_ms(const Backend& backend, const md::SystemState& state,
                                    const std::vector<ReplayConfig>& configs) {
  std::vector<std::unique_ptr<hpc::ThreadPool>> pools;
  std::vector<std::unique_ptr<md::PotentialSession>> sessions;
  std::vector<md::Vec3> forces(state.size());
  for (const ReplayConfig& config : configs) {
    pools.push_back(config.threads > 1 ? std::make_unique<hpc::ThreadPool>(config.threads - 1)
                                       : nullptr);
    sessions.push_back(make_session(backend, pools.back().get()));
    sessions.back()->compute(state, forces);
  }
  std::vector<std::vector<double>> samples(configs.size());
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      nn::simd::set_enabled(configs[i].simd);
      samples[i].push_back(time_ms([&] { sessions[i]->compute(state, forces); }));
    }
  }
  nn::simd::set_enabled(true);
  std::vector<double> medians;
  for (std::vector<double>& config_samples : samples) medians.push_back(median(config_samples));
  return medians;
}

bool all_finite(std::span<const md::Vec3> forces) {
  for (const md::Vec3& f : forces) {
    if (!std::isfinite(f[0]) || !std::isfinite(f[1]) || !std::isfinite(f[2])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result run_md(const Options& options, bool nnp) {
  Result result;
  const md::SystemSpec spec =
      md::SystemSpec::scaled_system(nnp ? std::size_t{205} : std::size_t{1638});
  util::Rng rng(util::hash_combine(options.seed, nnp ? 0x4E4E50 : 0x524546));
  const md::SystemState initial = spec.create_initial_state(kTemperatureK, rng);
  const std::size_t steps = static_cast<std::size_t>(options.seconds) *
                            (nnp ? kNnpStepsPerSecond : kRefStepsPerSecond);

  // -- set-up: backend build, session creation, first force call -------------
  std::vector<double> setup_s;
  std::optional<Backend> backend;
  std::vector<md::Vec3> forces(initial.size());
  double potential_energy = 0.0;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    backend.reset();
    const Clock::time_point start = Clock::now();
    backend.emplace(make_backend(nnp, initial, options.seed));
    potential_energy = backend->session->compute(initial, forces);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  // -- the run --------------------------------------------------------------
  md::SystemState state = initial;
  const md::VelocityVerlet integrator(kDtFs);
  std::optional<TimedSession> timed;
  if (options.trace) timed.emplace(*backend->session);
  md::PotentialSession& session =
      timed ? static_cast<md::PotentialSession&>(*timed) : *backend->session;
  const std::size_t rebuilds_before = backend->session->neighbor_rebuilds();

  MdTrace trace;
  trace.atoms = state.size();
  trace.total_energy.push_back(potential_energy + md::kinetic_energy(state));
  trace.forces_finite = all_finite(forces);
  std::vector<double> step_ms;
  std::size_t bad_steps = 0;
  for (std::size_t step = 0; step < steps; ++step) {
    const Clock::time_point start = Clock::now();
    potential_energy = integrator.step(state, session, forces);
    step_ms.push_back(ms_between(start, Clock::now()));
    const double total = potential_energy + md::kinetic_energy(state);
    const bool finite = std::isfinite(total) && all_finite(forces);
    bad_steps += finite ? 0 : 1;
    trace.forces_finite = trace.forces_finite && finite;
    trace.total_energy.push_back(total);
  }
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  trace.steps = steps;
  trace.rebuilds = backend->session->neighbor_rebuilds() - rebuilds_before;

  result.attempted = steps;
  result.failed = bad_steps;
  result.add_violations(check_md(trace, kDriftBoundEv));

  double step_s = 0.0;
  for (const double ms : step_ms) step_s += ms * 1e-3;
  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  result.end_to_end["throughput_per_s"] = {static_cast<double>(steps) / step_s, "1/s"};
  report_latency(result, step_ms);
  result.end_to_end["ok_share"] = {
      1.0 - static_cast<double>(bad_steps) / static_cast<double>(steps), "ratio"};

  std::uint64_t hash = fnv1a(state.positions.data(),
                             state.positions.size() * sizeof(md::Vec3));
  hash = fnv1a(state.velocities.data(), state.velocities.size() * sizeof(md::Vec3), hash);
  result.meta["final_state_fingerprint"] = hex64(hash);
  result.meta["atoms"] = state.size();
  result.meta["steps"] = steps;
  result.meta["threads"] = kThreads;
  result.meta["neighbor_rebuilds"] = trace.rebuilds;
  result.meta["drift_ev_per_atom"] =
      std::abs(trace.total_energy.back() - trace.total_energy.front()) /
      static_cast<double>(state.size());
  result.meta["drift_bound_ev_per_atom"] = kDriftBoundEv;
  double live_pairs = 0.0, md_flops = 0.0;
  if (nnp) {
    live_pairs = static_cast<double>(
        static_cast<const dp::MdSession&>(*backend->session).last_live_pairs());
    md_flops = md_step_flops(nnp_spec(), live_pairs, static_cast<double>(state.size()));
    result.meta["computed_flops_per_md_step"] = md_flops;
  }

  if (options.trace) {
    std::vector<double> integrate_ms, rebuild_ms, plain_ms;
    for (std::size_t i = 0; i < steps; ++i) {
      integrate_ms.push_back(step_ms[i] - timed->compute_ms[i]);
      (timed->rebuilt[i] ? rebuild_ms : plain_ms).push_back(timed->compute_ms[i]);
    }
    const double force_ms = median(timed->compute_ms);
    result.per_layer["md.force_ms"] = {force_ms, "ms"};
    result.per_layer["md.integrate_ms"] = {median(integrate_ms), "ms"};
    result.per_layer["md.rebuild_share"] = {
        static_cast<double>(rebuild_ms.size()) / static_cast<double>(steps), "ratio"};
    result.per_layer["md.rebuild_extra_ms"] = {
        rebuild_ms.empty() ? 0.0 : median(rebuild_ms) - median(plain_ms), "ms"};

    md::NeighborList list;
    const md::Box box(state.box_length);
    std::vector<double> build_ms;
    for (int rep = 0; rep < 5; ++rep) {
      build_ms.push_back(time_ms([&] {
        list.build(box, state.positions, session.cutoff() + kSkin, md::NeighborBuild::kCells);
      }));
    }
    result.per_layer["md.neighbor_build_ms"] = {median(build_ms), "ms"};

    std::vector<ReplayConfig> configs = {{kThreads, true}, {1, true}};
    if (nnp) configs.push_back({kThreads, false});
    const std::vector<double> replay_ms = replay_force_ms(*backend, state, configs);
    result.per_layer["hpc.thread_speedup"] = {replay_ms[1] / replay_ms[0], "ratio"};
    if (nnp) {
      result.per_layer["nn.simd_speedup"] = {replay_ms[2] / replay_ms[0], "ratio"};
      result.per_layer["dp.live_pairs"] = {live_pairs, "count"};
      result.per_layer["dp.md_gflops"] = {md_flops / (force_ms * 1e-3) / 1e9, "GFLOP/s"};
    }
  }
  return result;
}

}  // namespace perfbench
