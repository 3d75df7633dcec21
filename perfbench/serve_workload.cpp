// serve_pareto: an in-process serve::Server (2-slot model cache, 2 worker
// threads) over loopback serving an archive of three paper-width 160-atom
// models to two closed-loop client connections.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"
#include "dp/archive.hpp"
#include "dp/model.hpp"
#include "dp/potential.hpp"
#include "hpc/net/frame.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dpho;

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kCacheCapacity = 2;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kFramePool = 8;
constexpr std::size_t kRequestsPerSecond = 10;
// Models by rcut; rounds pick them in exactly these shares.  Exactly a
// quarter of the first (production) model's rounds carry four frames; every
// other request carries one.
const std::vector<std::pair<std::string, double>> kModels = {
    {"rcut6", 6.0}, {"rcut7", 7.0}, {"rcut8", 8.0}};
const std::vector<double> kModelShare = {0.6, 0.3, 0.1};
constexpr double kMissShare = 0.18;
constexpr double kFourFrameMissShare = 0.01;
constexpr std::uint64_t kFixtureSeed = 0x5E47E;

/// The archive is a fixed fixture: writing one paper-width model costs
/// several seconds, so it is built once per checkout and reused.  Per-frame
/// cost depends on widths, cutoff and pair count, not on weight values; the
/// workload seed varies the frames and the request order instead.
fs::path ensure_archive(const fs::path& fixture_dir, std::vector<md::Species>& types) {
  util::Rng rng(kFixtureSeed);
  types = md::SystemSpec::paper_system().create_initial_state(498.0, rng).types;
  const fs::path dir = fixture_dir / "serve-archive-v1";
  if (fs::exists(dir / "complete")) return dir;
  const fs::path building = fixture_dir / ("serve-archive-v1.tmp" + std::to_string(::getpid()));
  fs::remove_all(building);
  dp::ModelArchive archive = dp::ModelArchive::create(building);
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    dp::ModelSpec spec;
    spec.descriptor.rcut = kModels[m].second;
    spec.descriptor.rcut_smth = 3.0;
    const dp::DeepPotModel model(spec, types, 0.0, util::hash_combine(kFixtureSeed, m));
    archive.add(kModels[m].first, model, {{"rcut", kModels[m].second}});
  }
  util::write_file(building / "complete", "");
  fs::remove_all(dir);
  fs::rename(building, dir);
  return dir;
}

/// Melt frames from the reference MD, with atoms reordered so each frame's
/// species sequence matches the models' `types`.
std::vector<md::Frame> melt_frames(std::uint64_t seed,
                                   const std::vector<md::Species>& types) {
  md::SimulationConfig sim;
  sim.spec = md::SystemSpec::paper_system();
  sim.num_frames = kFramePool;
  sim.seed = util::hash_combine(seed, 0xF4A3E5);
  const md::FrameDataset data = md::Simulation(sim).run();
  std::map<md::Species, std::vector<std::size_t>> source;
  for (std::size_t i = 0; i < data.types().size(); ++i) {
    source[data.types()[i]].push_back(i);
  }
  std::vector<std::size_t> order;
  std::map<md::Species, std::size_t> next;
  for (const md::Species species : types) order.push_back(source.at(species).at(next[species]++));
  std::vector<md::Frame> frames;
  for (const md::Frame& original : data.frames()) {
    md::Frame frame;
    frame.box_length = original.box_length;
    for (const std::size_t i : order) frame.positions.push_back(original.positions[i]);
    frames.push_back(std::move(frame));
  }
  return frames;
}

struct PlannedRequest {
  std::uint64_t id = 0;
  std::size_t model = 0;
  std::vector<std::size_t> frames;  // indices into the frame pool
  std::string payload;              // pre-encoded eval request
};

std::string encode_request(std::uint64_t id, std::size_t model,
                           const std::vector<std::size_t>& frame_ids,
                           const std::vector<md::Frame>& pool) {
  serve::EvalRequest request;
  request.id = id;
  request.model = kModels[model].first;
  request.want_forces = true;
  for (const std::size_t f : frame_ids) request.frames.push_back(pool[f]);
  return serve::encode_eval_request(request).dump();
}

/// A round is one request per connection, all to one model with one frame
/// count.  Returns the cache misses of the rounds' model sequence under an
/// LRU cache of kCacheCapacity holding the first two models (as after
/// set-up), and how many of them fall on four-frame rounds.
std::pair<std::size_t, std::size_t> round_misses(const std::vector<PlannedRequest>& rounds) {
  std::vector<std::size_t> cache = {1, 0};  // most recent first
  std::size_t misses = 0, four_frame_misses = 0;
  for (const PlannedRequest& round : rounds) {
    const auto hit = std::find(cache.begin(), cache.end(), round.model);
    if (hit != cache.end()) {
      cache.erase(hit);
    } else {
      ++misses;
      four_frame_misses += round.frames.size() == 4 ? 1 : 0;
    }
    cache.insert(cache.begin(), round.model);
    if (cache.size() > kCacheCapacity) cache.pop_back();
  }
  return {misses, four_frame_misses};
}

/// The run's requests: `count` / kConnections lockstep rounds in which every
/// connection asks the same model for the same number of frames (its own
/// seeded frames), so which request loads a model and which waits on the
/// cache mutex does not depend on thread timing.  Rounds use the models in
/// exactly kModelShare, so the latency classes around p50 and p95 (one-frame
/// rcut7 hits; one-frame model loads) are wide and fixed in size.  Their
/// order is the first seeded permutation whose LRU
/// replay has the most common miss counts over random orders (kMissShare of
/// rounds, kFourFrameMissShare on four-frame rounds), so every run pays the
/// same model loads; the seed varies where they fall and which frames go.
std::vector<PlannedRequest> plan_requests(std::size_t count, std::uint64_t seed,
                                          const std::vector<md::Frame>& pool,
                                          std::size_t& candidates_tried) {
  const std::size_t rounds = count / kConnections;
  std::vector<PlannedRequest> base;
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    const auto of_model =
        static_cast<std::size_t>(std::llround(kModelShare[m] * static_cast<double>(rounds)));
    for (std::size_t k = 0; k < of_model; ++k) {
      PlannedRequest round;
      round.model = m;
      round.frames.resize(m == 0 && k < of_model / 4 ? 4 : 1);
      base.push_back(std::move(round));
    }
  }
  const auto target = std::make_pair(
      static_cast<std::size_t>(std::llround(kMissShare * static_cast<double>(base.size()))),
      static_cast<std::size_t>(
          std::llround(kFourFrameMissShare * static_cast<double>(base.size()))));
  for (std::size_t k = 0;; ++k) {
    util::Rng rng(util::hash_combine(seed, 0x9E0E5700ULL + k));
    std::vector<PlannedRequest> ordered;
    for (const std::size_t i : rng.permutation(base.size())) ordered.push_back(base[i]);
    if (round_misses(ordered) != target) continue;
    candidates_tried = k + 1;
    std::vector<PlannedRequest> plan;
    for (const PlannedRequest& round : ordered) {
      for (std::size_t c = 0; c < kConnections; ++c) {
        PlannedRequest request = round;
        request.id = plan.size() + 1;
        for (std::size_t& f : request.frames) {
          f = static_cast<std::size_t>(rng.uniform_int(0, kFramePool - 1));
        }
        request.payload = encode_request(request.id, request.model, request.frames, pool);
        plan.push_back(std::move(request));
      }
    }
    return plan;
  }
}

/// One blocking request/reply exchange on a connected socket.
std::string exchange(int fd, const std::string& payload) {
  if (!hpc::net::write_frame(fd, payload)) throw util::IoError("serve request write failed");
  std::optional<std::string> reply = hpc::net::read_frame(fd);
  if (!reply) throw util::IoError("serve connection closed before the reply");
  return *reply;
}

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<std::string> replies;
  std::string error;
};

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) samples.push_back(time_ms(fn));
  return median(samples);
}

/// Loopback echo of `payload` through hpc::net framing; median round trip.
double net_roundtrip_ms(const std::string& payload) {
  hpc::net::Listener listener;
  listener.open();
  const int client = hpc::net::connect_loopback(listener.port());
  int server = -1;
  while ((server = listener.accept_nonblocking()) < 0) std::this_thread::yield();
  ::fcntl(server, F_SETFL, ::fcntl(server, F_GETFL) & ~O_NONBLOCK);
  constexpr int kReps = 20;
  std::thread echo([&] {
    for (int rep = 0; rep < kReps; ++rep) {
      const std::optional<std::string> frame = hpc::net::read_frame(server);
      if (!frame || !hpc::net::write_frame(server, *frame)) break;
    }
  });
  const double ms = median_ms(kReps, [&] { exchange(client, payload); });
  echo.join();
  ::close(client);
  ::close(server);
  return ms;
}

/// A connected loopback socket pair whose far end is drained by a thread,
/// standing in for a client that reads its replies.
class DrainedSocket {
 public:
  DrainedSocket() {
    listener_.open();
    fd_ = hpc::net::connect_loopback(listener_.port());
    while ((peer_ = listener_.accept_nonblocking()) < 0) std::this_thread::yield();
    ::fcntl(peer_, F_SETFL, ::fcntl(peer_, F_GETFL) & ~O_NONBLOCK);
    drain_ = std::thread([this] {
      while (hpc::net::read_frame(peer_)) {
      }
    });
  }
  ~DrainedSocket() {
    ::shutdown(fd_, SHUT_RDWR);
    drain_.join();
    ::close(fd_);
    ::close(peer_);
  }
  DrainedSocket(const DrainedSocket&) = delete;
  DrainedSocket& operator=(const DrainedSocket&) = delete;

  int fd() const { return fd_; }

 private:
  hpc::net::Listener listener_;
  int fd_ = -1;
  int peer_ = -1;
  std::thread drain_;
};

/// Mean per-request parts of the server's work, replayed on the run's
/// request sequence by two threads sharing one serve::ModelCache (warmed with
/// the first two models, as after set-up) -- the Server's two workers do the
/// same cache lookup, per-frame dp::Potential::evaluate, reply encoding and
/// framed send.
struct ServerWork {
  double lookup_ms = 0.0;
  double eval_ms = 0.0;
  double encode_send_ms = 0.0;
  std::vector<double> frame_ms;  // per model, per evaluated frame
  std::uint64_t misses = 0;
};

ServerWork replay_server_work(const dp::ModelArchive& archive,
                              const std::vector<PlannedRequest>& plan,
                              const std::vector<md::Frame>& pool) {
  serve::ModelCache cache(archive, kCacheCapacity);
  cache.get(kModels[0].first);
  cache.get(kModels[1].first);
  const std::uint64_t warm_misses = cache.misses();
  std::vector<double> lookup(plan.size()), eval(plan.size()), encode(plan.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kServerThreads; ++t) {
    workers.emplace_back([&] {
      const DrainedSocket socket;
      for (std::size_t i = next++; i < plan.size(); i = next++) {
        const PlannedRequest& request = plan[i];
        const Clock::time_point start = Clock::now();
        const std::shared_ptr<const dp::Potential> potential =
            cache.get(kModels[request.model].first);
        const Clock::time_point looked_up = Clock::now();
        serve::EvalReply reply;
        for (const std::size_t f : request.frames) {
          const md::ForceEnergy fe = potential->evaluate(pool[f]);
          reply.energies.push_back(fe.energy);
          std::vector<double> flat;
          for (const md::Vec3& force : fe.forces) flat.insert(flat.end(), force.begin(), force.end());
          reply.forces.push_back(std::move(flat));
        }
        const Clock::time_point evaluated = Clock::now();
        hpc::net::write_frame(socket.fd(), serve::encode_eval_reply(reply).dump());
        lookup[i] = ms_between(start, looked_up);
        eval[i] = ms_between(looked_up, evaluated);
        encode[i] = ms_between(evaluated, Clock::now());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ServerWork work;
  work.lookup_ms = mean(lookup);
  work.eval_ms = mean(eval);
  work.encode_send_ms = mean(encode);
  work.misses = cache.misses() - warm_misses;
  std::vector<double> eval_sum(kModels.size(), 0.0), frames(kModels.size(), 0.0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    eval_sum[plan[i].model] += eval[i];
    frames[plan[i].model] += static_cast<double>(plan[i].frames.size());
  }
  for (std::size_t m = 0; m < kModels.size(); ++m) work.frame_ms.push_back(eval_sum[m] / frames[m]);
  return work;
}

double histogram_mean_ms(const char* name) {
  return obs::metrics()
             .histogram(name, obs::BucketLayout::timing_seconds(), obs::Section::kTiming)
             .snapshot()
             .mean() *
         1e3;
}

}  // namespace

Result run_serve_pareto(const Options& options) {
  Result result;
  std::vector<md::Species> types;
  const fs::path archive_dir = ensure_archive(options.fixture_dir, types);
  const std::vector<md::Frame> pool = melt_frames(options.seed, types);
  const std::size_t count = kRequestsPerSecond * static_cast<std::size_t>(options.seconds);
  std::size_t plan_candidates = 0;
  const std::vector<PlannedRequest> plan =
      plan_requests(count, options.seed, pool, plan_candidates);
  const std::string warm_up[2] = {encode_request(count + 1, 0, {0}, pool),
                                  encode_request(count + 2, 1, {0}, pool)};

  serve::ServerOptions server_options;
  server_options.archive_dir = archive_dir;
  server_options.cache_capacity = kCacheCapacity;
  server_options.threads = kServerThreads;

  // -- set-up: open, start, cold-load the first two models ------------------
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) server->stop();
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<serve::Server>(server_options);
    server->start();
    const int fd = hpc::net::connect_loopback(server->port());
    for (const std::string& request : warm_up) exchange(fd, request);
    setup_s.push_back(seconds_between(start, Clock::now()));
    ::close(fd);
  }
  obs::metrics().reset();

  // -- the run: two closed-loop connections in lockstep rounds ---------------
  std::vector<ClientLog> clients(kConnections);
  std::barrier round_start(static_cast<std::ptrdiff_t>(kConnections));
  std::vector<int> fds;
  for (std::size_t c = 0; c < kConnections; ++c) {
    fds.push_back(hpc::net::connect_loopback(server->port()));
  }
  const Clock::time_point run_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = c; i < plan.size(); i += kConnections) {
            round_start.arrive_and_wait();
            const Clock::time_point sent = Clock::now();
            clients[c].replies.push_back(exchange(fds[c], plan[i].payload));
            clients[c].latency_ms.push_back(ms_between(sent, Clock::now()));
          }
        } catch (const std::exception& e) {
          clients[c].error = e.what();
          round_start.arrive_and_drop();  // release the other connection
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double run_s = seconds_between(run_start, Clock::now());
  for (const int fd : fds) ::close(fd);
  server->stop();
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const auto hits = static_cast<double>(obs::metrics().counter("serve.cache_hits").value());
  const auto misses =
      static_cast<double>(obs::metrics().counter("serve.cache_misses").value());
  const double queue_wait_ms = histogram_mean_ms("serve.queue_wait_seconds");
  const double server_ms = histogram_mean_ms("serve.request_seconds") - queue_wait_ms;

  // -- output checks: every reply against a direct evaluation ----------------
  const dp::ModelArchive archive = dp::ModelArchive::open(archive_dir);
  std::vector<std::map<std::size_t, DirectEval>> direct(kModels.size());
  std::vector<double> load_ms;
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    std::optional<dp::Potential> potential;
    load_ms.push_back(time_ms([&] { potential.emplace(archive.load(kModels[m].first)); }));
    for (const PlannedRequest& request : plan) {
      if (request.model != m) continue;
      for (const std::size_t f : request.frames) {
        if (direct[m].count(f)) continue;
        const md::ForceEnergy fe = potential->evaluate(pool[f]);
        DirectEval& expected = direct[m][f];
        expected.energy = fe.energy;
        for (const md::Vec3& force : fe.forces) {
          expected.forces.insert(expected.forces.end(), force.begin(), force.end());
        }
      }
    }
  }
  std::size_t answered = 0, frames_served = 0;
  std::vector<double> latency_ms;
  for (std::size_t c = 0; c < kConnections; ++c) {
    result.check(clients[c].error.empty(), "connection " + std::to_string(c) + ": " +
                                               clients[c].error);
    latency_ms.insert(latency_ms.end(), clients[c].latency_ms.begin(),
                      clients[c].latency_ms.end());
    for (std::size_t k = 0; k < clients[c].replies.size(); ++k) {
      const PlannedRequest& request = plan[c + k * kConnections];
      std::vector<const DirectEval*> expected;
      for (const std::size_t f : request.frames) expected.push_back(&direct[request.model].at(f));
      const std::vector<std::string> found =
          check_reply(clients[c].replies[k], request.id, expected);
      result.add_violations(found);
      if (found.empty()) {
        ++answered;
        frames_served += request.frames.size();
      }
    }
  }
  result.check(answered == plan.size(), std::to_string(plan.size() - answered) +
                                            " requests were not answered correctly");
  result.check(hits + misses == static_cast<double>(plan.size()),
               "cache hits + misses differ from the requests served");
  result.attempted = plan.size();
  result.failed = plan.size() - answered;

  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  result.end_to_end["throughput_per_s"] = {static_cast<double>(frames_served) / run_s, "1/s"};
  if (!latency_ms.empty()) report_latency(result, latency_ms);
  result.end_to_end["ok_share"] = {
      static_cast<double>(answered) / static_cast<double>(plan.size()), "ratio"};
  result.meta["requests"] = plan.size();
  result.meta["connections"] = kConnections;
  result.meta["server_threads"] = kServerThreads;
  result.meta["cache_capacity"] = kCacheCapacity;
  result.meta["cache_misses"] = misses;
  result.meta["planned_cache_misses"] = round_misses(plan).first;
  result.meta["plan_candidates_tried"] = plan_candidates;

  if (options.trace) {
    const ServerWork work = replay_server_work(archive, plan, pool);
    double frames = 0.0;
    for (const PlannedRequest& request : plan) frames += static_cast<double>(request.frames.size());

    const PlannedRequest& four = *std::find_if(plan.begin(), plan.end(),
        [](const PlannedRequest& r) { return r.frames.size() == 4; });
    const double decode_ms = median_ms(20, [&] {
      serve::decode_eval_request(util::Json::parse(four.payload));
    });
    serve::EvalReply reply;
    reply.id = four.id;
    reply.model = kModels[four.model].first;
    for (const std::size_t f : four.frames) {
      reply.energies.push_back(direct[four.model].at(f).energy);
      reply.forces.push_back(direct[four.model].at(f).forces);
    }
    std::string reply_text;
    const double encode_ms =
        median_ms(20, [&] { reply_text = serve::encode_eval_reply(reply).dump(); });
    const std::string checkpoint =
        util::read_file(archive_dir / (kModels[0].first + ".json"));
    const double parse_ms = median_ms(3, [&] { util::Json::parse(checkpoint); });

    result.per_layer["dp.eval_frame_ms"] = {work.eval_ms * static_cast<double>(plan.size()) / frames,
                                            "ms"};
    result.per_layer["serve.model_load_ms"] = {mean(load_ms), "ms"};
    result.per_layer["serve.cache_miss_share"] = {misses / (hits + misses), "ratio"};
    result.per_layer["serve.queue_wait_ms"] = {queue_wait_ms, "ms"};
    result.per_layer["serve.server_ms"] = {server_ms, "ms"};
    result.per_layer["serve.decode_ms"] = {decode_ms, "ms"};
    result.per_layer["serve.encode_reply_ms"] = {encode_ms, "ms"};
    result.per_layer["serve.residual_ms"] = {
        mean(latency_ms) - decode_ms - queue_wait_ms - server_ms, "ms"};
    result.per_layer["hpc.net_roundtrip_ms"] = {net_roundtrip_ms(reply_text), "ms"};
    result.per_layer["util.json_parse_ms"] = {parse_ms, "ms"};
    result.per_layer["util.model_json_mb"] = {
        static_cast<double>(checkpoint.size()) / (1024.0 * 1024.0), "MB"};

    util::Json per_model = util::Json(util::JsonObject{});
    for (std::size_t m = 0; m < kModels.size(); ++m) {
      per_model[kModels[m].first] = work.frame_ms[m];
    }
    result.meta["dp.eval_frame_ms_per_model"] = per_model;
    util::Json split = util::Json(util::JsonObject{});
    const double residual = server_ms - work.lookup_ms - work.eval_ms - work.encode_send_ms;
    split["whole_ms"] = server_ms;
    split["cache_lookup_ms"] = work.lookup_ms;
    split["dp.eval_frame_ms_x_frames"] = work.eval_ms;
    split["serve.encode_reply_ms_and_send"] = work.encode_send_ms;
    split["residual_ms"] = residual;
    split["residual_share"] = residual / server_ms;
    split["replay_cache_misses"] = work.misses;
    result.meta["serve.server_ms_split"] = split;
  }
  return result;
}

}  // namespace perfbench
