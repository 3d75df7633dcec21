// In-process dp_serve Server tests: catalog, byte-exact replies vs direct
// dp::Potential evaluation (including concurrent mixed-model clients), typed
// error replies, backpressure, mid-frame disconnects, and graceful drain.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

#include "serve_harness.hpp"

namespace dpho::serve {
namespace {

using hpc::net::exchange;
using test_harness::make_archive;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Closes the client-side fd on scope exit.
struct ClientFd {
  explicit ClientFd(std::uint16_t port)
      : fd(hpc::net::connect_loopback(port)) {}
  ~ClientFd() { ::close(fd); }
  ClientFd(const ClientFd&) = delete;
  ClientFd& operator=(const ClientFd&) = delete;
  int fd;
};

EvalRequest make_request(std::uint64_t id, const std::string& model,
                         std::uint64_t seed, std::size_t frames,
                         bool forces = true) {
  util::Rng rng(seed);
  EvalRequest request;
  request.id = id;
  request.model = model;
  request.want_forces = forces;
  for (std::size_t f = 0; f < frames; ++f) {
    request.frames.push_back(dp::test_harness::random_frame(rng, 8));
  }
  return request;
}

/// Checks an eval reply bit-for-bit against direct Potential::evaluate.
::testing::AssertionResult reply_matches_direct(const dp::ModelArchive& archive,
                                                const EvalRequest& request,
                                                const util::Json& wire) {
  if (message_type(wire) != kMsgResult) {
    return ::testing::AssertionFailure()
           << "expected a result, got: " << wire.dump();
  }
  const EvalReply reply = decode_eval_reply(wire);
  if (reply.id != request.id) {
    return ::testing::AssertionFailure() << "id mismatch: " << reply.id;
  }
  if (reply.energies.size() != request.frames.size()) {
    return ::testing::AssertionFailure() << "wrong energy count";
  }
  const dp::Potential direct = archive.load(request.model);
  for (std::size_t f = 0; f < request.frames.size(); ++f) {
    const md::ForceEnergy expect = direct.evaluate(request.frames[f]);
    if (!bits_equal(reply.energies[f], expect.energy)) {
      return ::testing::AssertionFailure()
             << "energy of frame " << f << " is not bit-identical";
    }
    if (!request.want_forces) continue;
    if (f >= reply.forces.size() ||
        reply.forces[f].size() != 3 * expect.forces.size()) {
      return ::testing::AssertionFailure() << "wrong force shape, frame " << f;
    }
    for (std::size_t a = 0; a < expect.forces.size(); ++a) {
      for (int k = 0; k < 3; ++k) {
        if (!bits_equal(reply.forces[f][3 * a + k], expect.forces[a][k])) {
          return ::testing::AssertionFailure()
                 << "force (" << f << "," << a << "," << k
                 << ") is not bit-identical";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Server, CatalogReflectsTheSelector) {
  util::TempDir dir;
  make_archive(dir.path() / "a", 3);  // m0 is rank 0, m1/m2 rank 1
  Server server({.archive_dir = dir.path() / "a", .selector = "rank=0"});
  ASSERT_EQ(server.catalog().size(), 1u);
  EXPECT_EQ(server.catalog()[0].id, "m0");

  server.start();
  ClientFd client(server.port());
  const util::Json wire = exchange(client.fd, encode_catalog_request(1));
  const std::vector<CatalogModel> models = decode_catalog_reply(wire);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].id, "m0");
  EXPECT_EQ(models[0].rank, 0);
  EXPECT_EQ(models[0].num_atoms, 8u);
  EXPECT_FALSE(models[0].spec.empty());
  ASSERT_EQ(models[0].objectives.size(), 1u);
  EXPECT_EQ(models[0].objectives[0].first, "rmse_f_val");
  server.stop();
}

TEST(Server, RepliesByteMatchDirectEvaluation) {
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 2);
  Server server({.archive_dir = dir.path() / "a"});
  server.start();
  ClientFd client(server.port());
  const EvalRequest request = make_request(7, "m1", 21, 3);
  const util::Json wire =
      exchange(client.fd, encode_eval_request(request));
  EXPECT_TRUE(reply_matches_direct(archive, request, wire));
  server.stop();
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Server, ConcurrentMixedModelClientsStayByteExact) {
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 3);
  // Cache below the live model count, so concurrent clients also thrash the
  // LRU while their requests interleave across the worker pool.
  Server server({.archive_dir = dir.path() / "a",
                 .cache_capacity = 2,
                 .threads = 3});
  server.start();

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ClientFd client(server.port());
        const std::string model = "m" + std::to_string(c);
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const EvalRequest request =
              make_request(static_cast<std::uint64_t>(100 * c + r), model,
                           static_cast<std::uint64_t>(17 * c + r + 1),
                           1 + static_cast<std::size_t>(r % 3));
          const util::Json wire =
              exchange(client.fd, encode_eval_request(request));
          if (!reply_matches_direct(archive, request, wire)) {
            mismatches.fetch_add(1);
          }
        }
      } catch (const util::Error&) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  server.stop();
}

TEST(Server, RepliesAccountForEveryRequestWhileAOneSlotCacheThrashes) {
  // Requests alternate over three models and the cache holds one, so every
  // request loads its model; serve.replies must still match serve.requests.
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 3);
  const obs::Counter& requests = obs::metrics().counter("serve.requests");
  const obs::Counter& replies = obs::metrics().counter("serve.replies");
  constexpr std::int64_t kRequests = 6;
  for (const std::size_t threads : {1u, 2u}) {
    for (const std::size_t batch : {1u, 4u}) {
      const std::int64_t requests_before = requests.value();
      const std::int64_t replies_before = replies.value();
      Server server({.archive_dir = dir.path() / "a",
                     .cache_capacity = 1,
                     .threads = threads});
      server.start();
      {
        ClientFd client(server.port());
        for (std::int64_t r = 0; r < kRequests; ++r) {
          const EvalRequest request =
              make_request(static_cast<std::uint64_t>(r + 1), "m" + std::to_string(r % 3),
                           static_cast<std::uint64_t>(31 + r), batch);
          EXPECT_TRUE(reply_matches_direct(
              archive, request, exchange(client.fd, encode_eval_request(request))));
        }
      }
      // The IO thread counts a request after queueing it, so read the
      // counters once stop() has joined it.
      server.stop();
      EXPECT_EQ(server.cache().hit_rate(), 0.0);
      EXPECT_EQ(requests.value() - requests_before, kRequests)
          << threads << " threads, batch " << batch;
      EXPECT_EQ(replies.value() - replies_before, kRequests)
          << threads << " threads, batch " << batch;
    }
  }
}

TEST(Server, UnknownModelGetsTypedError) {
  util::TempDir dir;
  make_archive(dir.path() / "a", 2);
  Server server({.archive_dir = dir.path() / "a", .selector = "m0"});
  server.start();
  ClientFd client(server.port());

  // m1 exists in the archive but is outside the served selection.
  const util::Json wire =
      exchange(client.fd, encode_eval_request(make_request(3, "m1", 5, 1)));
  ASSERT_EQ(message_type(wire), kMsgError);
  const ErrorReply error = decode_error(wire);
  EXPECT_EQ(error.id, 3u);
  EXPECT_EQ(error.code, ErrorCode::kUnknownModel);
  server.stop();
}

TEST(Server, WrongAtomCountGetsBadRequest) {
  util::TempDir dir;
  make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a"});
  server.start();
  ClientFd client(server.port());

  util::Rng rng(3);
  EvalRequest request;
  request.id = 11;
  request.model = "m0";
  request.frames.push_back(dp::test_harness::random_frame(rng, 5));  // not 8
  const util::Json wire = exchange(client.fd, encode_eval_request(request));
  ASSERT_EQ(message_type(wire), kMsgError);
  const ErrorReply error = decode_error(wire);
  EXPECT_EQ(error.id, 11u);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  server.stop();
}

TEST(Server, MalformedJsonKeepsTheConnectionUsable) {
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a"});
  server.start();
  ClientFd client(server.port());

  ASSERT_TRUE(hpc::net::write_frame(client.fd, "this is not json"));
  const util::Json error_wire =
      util::Json::parse(*hpc::net::read_frame(client.fd));
  ASSERT_EQ(message_type(error_wire), kMsgError);
  EXPECT_EQ(decode_error(error_wire).code, ErrorCode::kBadRequest);

  // The same connection still serves a well-formed request afterwards.
  const EvalRequest request = make_request(2, "m0", 9, 1);
  EXPECT_TRUE(reply_matches_direct(
      archive, request, exchange(client.fd, encode_eval_request(request))));
  server.stop();
}

TEST(Server, OverflowingCoordinateGetsBadRequest) {
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a"});
  server.start();
  ClientFd client(server.port());

  // A coordinate literal beyond double range must be refused as a typed
  // bad_request; it must never be evaluated into a NaN reply.
  util::Json message = encode_eval_request(make_request(3, "m0", 5, 1));
  message["frames"].as_array()[0]["coords"].as_array()[4] = util::Json("OVERFLOW");
  std::string payload = message.dump();
  payload.replace(payload.find("\"OVERFLOW\""), 10, "1e999");
  ASSERT_TRUE(hpc::net::write_frame(client.fd, payload));
  const util::Json error_wire =
      util::Json::parse(*hpc::net::read_frame(client.fd));
  ASSERT_EQ(message_type(error_wire), kMsgError);
  EXPECT_EQ(decode_error(error_wire).code, ErrorCode::kBadRequest);

  const EvalRequest request = make_request(4, "m0", 6, 1);
  EXPECT_TRUE(reply_matches_direct(
      archive, request, exchange(client.fd, encode_eval_request(request))));
  server.stop();
}

TEST(Server, OutOfRangeIdGetsBadRequestWithIdZero) {
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a"});
  server.start();
  ClientFd client(server.port());

  // An id that fails the integer-field check is never cast: the refusal is
  // typed and carries id 0, and the connection keeps serving.
  for (const double bad : {1e30, -1.0, 2.5}) {
    util::Json message = encode_eval_request(make_request(3, "m0", 5, 1));
    message["id"] = bad;
    const util::Json wire = exchange(client.fd, message);
    ASSERT_EQ(message_type(wire), kMsgError) << bad;
    const ErrorReply error = decode_error(wire);
    EXPECT_EQ(error.code, ErrorCode::kBadRequest) << bad;
    EXPECT_EQ(error.id, 0u) << bad;
  }
  const EvalRequest request = make_request(4, "m0", 6, 1);
  EXPECT_TRUE(reply_matches_direct(
      archive, request, exchange(client.fd, encode_eval_request(request))));
  server.stop();
}

TEST(Server, OversizedFrameIsRefusedAndTheConnectionClosed) {
  util::TempDir dir;
  make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a", .max_frame_bytes = 128});
  server.start();
  ClientFd client(server.port());

  // Any real request overflows a 128-byte cap; the daemon must refuse from
  // the length prefix alone and hang up.
  const std::string payload = encode_eval_request(make_request(1, "m0", 4, 2)).dump();
  ASSERT_GT(payload.size(), 128u);
  ASSERT_TRUE(hpc::net::write_frame(client.fd, payload));
  const std::optional<std::string> reply = hpc::net::read_frame(client.fd);
  ASSERT_TRUE(reply.has_value());
  const ErrorReply error = decode_error(util::Json::parse(*reply));
  EXPECT_EQ(error.code, ErrorCode::kTooLarge);
  // ...and then EOF: the server dropped the connection.
  EXPECT_FALSE(hpc::net::read_frame(client.fd).has_value());
  server.stop();
}

TEST(Server, FullQueueGetsOverloadReplies) {
  util::TempDir dir;
  make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a",
                 .threads = 1,
                 .max_queue = 1,
                 .debug_delay_seconds = 0.2});
  server.start();
  ClientFd client(server.port());

  // Four back-to-back requests against a 1-deep queue and a slow worker:
  // the first is always accepted, the last two always find the queue full.
  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(hpc::net::write_frame(
        client.fd,
        encode_eval_request(
            make_request(static_cast<std::uint64_t>(i + 1), "m0", 30 + i, 1))
            .dump()));
  }
  int results = 0;
  int overloaded = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::optional<std::string> reply = hpc::net::read_frame(client.fd);
    ASSERT_TRUE(reply.has_value());
    const util::Json wire = util::Json::parse(*reply);
    if (message_type(wire) == kMsgResult) {
      ++results;
    } else {
      EXPECT_EQ(decode_error(wire).code, ErrorCode::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_GE(results, 1);
  EXPECT_GE(overloaded, 2);
  EXPECT_EQ(results + overloaded, kRequests);
  server.stop();
}

TEST(Server, MidFrameDisconnectLeavesTheServerServing) {
  util::TempDir dir;
  const dp::ModelArchive archive = make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a"});
  server.start();
  const std::int64_t disconnects_before =
      obs::metrics().counter("serve.disconnects").value();

  {
    // A client that promises a 64-byte frame, delivers 8 bytes, and leaves.
    ClientFd rude(server.port());
    const unsigned char prefix[4] = {0, 0, 0, 64};
    ASSERT_EQ(::write(rude.fd, prefix, 4), 4);
    ASSERT_EQ(::write(rude.fd, "12345678", 8), 8);
  }

  // A well-behaved client is unaffected.
  ClientFd client(server.port());
  const EvalRequest request = make_request(6, "m0", 44, 2);
  EXPECT_TRUE(reply_matches_direct(
      archive, request, exchange(client.fd, encode_eval_request(request))));

  // The IO loop notices the half-frame EOF within a few poll cycles.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (obs::metrics().counter("serve.disconnects").value() ==
             disconnects_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(obs::metrics().counter("serve.disconnects").value(),
            disconnects_before);
  server.stop();
}

TEST(Server, DrainAnswersQueuedRequestsThenStops) {
  util::TempDir dir;
  make_archive(dir.path() / "a", 1);
  Server server({.archive_dir = dir.path() / "a",
                 .threads = 1,
                 .debug_delay_seconds = 0.1});
  server.start();
  ClientFd client(server.port());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(hpc::net::write_frame(
        client.fd,
        encode_eval_request(
            make_request(static_cast<std::uint64_t>(i + 1), "m0", 50 + i, 1))
            .dump()));
  }
  // Give the IO thread a moment to enqueue both, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_drain();

  // Both queued requests are still answered with results.
  for (int i = 0; i < 2; ++i) {
    const std::optional<std::string> reply = hpc::net::read_frame(client.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(message_type(util::Json::parse(*reply)), kMsgResult);
  }
  server.wait();
  EXPECT_EQ(server.requests_served(), 2u);

  // The listener is gone: new clients are refused.
  EXPECT_THROW(ClientFd{server.port()}, util::IoError);
  server.stop();
  EXPECT_TRUE(server.stopped());
}

}  // namespace
}  // namespace dpho::serve
