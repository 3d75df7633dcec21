// The dpho_sched Server in process: poll_once() over a simulated pool with
// loopback clients.  A submit/list round trip works, malformed JSON and an
// out-of-range id get typed refusals (id 0) on a connection that stays
// usable, and an oversized length prefix drops only its own peer.
#include "sched/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <optional>
#include <string>

#include "core/evaluator.hpp"
#include "hpc/net/frame.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dpho::sched {
namespace {

struct Fixture {
  explicit Fixture(std::uint32_t max_frame_bytes = hpc::net::kMaxFramePayload)
      : evaluator(core::make_evaluator(core::EvalBackendConfig{})),
        server(options(dir.path(), max_frame_bytes), *evaluator) {
    server.start();
  }

  static ServerOptions options(const std::filesystem::path& state_dir,
                               std::uint32_t max_frame_bytes) {
    ServerOptions options;
    options.scheduler.state_dir = state_dir;
    options.scheduler.pool_workers = 3;
    options.max_frame_bytes = max_frame_bytes;
    options.step_wait_seconds = 0.0005;
    return options;
  }

  /// Polls the server until `fd` has something to read (a reply or EOF).
  bool poll_until_readable(int fd) {
    for (int round = 0; round < 2000; ++round) {
      server.poll_once();
      pollfd entry{fd, POLLIN, 0};
      if (::poll(&entry, 1, 0) > 0) return true;
    }
    return false;
  }

  /// Sends one raw payload and returns the parsed reply.
  util::Json round_trip(int fd, const std::string& payload) {
    EXPECT_TRUE(hpc::net::write_frame(fd, payload));
    EXPECT_TRUE(poll_until_readable(fd));
    const std::optional<std::string> reply = hpc::net::read_frame(fd);
    EXPECT_TRUE(reply.has_value());
    return util::Json::parse(reply.value_or("{}"));
  }

  util::TempDir dir{"sched-server"};
  std::unique_ptr<core::Evaluator> evaluator;
  Server server;
};

/// Closes the client-side fd on scope exit.
struct ClientFd {
  explicit ClientFd(std::uint16_t port) : fd(hpc::net::connect_loopback(port)) {}
  ~ClientFd() { ::close(fd); }
  ClientFd(const ClientFd&) = delete;
  ClientFd& operator=(const ClientFd&) = delete;
  int fd;
};

RunSpec quick_spec(const std::string& name) {
  RunSpec spec;
  spec.name = name;
  spec.seed = 7;
  spec.population_size = 6;
  spec.num_workers = 3;
  spec.total_evaluations = 18;
  return spec;
}

std::string list_request(std::uint64_t id) {
  return encode_list_request(ListRequest{id}).dump();
}

TEST(SchedServer, SubmitAndListRoundTrip) {
  Fixture f;
  ClientFd client(f.server.port());
  const ResultReply submitted = decode_result_reply(f.round_trip(
      client.fd, encode_submit_request(SubmitRequest{3, quick_spec("a")}).dump()));
  EXPECT_EQ(submitted.id, 3u);
  EXPECT_EQ(run_status_from_json(submitted.body.at("run")).name, "a");

  const ResultReply listed =
      decode_result_reply(f.round_trip(client.fd, list_request(4)));
  EXPECT_EQ(listed.id, 4u);
  ASSERT_EQ(listed.body.at("runs").as_array().size(), 1u);
  EXPECT_EQ(run_status_from_json(listed.body.at("runs").as_array()[0]).name, "a");
  EXPECT_EQ(f.server.requests_served(), 2u);
}

TEST(SchedServer, MalformedJsonKeepsTheConnectionUsable) {
  Fixture f;
  ClientFd client(f.server.port());
  const util::Json refusal = f.round_trip(client.fd, "this is not json");
  ASSERT_EQ(message_type(refusal), kMsgError);
  const ErrorReply error = decode_error(refusal);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.id, 0u);

  const util::Json listed = f.round_trip(client.fd, list_request(5));
  ASSERT_EQ(message_type(listed), kMsgResult);
  EXPECT_EQ(decode_result_reply(listed).id, 5u);
}

TEST(SchedServer, OversizedPrefixDropsOnlyThatPeer) {
  Fixture f(/*max_frame_bytes=*/256);
  ClientFd rude(f.server.port());
  ClientFd polite(f.server.port());

  ASSERT_TRUE(hpc::net::write_frame(rude.fd, std::string(1000, 'x')));
  ASSERT_TRUE(f.poll_until_readable(rude.fd));
  EXPECT_FALSE(hpc::net::read_frame(rude.fd).has_value());  // dropped

  const util::Json listed = f.round_trip(polite.fd, list_request(6));
  ASSERT_EQ(message_type(listed), kMsgResult);
  EXPECT_EQ(decode_result_reply(listed).id, 6u);
}

TEST(SchedServer, OutOfRangeIdGetsATypedErrorWithIdZero) {
  Fixture f;
  ClientFd client(f.server.port());
  for (const char* bad : {"1e30", "-1", "2.5"}) {
    const util::Json refusal = f.round_trip(
        client.fd, std::string("{\"t\":\"list\",\"id\":") + bad + "}");
    ASSERT_EQ(message_type(refusal), kMsgError) << bad;
    const ErrorReply error = decode_error(refusal);
    EXPECT_EQ(error.code, ErrorCode::kBadRequest) << bad;
    EXPECT_EQ(error.id, 0u) << bad;
  }
  EXPECT_EQ(decode_result_reply(f.round_trip(client.fd, list_request(9))).id, 9u);
}

}  // namespace
}  // namespace dpho::sched
