// Length-prefixed framing over loopback TCP: round trips, incremental
// decoding, protocol-violation handling, listener rebind, the shared
// ConnectionServer, and the worker wire codec (round trips and the
// tests/support/codec_fuzz.hpp passes).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "hpc/net/connection.hpp"
#include "hpc/net/frame.hpp"
#include "hpc/net/wire.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

#include "codec_fuzz.hpp"

namespace dpho::hpc::net {
namespace {

/// Polls accept until the pending connection shows up (connect is racy with
/// accept on loopback, but only by microseconds).
int accept_soon(const Listener& listener) {
  for (int i = 0; i < 1000; ++i) {
    const int fd = listener.accept_nonblocking();
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

TEST(NetFrame, RoundTripsFramesBothWays) {
  Listener listener;
  listener.open();
  ASSERT_GT(listener.port(), 0);

  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // Client -> server through the non-blocking FrameReader.
  ASSERT_TRUE(write_frame(client, "{\"t\":\"hello\"}"));
  FrameReader reader;
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "{\"t\":\"hello\"}");

  // Server -> client through the blocking read_frame (the worker's view).
  ASSERT_TRUE(write_frame(server, "{\"t\":\"init\"}"));
  const std::optional<std::string> reply = read_frame(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "{\"t\":\"init\"}");

  ::close(client);
  ::close(server);
}

TEST(NetFrame, ReaderReassemblesSplitFrames) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // Hand-build two frames and trickle them in three arbitrary cuts; the
  // reader must reassemble both regardless of packetization.
  const std::string payload_a = "{\"a\":1}";
  const std::string payload_b = "{\"b\":2}";
  std::string bytes;
  for (const std::string& payload : {payload_a, payload_b}) {
    const auto size = static_cast<std::uint32_t>(payload.size());
    bytes.push_back(static_cast<char>((size >> 24) & 0xFF));
    bytes.push_back(static_cast<char>((size >> 16) & 0xFF));
    bytes.push_back(static_cast<char>((size >> 8) & 0xFF));
    bytes.push_back(static_cast<char>(size & 0xFF));
    bytes += payload;
  }
  FrameReader reader;
  const std::size_t cuts[] = {2, 9, bytes.size()};
  std::size_t sent = 0;
  for (const std::size_t cut : cuts) {
    ASSERT_EQ(::send(client, bytes.data() + sent, cut - sent, 0),
              static_cast<ssize_t>(cut - sent));
    sent = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reader.drain(server);
  }
  EXPECT_EQ(reader.next().value_or(""), payload_a);
  EXPECT_EQ(reader.next().value_or(""), payload_b);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.closed());

  ::close(client);
  ::close(server);
}

TEST(NetFrame, PeerCloseIsReportedOnce) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  ASSERT_TRUE(write_frame(client, "{\"t\":\"bye\"}"));
  ::close(client);
  FrameReader reader;
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(open);
  EXPECT_TRUE(reader.closed());
  // The frame that arrived before the close is still delivered.
  EXPECT_EQ(reader.next().value_or(""), "{\"t\":\"bye\"}");
  ::close(server);
}

TEST(NetFrame, OversizedLengthPrefixIsAProtocolViolation) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  const char poison[4] = {0x7F, 0x7F, 0x7F, 0x7F};  // ~2 GiB "payload"
  ASSERT_EQ(::send(client, poison, sizeof(poison), 0), 4);
  FrameReader reader;
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(open);
  // The violation is typed -- distinguishable from an orderly close.
  EXPECT_EQ(reader.error(), FrameError::kOversized);
  EXPECT_EQ(reader.oversized_length(), 0x7F7F7F7Fu);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, TypedErrorsDistinguishCloseFromOversize) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  FrameReader reader;
  EXPECT_EQ(reader.error(), FrameError::kNone);
  ::close(client);
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reader.error(), FrameError::kClosed);
  EXPECT_EQ(to_string(FrameError::kClosed), "closed");
  EXPECT_EQ(to_string(FrameError::kOversized), "oversized");
  ::close(server);
}

TEST(NetFrame, PerReaderCapRejectsBeforeBufferingThePayload) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // A frame that is legal under the protocol maximum but over this reader's
  // 64-byte cap.  The reader must reject it from the prefix alone.
  FrameReader reader(/*max_payload=*/64);
  EXPECT_EQ(reader.max_payload(), 64u);
  const std::string big(100, 'x');
  ASSERT_TRUE(write_frame(client, big));
  bool open = true;
  for (int i = 0; i < 1000 && open; ++i) {
    open = reader.drain(server);
    if (open) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reader.error(), FrameError::kOversized);
  EXPECT_EQ(reader.oversized_length(), 100u);
  EXPECT_FALSE(reader.next().has_value());
  ::close(client);
  ::close(server);
}

TEST(NetFrame, PerReaderCapAdmitsFramesUnderTheLimit) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  FrameReader reader(/*max_payload=*/64);
  ASSERT_TRUE(write_frame(client, "{\"ok\":true}"));
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(frame.value_or(""), "{\"ok\":true}");
  EXPECT_EQ(reader.error(), FrameError::kNone);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, BlockingReadFrameHonoursTheCap) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  ASSERT_TRUE(write_frame(server, std::string(100, 'y')));
  EXPECT_THROW(read_frame(client, /*max_payload=*/64), util::IoError);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, ZeroLengthFramesAreDeliveredNotConfusedWithClose) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  // An empty payload is a legal frame: 4 zero bytes of prefix, no body.
  // Both the non-blocking reader and the blocking read_frame must deliver
  // an engaged empty string -- distinguishable from nullopt (peer close).
  ASSERT_TRUE(write_frame(client, ""));
  ASSERT_TRUE(write_frame(client, "{\"after\":1}"));
  FrameReader reader;
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
  // Framing stays aligned: the next frame comes through intact.
  EXPECT_EQ(reader.next().value_or("gone"), "{\"after\":1}");
  EXPECT_EQ(reader.error(), FrameError::kNone);

  ASSERT_TRUE(write_frame(server, ""));
  const std::optional<std::string> blocking = read_frame(client);
  ASSERT_TRUE(blocking.has_value());
  EXPECT_TRUE(blocking->empty());

  ::close(client);
  ::close(server);
}

TEST(NetFrame, RebindMovesToAFreshPort) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server = accept_soon(listener);
  ASSERT_GE(server, 0);

  listener.rebind();
  EXPECT_TRUE(listener.is_open());
  // Established connections survive the restart; only the accept queue dies.
  ASSERT_TRUE(write_frame(client, "{\"t\":\"hb\"}"));
  FrameReader reader;
  std::optional<std::string> frame;
  for (int i = 0; i < 1000 && !frame; ++i) {
    reader.drain(server);
    frame = reader.next();
    if (!frame) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(frame.value_or(""), "{\"t\":\"hb\"}");
  // And new connections reach the new port.
  const int late = connect_loopback(listener.port());
  EXPECT_GE(accept_soon(listener), 0);
  ::close(late);
  ::close(client);
  ::close(server);
}

TEST(NetFrame, ConnectionServerDrainsReadyPeersAndReportsOversizeBeforeRetiring) {
  ConnectionServer server(/*max_frame_bytes=*/64);
  server.open();
  const int quiet = connect_loopback(server.port());
  const int chatty = connect_loopback(server.port());
  const int rude = connect_loopback(server.port());

  std::vector<std::string> frames;
  const ConnectionServer::FrameHandler on_frame =
      [&](const ConnectionServer::Peer&, const std::string& payload) {
        frames.push_back(payload);
      };
  const ConnectionServer::CloseHandler no_close =
      [](const ConnectionServer::Peer&, FrameError error) {
        ADD_FAILURE() << "unexpected close: " << to_string(error);
      };
  std::size_t accepted = 0;
  for (int i = 0; i < 200 && accepted < 3; ++i) {
    accepted += server.poll(10, on_frame, no_close).accepted;
  }
  ASSERT_EQ(accepted, 3u);
  EXPECT_EQ(server.size(), 3u);

  // Only the peer with input is drained; the two idle ones are not touched.
  ASSERT_TRUE(write_frame(chatty, "{\"a\":1}"));
  PollRound round = server.poll(1000, on_frame, no_close);
  EXPECT_EQ(round.ready, 1u);
  EXPECT_EQ(round.retired, 0u);
  EXPECT_EQ(frames, std::vector<std::string>{"{\"a\":1}"});

  // An oversized prefix is reported while the peer can still be answered,
  // and only then retired.
  ASSERT_TRUE(write_frame(rude, std::string(100, 'x')));
  ConnectionServer::Peer reported;
  round = server.poll(
      1000, on_frame,
      [&](const ConnectionServer::Peer& peer, FrameError error) {
        EXPECT_EQ(error, FrameError::kOversized);
        EXPECT_EQ(peer->reader().oversized_length(), 100u);
        EXPECT_TRUE(peer->alive());
        EXPECT_EQ(server.size(), 3u);
        EXPECT_TRUE(peer->send("{\"t\":\"too_large\"}"));
        reported = peer;
      });
  EXPECT_EQ(round.ready, 1u);
  EXPECT_EQ(round.retired, 1u);
  EXPECT_EQ(server.size(), 2u);
  ASSERT_NE(reported, nullptr);
  EXPECT_FALSE(reported->alive());
  EXPECT_FALSE(reported->send("{\"late\":1}"));  // retired: dropped
  reported.reset();  // the last owner closes the fd
  EXPECT_EQ(read_frame(rude).value_or(""), "{\"t\":\"too_large\"}");
  EXPECT_FALSE(read_frame(rude).has_value());

  // An orderly close is reported as kClosed, then retired the same way.
  ::close(quiet);
  round = server.poll(1000, on_frame,
                      [](const ConnectionServer::Peer& peer, FrameError error) {
                        EXPECT_EQ(error, FrameError::kClosed);
                        EXPECT_TRUE(peer->alive());
                      });
  EXPECT_EQ(round.retired, 1u);
  EXPECT_EQ(server.size(), 1u);

  server.close();
  EXPECT_FALSE(server.listening());
  EXPECT_EQ(server.size(), 0u);
  ::close(chatty);
  ::close(rude);
}

TEST(NetFrame, ConnectionSendsFromManyThreadsStayWholeFrames) {
  Listener listener;
  listener.open();
  const int client = connect_loopback(listener.port());
  const int server_fd = accept_soon(listener);
  ASSERT_GE(server_fd, 0);
  Connection connection(server_fd, kMaxFramePayload);

  // Concurrent senders must never interleave bytes of two frames.
  constexpr int kThreads = 4;
  constexpr int kFramesEach = 50;
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&connection, t] {
      const std::string payload(1000 + static_cast<std::size_t>(t),
                                static_cast<char>('a' + t));
      for (int i = 0; i < kFramesEach; ++i) EXPECT_TRUE(connection.send(payload));
    });
  }
  for (int i = 0; i < kThreads * kFramesEach; ++i) {
    const std::optional<std::string> frame = read_frame(client);
    ASSERT_TRUE(frame.has_value());
    const int t = static_cast<int>(frame->size()) - 1000;
    ASSERT_TRUE(t >= 0 && t < kThreads) << frame->size();
    EXPECT_EQ(*frame, std::string(frame->size(), static_cast<char>('a' + t)));
  }
  for (std::thread& sender : senders) sender.join();
  ::close(client);
}

TEST(NetWire, SeedsSurviveTheHexEncoding) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0x0123456789ABCDEF}}) {
    EXPECT_EQ(decode_u64(encode_u64(seed)), seed);
  }
}

TEST(NetWire, TaskFramesRoundTrip) {
  TaskSpec spec;
  spec.id = 17;
  spec.genome = {0.25, -1.5, 3.0};
  spec.eval_seed = 0xDEADBEEFCAFEF00Dull;
  spec.uuid = "0123456789abcdef0123456789abcdef";
  const util::Json frame = encode_task(spec, 0.125);
  EXPECT_EQ(message_type(frame), kMsgTask);
  const TaskSpec back = decode_task(frame);
  EXPECT_EQ(back.id, spec.id);
  EXPECT_EQ(back.genome, spec.genome);
  EXPECT_EQ(back.eval_seed, spec.eval_seed);
  EXPECT_EQ(back.uuid, spec.uuid);
  EXPECT_DOUBLE_EQ(task_straggler_seconds(frame), 0.125);
}

TEST(NetWire, ResultFramesRoundTrip) {
  WorkResult result;
  result.fitness = {0.01, 0.05};
  result.sim_minutes = 42.5;
  result.training_error = false;
  result.cause = FailureCause::kNone;
  result.attempts = 2;
  const util::Json frame = encode_result(9, result);
  EXPECT_EQ(message_type(frame), kMsgResult);
  EXPECT_EQ(result_id(frame), 9u);
  const WorkResult back = decode_result(frame);
  EXPECT_EQ(back.fitness, result.fitness);
  EXPECT_DOUBLE_EQ(back.sim_minutes, result.sim_minutes);
  EXPECT_EQ(back.attempts, result.attempts);
  EXPECT_EQ(back.cause, result.cause);
}

TEST(NetWire, DecodeU64TakesOnlyOneToSixteenHexDigits) {
  EXPECT_EQ(decode_u64("1f"), 0x1Fu);
  EXPECT_EQ(decode_u64("DEADbeef"), 0xDEADBEEFu);
  EXPECT_EQ(decode_u64("ffffffffffffffff"), ~std::uint64_t{0});
  // strtoull would accept each of these; none is 1-16 bare hex digits.
  for (const char* bad : {"-1", " 1f", "+1f", "0x1f", "", "1f ", "g",
                          "10000000000000000"}) {
    EXPECT_THROW(decode_u64(bad), util::ParseError) << '"' << bad << '"';
  }
}

util::Json parsed(const util::Json& message) {
  return util::Json::parse(message.dump());
}

std::size_t decode_hello(const util::Json& message) {
  expect_type(message, kMsgHello);
  return hello_token(message);
}

TaskSpec decode_task_frame(const util::Json& message) {
  expect_type(message, kMsgTask);
  return decode_task(message);
}

std::pair<std::size_t, WorkResult> decode_result_frame(const util::Json& message) {
  expect_type(message, kMsgResult);
  return {result_id(message), decode_result(message)};
}

TaskSpec sample_task() {
  TaskSpec spec;
  spec.id = 17;
  spec.genome = {0.25, -1.5, 3.0};
  spec.eval_seed = 0xDEADBEEFCAFEF00Dull;
  spec.uuid = "0123456789abcdef0123456789abcdef";
  return spec;
}

WorkResult sample_result() {
  WorkResult result;
  result.fitness = {0.01, 0.05};
  result.sim_minutes = 42.5;
  result.cause = FailureCause::kNone;
  result.attempts = 2;
  return result;
}

TEST(NetWire, FuzzHello) {
  const util::Json hello = encode_hello(3, 4711);
  EXPECT_EQ(decode_hello(parsed(hello)), 3u);
  const std::string wire = hello.dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_hello), wire.size());
  const test_support::FlipTally tally =
      test_support::fuzz_bit_flips(wire, decode_hello, [](std::size_t) {});
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_EQ(tally.rejected + tally.survived, wire.size() * 3);
  test_support::fuzz_integer_fields(hello, {{"token"}}, decode_hello);
}

TEST(NetWire, FuzzTask) {
  const util::Json task = encode_task(sample_task(), 0.0);
  const std::string wire = task.dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_task_frame), wire.size());
  // A flip inside a digit or the uuid can survive; the genome keeps its
  // length and stays finite.
  const test_support::FlipTally tally = test_support::fuzz_bit_flips(
      wire, decode_task_frame, [](const TaskSpec& spec) {
        ASSERT_EQ(spec.genome.size(), 3u);
        for (const double gene : spec.genome) EXPECT_TRUE(std::isfinite(gene));
      });
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_EQ(tally.rejected + tally.survived, wire.size() * 3);
  test_support::fuzz_integer_fields(task, {{"id"}}, decode_task_frame);
}

TEST(NetWire, FuzzResult) {
  const util::Json result = encode_result(9, sample_result());
  const std::string wire = result.dump();
  EXPECT_EQ(test_support::fuzz_truncation(wire, decode_result_frame), wire.size());
  const test_support::FlipTally tally = test_support::fuzz_bit_flips(
      wire, decode_result_frame, [](const std::pair<std::size_t, WorkResult>& r) {
        EXPECT_EQ(r.second.fitness.size(), 2u);
        EXPECT_TRUE(std::isfinite(r.second.sim_minutes));
      });
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_EQ(tally.rejected + tally.survived, wire.size() * 3);
  test_support::fuzz_integer_fields(result, {{"id"}, {"attempts"}},
                                    decode_result_frame);
}

}  // namespace
}  // namespace dpho::hpc::net
