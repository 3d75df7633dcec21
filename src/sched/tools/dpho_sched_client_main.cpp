// dpho_sched_client: control CLI for the dpho_sched scheduler daemon.
//
//   dpho_sched_client --port P submit --spec FILE
//   dpho_sched_client --port P status NAME [--record] [--wait]
//   dpho_sched_client --port P cancel NAME
//   dpho_sched_client --port P list
//   dpho_sched_client --port P result NAME [--out FILE]
//
// --port-file FILE reads the port the daemon wrote (clients poll it while
// the daemon boots).  `submit` sends the run spec JSON in FILE verbatim;
// `status --wait` polls until the run leaves the active phase and exits 0
// only for "done"; `result` fetches the finished run's full RunRecord JSON
// (an error with code "not_finished" while the run is active).
//
// Chaos hook for the e2e tests: --expect-error CODE asserts the daemon
// refuses the request with that protocol error code (exit 0 when it does).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "hpc/net/frame.hpp"
#include "hpc/net/wire.hpp"
#include "sched/protocol.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

using namespace dpho;

/// Decodes a reply as a result, or raises the daemon's error as ValueError.
sched::ResultReply expect_result(const util::Json& reply) {
  if (sched::message_type(reply) == sched::kMsgError) {
    const sched::ErrorReply error = sched::decode_error(reply);
    throw util::ValueError("daemon refused (" + to_string(error.code) +
                           "): " + error.message);
  }
  return sched::decode_result_reply(reply);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_flag("--port", "daemon port")
      .add_flag("--port-file", "read the daemon port from this file")
      .add_flag("--spec", "run spec JSON file (submit)")
      .add_flag("--record", "embed the finished record in status", false)
      .add_flag("--wait", "status: poll until the run leaves active", false)
      .add_flag("--poll-interval", "seconds between --wait polls, default 0.05")
      .add_flag("--out", "result: write the record JSON here (default stdout)")
      .add_flag("--expect-error",
                "assert the daemon refuses with this error code")
      .add_flag("--quiet", "suppress the reply printout", false)
      .add_flag("--help", "show this message", false);
  const std::string usage_text =
      args.usage("dpho_sched_client --port P <submit|status|cancel|list|result> [NAME]");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpho_sched_client: %s\n%s", e.what(),
                 usage_text.c_str());
    return 2;
  }
  if (args.has("--help")) {
    std::fputs(usage_text.c_str(), stdout);
    return 0;
  }

  std::uint16_t port = 0;
  try {
    if (args.has("--port")) {
      port = static_cast<std::uint16_t>(args.get("--port", std::int64_t{0}));
    } else if (args.has("--port-file")) {
      const std::string text =
          util::read_file(args.get("--port-file", std::string()));
      port = static_cast<std::uint16_t>(std::stoul(text));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpho_sched_client: bad port: %s\n", e.what());
    return 2;
  }
  if (port == 0 || args.positional().empty()) {
    std::fputs(usage_text.c_str(), stderr);
    return 2;
  }

  const std::string command = args.positional()[0];
  const std::string name =
      args.positional().size() > 1 ? args.positional()[1] : std::string();
  const bool quiet = args.has("--quiet");
  const std::string expect_error = args.get("--expect-error", std::string());

  try {
    const int fd = hpc::net::connect_loopback(port);
    std::uint64_t next_id = 1;
    util::Json request;
    if (command == "submit") {
      if (!args.has("--spec")) {
        std::fprintf(stderr, "dpho_sched_client: submit needs --spec FILE\n");
        ::close(fd);
        return 2;
      }
      sched::SubmitRequest submit;
      submit.id = next_id++;
      submit.spec = sched::run_spec_from_json(util::Json::parse(
          util::read_file(args.get("--spec", std::string()))));
      request = sched::encode_submit_request(submit);
    } else if (command == "status" || command == "result") {
      if (name.empty()) {
        std::fputs(usage_text.c_str(), stderr);
        ::close(fd);
        return 2;
      }
      sched::StatusRequest status;
      status.id = next_id++;
      status.run = name;
      status.want_record = command == "result" || args.has("--record");
      request = sched::encode_status_request(status);
    } else if (command == "cancel") {
      if (name.empty()) {
        std::fputs(usage_text.c_str(), stderr);
        ::close(fd);
        return 2;
      }
      request = sched::encode_cancel_request(
          sched::CancelRequest{next_id++, name});
    } else if (command == "list") {
      request = sched::encode_list_request(sched::ListRequest{next_id++});
    } else {
      std::fprintf(stderr, "dpho_sched_client: unknown command \"%s\"\n%s",
                   command.c_str(), usage_text.c_str());
      ::close(fd);
      return 2;
    }

    util::Json reply = hpc::net::exchange(fd, request);

    if (!expect_error.empty()) {
      ::close(fd);
      if (sched::message_type(reply) != sched::kMsgError) {
        std::fprintf(stderr,
                     "dpho_sched_client: expected error %s, got a result\n",
                     expect_error.c_str());
        return 1;
      }
      const sched::ErrorReply error = sched::decode_error(reply);
      if (to_string(error.code) != expect_error) {
        std::fprintf(stderr, "dpho_sched_client: expected error %s, got %s\n",
                     expect_error.c_str(), to_string(error.code).c_str());
        return 1;
      }
      if (!quiet) std::printf("refused as expected: %s\n", error.message.c_str());
      return 0;
    }

    // status --wait: poll until the run leaves the active phase.
    if (command == "status" && args.has("--wait")) {
      const double interval = args.get("--poll-interval", 0.05);
      for (;;) {
        const sched::ResultReply result = expect_result(reply);
        const sched::RunStatus status =
            sched::run_status_from_json(result.body.at("run"));
        if (status.phase != sched::RunPhase::kActive) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
        sched::StatusRequest poll;
        poll.id = next_id++;
        poll.run = name;
        poll.want_record = args.has("--record");
        reply = hpc::net::exchange(fd, sched::encode_status_request(poll));
      }
    }

    const sched::ResultReply result = expect_result(reply);
    ::close(fd);

    if (command == "result") {
      const std::string record = result.body.at("record").dump(2) + "\n";
      if (args.has("--out")) {
        util::write_file(args.get("--out", std::string()), record);
      } else {
        std::fputs(record.c_str(), stdout);
      }
      return 0;
    }
    if (!quiet) std::printf("%s\n", result.body.dump(2).c_str());
    if (command == "status" || command == "submit" || command == "cancel") {
      const sched::RunStatus status =
          sched::run_status_from_json(result.body.at("run"));
      if (args.has("--wait") && status.phase != sched::RunPhase::kDone) {
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpho_sched_client: %s\n", e.what());
    return 1;
  }
}
