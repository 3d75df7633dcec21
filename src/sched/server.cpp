#include "sched/server.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"

namespace dpho::sched {

Server::Server(ServerOptions options, const core::Evaluator& evaluator)
    : options_(std::move(options)),
      scheduler_(options_.scheduler, evaluator),
      connections_(options_.max_frame_bytes) {}

Server::~Server() = default;

void Server::start() { connections_.open(); }

void Server::serve_forever() {
  while (!stopping()) poll_once();
}

void Server::poll_once() {
  const hpc::net::PollRound round = connections_.poll(
      0, [this](const auto& peer, const auto& frame) { handle_frame(peer, frame); },
      [](const auto&, hpc::net::FrameError) {});
  if (round.accepted > 0) {
    obs::metrics().counter("sched.connections_total").add(
        static_cast<std::int64_t>(round.accepted));
  }

  if (!scheduler_.idle()) {
    scheduler_.step(options_.step_wait_seconds);
  } else if (round.ready == 0 && round.accepted == 0) {
    // Nothing to step, read or accept: sleep instead of spinning (the
    // process backend would otherwise pace us inside the mux pump).
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.step_wait_seconds));
  }
}

void Server::handle_frame(const hpc::net::ConnectionServer::Peer& connection,
                          const std::string& payload) {
  // Recover a correlation id as early as possible so even a refusal can be
  // matched to its request.
  std::uint64_t id = 0;
  util::Json reply;
  try {
    const util::Json message = util::Json::parse(payload);
    id = hpc::net::reply_id(message);
    reply = dispatch(message);
  } catch (const SchedError& e) {
    reply = encode_error(ErrorReply{id, e.code(), e.what()});
  } catch (const util::ParseError& e) {
    reply = encode_error(ErrorReply{id, ErrorCode::kBadRequest, e.what()});
  } catch (const util::ValueError& e) {
    reply = encode_error(ErrorReply{id, ErrorCode::kBadRequest, e.what()});
  } catch (const std::exception& e) {
    reply = encode_error(ErrorReply{id, ErrorCode::kInternal, e.what()});
  }
  ++requests_served_;
  obs::metrics().counter("sched.requests_total").add(1);
  connection->send(reply.dump());
}

util::Json Server::dispatch(const util::Json& message) {
  const std::string type = message_type(message);
  if (type == kMsgSubmit) {
    const SubmitRequest request = decode_submit_request(message);
    const RunStatus status = scheduler_.submit(request.spec);
    util::Json body;
    body["run"] = run_status_to_json(status);
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  if (type == kMsgStatus) {
    const StatusRequest request = decode_status_request(message);
    const RunStatus status = scheduler_.status(request.run);
    util::Json body;
    body["run"] = run_status_to_json(status);
    if (request.want_record) {
      // result() refuses with kNotFinished while the run is active.
      body["record"] = scheduler_.result(request.run);
    }
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  if (type == kMsgCancel) {
    const CancelRequest request = decode_cancel_request(message);
    const RunStatus status = scheduler_.cancel(request.run);
    util::Json body;
    body["run"] = run_status_to_json(status);
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  if (type == kMsgList) {
    const ListRequest request = decode_list_request(message);
    util::JsonArray runs;
    for (const RunStatus& status : scheduler_.list()) {
      runs.push_back(run_status_to_json(status));
    }
    util::Json body;
    body["runs"] = util::Json(std::move(runs));
    return encode_result_reply(ResultReply{request.id, std::move(body)});
  }
  throw SchedError(ErrorCode::kBadRequest, "unknown request type \"" + type +
                                               "\"");
}

}  // namespace dpho::sched
