#include "hpc/faultplan_io.hpp"

#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::hpc {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKillWorker: return "kill_worker";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kCorruptPayload: return "corrupt_payload";
    case FaultKind::kSchedulerRestart: return "scheduler_restart";
  }
  throw util::ValueError("invalid fault kind");
}

FaultKind fault_kind_from_string(const std::string& name) {
  for (const FaultKind kind :
       {FaultKind::kKillWorker, FaultKind::kStraggler, FaultKind::kCorruptPayload,
        FaultKind::kSchedulerRestart}) {
    if (to_string(kind) == name) return kind;
  }
  throw util::ParseError("unknown fault kind: " + name);
}

util::Json fault_plan_to_json(const FaultPlan& plan) {
  util::JsonArray events;
  for (const FaultEvent& event : plan.events) {
    util::JsonObject obj;
    obj["kind"] = to_string(event.kind);
    obj["batch"] = event.batch;
    obj["task"] = event.task;
    obj["attempt"] = event.attempt;
    obj["factor"] = event.factor;
    obj["delay_minutes"] = event.delay_minutes;
    events.push_back(util::Json(std::move(obj)));
  }
  util::JsonObject doc;
  doc["events"] = util::Json(std::move(events));
  return util::Json(std::move(doc));
}

FaultPlan fault_plan_from_json(const util::Json& json) {
  if (!json.is_object() || !json.contains("events")) {
    throw util::ParseError("fault plan: expected {\"events\": [...]}");
  }
  FaultPlan plan;
  std::size_t index = 0;
  for (const util::Json& entry : json.at("events").as_array()) {
    // Name the offending event in every error: a malformed plan otherwise
    // loads silently and misbehaves mid-run, where the symptom (a fault that
    // never fires, or a task that runs backwards in time) is far from the
    // bad JSON line.
    const std::string where = "fault plan event " + std::to_string(index);
    try {
      // Counts go through Json::uint_at: -1 must not wrap to an event that
      // never fires, nor 1e30 to an undefined cast.
      FaultEvent event;
      event.kind = fault_kind_from_string(entry.at("kind").as_string());
      event.batch = entry.uint_at("batch");
      // task is meaningless for scheduler_restart events, so it is optional.
      event.task = entry.uint_or("task", event.task);
      event.attempt = entry.uint_or("attempt", event.attempt);
      if (event.attempt < 1) throw util::ParseError("attempt must be >= 1, got 0");
      event.factor = entry.number_or("factor", 1.0);
      if (event.factor < 0.0) {
        throw util::ParseError("factor must be >= 0, got " +
                               std::to_string(event.factor));
      }
      event.delay_minutes = entry.number_or("delay_minutes", 0.0);
      if (event.delay_minutes < 0.0) {
        throw util::ParseError("delay_minutes must be >= 0, got " +
                               std::to_string(event.delay_minutes));
      }
      plan.events.push_back(event);
    } catch (const util::Error& e) {
      throw util::ParseError(where + ": " + e.what());
    }
    ++index;
  }
  return plan;
}

FaultPlan load_fault_plan(const std::filesystem::path& path) {
  return fault_plan_from_json(util::Json::parse(util::read_file(path)));
}

}  // namespace dpho::hpc
