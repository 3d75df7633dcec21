#include "dp/archive.hpp"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "util/error.hpp"
#include "util/fs.hpp"

namespace dpho::dp {

namespace {

bool valid_id(const std::string& id) {
  if (id.empty()) return false;
  for (char c : id) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool all_digits(const std::string& text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

double parse_selector_number(const std::string& text) {
  const std::string value = trim(text);
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw util::ValueError("archive selector: malformed number '" + value + "'");
  }
  return parsed;
}

ArchiveEntry entry_from_json(const util::Json& json) {
  ArchiveEntry entry;
  entry.id = json.at("id").as_string();
  entry.file = json.at("file").as_string();
  if (!valid_id(entry.id)) {
    throw util::ValueError("archive: invalid model id '" + entry.id + "'");
  }
  // add() always writes <id>.json, so any other name (an absolute path, a
  // "../" one) would only ever read outside the archive.
  if (entry.file != entry.id + ".json") {
    throw util::ValueError("archive: model '" + entry.id + "' has file '" +
                           entry.file + "', not '" + entry.id + ".json'");
  }
  if (json.contains("rank")) {
    const std::int64_t rank = json.at("rank").as_int();
    if (rank < std::numeric_limits<int>::min() ||
        rank > std::numeric_limits<int>::max()) {
      throw util::ValueError("archive: model '" + entry.id + "' has rank " +
                             std::to_string(rank));
    }
    entry.rank = static_cast<int>(rank);
  }
  if (json.contains("objectives")) {
    for (const auto& [name, value] : json.at("objectives").as_object()) {
      entry.objectives.emplace_back(name, value.as_number());
    }
  }
  if (json.contains("spec")) entry.spec = ModelSpec::from_json(json.at("spec"));
  if (json.contains("atoms")) entry.num_atoms = json.at("atoms").as_uint();
  return entry;
}

util::Json entry_to_json(const ArchiveEntry& entry) {
  util::Json json;
  json["id"] = entry.id;
  json["file"] = entry.file;
  json["rank"] = entry.rank;
  util::Json& objectives = json["objectives"];
  objectives = util::Json(util::JsonObject{});
  for (const auto& [name, value] : entry.objectives) objectives[name] = value;
  json["atoms"] = entry.num_atoms;
  json["spec"] = entry.spec.to_json();
  return json;
}

}  // namespace

bool ArchiveEntry::has_objective(const std::string& name) const {
  for (const auto& [key, value] : objectives) {
    if (key == name) return true;
  }
  return false;
}

double ArchiveEntry::objective(const std::string& name) const {
  for (const auto& [key, value] : objectives) {
    if (key == name) return value;
  }
  throw util::ValueError("archive: model '" + id + "' has no objective '" + name +
                         "'");
}

ModelArchive ModelArchive::create(const std::filesystem::path& dir) {
  if (std::filesystem::exists(dir / "archive.json")) {
    throw util::ValueError("archive: " + (dir / "archive.json").string() +
                           " already exists");
  }
  std::filesystem::create_directories(dir);
  ModelArchive archive;
  archive.dir_ = dir;
  archive.write_catalog();
  return archive;
}

ModelArchive ModelArchive::open(const std::filesystem::path& dir) {
  const util::Json catalog =
      util::Json::parse(util::read_file(dir / "archive.json"));
  if (catalog.string_or("schema", "") != kSchema) {
    throw util::ValueError("archive: unsupported schema '" +
                           catalog.string_or("schema", "<missing>") + "'");
  }
  ModelArchive archive;
  archive.dir_ = dir;
  for (const util::Json& row : catalog.at("models").as_array()) {
    ArchiveEntry entry = entry_from_json(row);
    if (archive.find(entry.id) != nullptr) {
      throw util::ValueError("archive: duplicate model id '" + entry.id + "'");
    }
    archive.entries_.push_back(std::move(entry));
  }
  return archive;
}

const ArchiveEntry& ModelArchive::entry(std::size_t index) const {
  if (index >= entries_.size()) {
    throw util::ValueError("archive: index " + std::to_string(index) +
                           " out of range (have " +
                           std::to_string(entries_.size()) + " models)");
  }
  return entries_[index];
}

const ArchiveEntry* ModelArchive::find(const std::string& id) const {
  for (const ArchiveEntry& entry : entries_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

const ArchiveEntry& ModelArchive::at(const std::string& id) const {
  const ArchiveEntry* entry = find(id);
  if (entry == nullptr) {
    throw util::ValueError("archive: unknown model id '" + id + "'");
  }
  return *entry;
}

std::vector<std::string> ModelArchive::select(const std::string& selector) const {
  const std::string expr = trim(selector);
  std::vector<std::string> ids;
  if (expr == "all" || expr.empty()) {
    for (const ArchiveEntry& entry : entries_) ids.push_back(entry.id);
  } else if (expr.rfind("rank=", 0) == 0) {
    // Compared as a double, which holds every int exactly: no cast of user input.
    const double rank = parse_selector_number(expr.substr(5));
    for (const ArchiveEntry& entry : entries_) {
      if (entry.rank == rank) ids.push_back(entry.id);
    }
  } else if (expr.find('<') != std::string::npos ||
             expr.find('>') != std::string::npos) {
    // Objective filter: name OP value with OP in {<, <=, >, >=}.
    const std::size_t op_pos = expr.find_first_of("<>");
    const bool less = expr[op_pos] == '<';
    const bool or_equal = op_pos + 1 < expr.size() && expr[op_pos + 1] == '=';
    const std::string name = trim(expr.substr(0, op_pos));
    const double bound =
        parse_selector_number(expr.substr(op_pos + (or_equal ? 2 : 1)));
    if (name.empty()) throw util::ValueError("archive selector: missing objective");
    for (const ArchiveEntry& entry : entries_) {
      const double value = entry.objective(name);  // throws when unrecorded
      const bool keep = less ? (or_equal ? value <= bound : value < bound)
                             : (or_equal ? value >= bound : value > bound);
      if (keep) ids.push_back(entry.id);
    }
  } else {
    // Comma list of catalog indices and/or ids.
    std::size_t begin = 0;
    while (begin <= expr.size()) {
      const std::size_t comma = expr.find(',', begin);
      const std::string token =
          trim(expr.substr(begin, comma == std::string::npos ? std::string::npos
                                                             : comma - begin));
      if (!token.empty()) {
        const std::string id = all_digits(token)
                                   ? entry(std::stoul(token)).id
                                   : at(token).id;
        ids.push_back(id);
      }
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }
  if (ids.empty()) {
    throw util::ValueError("archive selector '" + expr + "' matched no models");
  }
  return ids;
}

Potential ModelArchive::load(const std::string& id) const {
  const ArchiveEntry& row = at(id);
  return Potential::load_file((dir_ / row.file).string());
}

void ModelArchive::add(const std::string& id, const DeepPotModel& model,
                       std::vector<std::pair<std::string, double>> objectives,
                       int rank) {
  if (!valid_id(id)) {
    throw util::ValueError("archive: invalid model id '" + id + "'");
  }
  if (find(id) != nullptr) {
    throw util::ValueError("archive: duplicate model id '" + id + "'");
  }
  ArchiveEntry entry;
  entry.id = id;
  entry.file = id + ".json";
  entry.rank = rank;
  entry.objectives = std::move(objectives);
  entry.spec = model.spec();
  entry.num_atoms = model.num_atoms();
  model.save_file(dir_ / entry.file);
  entries_.push_back(std::move(entry));
  write_catalog();
}

void ModelArchive::write_catalog() const {
  util::Json catalog;
  catalog["schema"] = kSchema;
  util::JsonArray models;
  for (const ArchiveEntry& entry : entries_) models.push_back(entry_to_json(entry));
  catalog["models"] = util::Json(std::move(models));
  util::atomic_write_file(dir_ / "archive.json", catalog.dump(2) + "\n");
}

}  // namespace dpho::dp
