#include "util/args.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace dpho::util {

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& help,
                               bool takes_value) {
  if (name.rfind("--", 0) != 0) throw ValueError("flags must start with --");
  specs_[name] = Spec{help, takes_value};
  return *this;
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    std::string name = token;
    std::optional<std::string> inline_value;
    const std::size_t equals = token.find('=');
    if (equals != std::string::npos) {
      name = token.substr(0, equals);
      inline_value = token.substr(equals + 1);
    }
    const auto spec = specs_.find(name);
    if (spec == specs_.end()) throw ParseError("unknown flag: " + name);
    if (!spec->second.takes_value) {
      if (inline_value) throw ParseError("flag takes no value: " + name);
      values_[name] = "1";
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
    } else {
      if (i + 1 >= argc) throw ParseError("missing value for " + name);
      values_[name] = argv[++i];
    }
  }
}

bool ArgParser::has(const std::string& name) const { return values_.contains(name); }

std::string ArgParser::get(const std::string& name, const std::string& fallback) const {
  const auto found = values_.find(name);
  return found == values_.end() ? fallback : found->second;
}

double ArgParser::get(const std::string& name, double fallback) const {
  const auto found = values_.find(name);
  if (found == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(found->second.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw ParseError("flag " + name + " expects a number, got " + found->second);
  }
  return value;
}

std::int64_t ArgParser::get(const std::string& name, std::int64_t fallback) const {
  const auto found = values_.find(name);
  if (found == values_.end()) return fallback;
  const char* text = found->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw ParseError("flag " + name + " expects a 64-bit integer, got '" +
                     found->second + "'");
  }
  return value;
}

void add_backend_flags(ArgParser& parser, const BackendFlagOptions& options) {
  if (options.cluster) {
    parser.add_flag("--cluster",
                    "evaluation backend: sim (default) or process (real workers)");
    parser.add_flag("--workers",
                    "process cluster: worker subprocesses, default 0 (= nodes)");
    parser.add_flag("--worker-binary",
                    "process cluster: dpho_worker path, default next to the tool");
  }
  parser.add_flag("--threads", "worker threads, default " +
                                   std::to_string(options.default_threads));
  parser.add_flag("--metrics-out",
                  "write the JSONL event timeline here (enables metrics export)");
  parser.add_flag("--metrics-interval",
                  "progress units between metrics snapshots, default 0 (off)");
}

namespace {

std::size_t count_flag(const ArgParser& parser, const std::string& name,
                       std::size_t fallback) {
  const std::int64_t value =
      parser.get(name, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw ParseError("flag " + name + " expects a non-negative count, got " +
                     std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

BackendFlags parse_backend_flags(const ArgParser& parser,
                                 const BackendFlagOptions& options) {
  BackendFlags flags;
  flags.threads = options.default_threads;
  if (options.cluster) {
    flags.cluster = parser.get("--cluster", std::string("sim"));
    if (flags.cluster != "sim" && flags.cluster != "process") {
      throw ParseError("flag --cluster expects sim or process, got " +
                       flags.cluster);
    }
    flags.workers = count_flag(parser, "--workers", 0);
    flags.worker_binary = parser.get("--worker-binary", std::string());
  }
  flags.threads = count_flag(parser, "--threads", options.default_threads);
  flags.metrics_out = parser.get("--metrics-out", std::string());
  flags.metrics_interval = count_flag(parser, "--metrics-interval", 0);
  return flags;
}

std::string ArgParser::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program;
  for (const auto& [name, spec] : specs_) {
    out << " [" << name << (spec.takes_value ? " <value>" : "") << "]";
  }
  out << "\n";
  for (const auto& [name, spec] : specs_) {
    out << "  " << name << (spec.takes_value ? " <value>" : "") << "  " << spec.help
        << "\n";
  }
  return out.str();
}

}  // namespace dpho::util
