#include "util/args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "util/error.hpp"

namespace dpho::util {
namespace {

ArgParser make_parser() {
  ArgParser args;
  args.add_flag("--pop", "population size")
      .add_flag("--out", "output dir")
      .add_flag("--async", "steady state", false)
      .add_flag("--rate", "failure rate");
  return args;
}

void parse(ArgParser& args, std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, SpaceSeparatedValues) {
  ArgParser args = make_parser();
  parse(args, {"--pop", "40", "--out", "results"});
  EXPECT_EQ(args.get("--pop", std::int64_t{0}), 40);
  EXPECT_EQ(args.get("--out", std::string()), "results");
}

TEST(Args, EqualsSeparatedValues) {
  ArgParser args = make_parser();
  parse(args, {"--pop=25", "--rate=0.125"});
  EXPECT_EQ(args.get("--pop", std::int64_t{0}), 25);
  EXPECT_DOUBLE_EQ(args.get("--rate", 0.0), 0.125);
}

TEST(Args, BooleanFlags) {
  ArgParser args = make_parser();
  parse(args, {"--async"});
  EXPECT_TRUE(args.has("--async"));
  EXPECT_FALSE(args.has("--pop"));
}

TEST(Args, DefaultsWhenAbsent) {
  ArgParser args = make_parser();
  parse(args, {});
  EXPECT_EQ(args.get("--pop", std::int64_t{100}), 100);
  EXPECT_DOUBLE_EQ(args.get("--rate", 5e-4), 5e-4);
  EXPECT_EQ(args.get("--out", std::string("d")), "d");
}

/// The ParseError get_count throws, or "" when it accepts the value.
std::string count_error(const ArgParser& args, std::size_t fallback,
                        std::size_t min, std::size_t max) {
  try {
    args.get_count("--pop", fallback, min, max);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(Args, CountsAreRangeCheckedAndNameTheFlag) {
  constexpr std::size_t kAny = ArgParser::kMaxCount;
  const auto with_pop = [](const char* value) {
    ArgParser args = make_parser();
    parse(args, {"--pop", value});
    return args;
  };
  // In range, at both ends of an inclusive range, and the fallback.
  EXPECT_EQ(with_pop("40").get_count("--pop", 100, 1), 40u);
  EXPECT_EQ(with_pop("1").get_count("--pop", 100, 1, 65535), 1u);
  EXPECT_EQ(with_pop("65535").get_count("--pop", 100, 1, 65535), 65535u);
  EXPECT_EQ(with_pop("0").get_count("--pop", 100), 0u);
  EXPECT_EQ(make_parser().get_count("--pop", 100, 1), 100u);
  EXPECT_EQ(with_pop("9223372036854775807").get_count("--pop", 1), kAny);

  // Below, above, negative, non-integer, and past int64: each names the flag.
  for (const auto& [value, min, max] :
       {std::tuple{"0", std::size_t{1}, kAny}, std::tuple{"-1", std::size_t{0}, kAny},
        std::tuple{"65536", std::size_t{1}, std::size_t{65535}},
        std::tuple{"2.5", std::size_t{0}, kAny},
        std::tuple{"9223372036854775808", std::size_t{0}, kAny}}) {
    const std::string error = count_error(with_pop(value), 1, min, max);
    EXPECT_NE(error.find("--pop"), std::string::npos) << value << ": " << error;
  }
  EXPECT_NE(count_error(with_pop("-1"), 1, 0, kAny).find(">= 0"), std::string::npos);
  EXPECT_NE(count_error(with_pop("65536"), 1, 1, 65535).find("[1, 65535]"),
            std::string::npos);
}

TEST(Args, PositionalCollected) {
  ArgParser args = make_parser();
  parse(args, {"input.json", "--pop", "10", "data"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.json");
  EXPECT_EQ(args.positional()[1], "data");
}

TEST(Args, UnknownFlagThrows) {
  ArgParser args = make_parser();
  EXPECT_THROW(parse(args, {"--bogus", "1"}), ParseError);
}

TEST(Args, MissingValueThrows) {
  ArgParser args = make_parser();
  EXPECT_THROW(parse(args, {"--pop"}), ParseError);
}

TEST(Args, ValueOnBooleanThrows) {
  ArgParser args = make_parser();
  EXPECT_THROW(parse(args, {"--async=yes"}), ParseError);
}

TEST(Args, NonNumericValueThrows) {
  ArgParser args = make_parser();
  parse(args, {"--pop", "abc"});
  EXPECT_THROW(args.get("--pop", std::int64_t{0}), ParseError);
  ArgParser args2 = make_parser();
  parse(args2, {"--rate", "fast"});
  EXPECT_THROW(args2.get("--rate", 0.0), ParseError);
}

TEST(Args, IntegerOutsideInt64OrEmptyThrows) {
  for (const char* bad : {"99999999999999999999", "-99999999999999999999", "", "1e30"}) {
    ArgParser args = make_parser();
    parse(args, {"--pop", bad});
    EXPECT_THROW(args.get("--pop", std::int64_t{0}), ParseError) << "'" << bad << "'";
  }
}

TEST(Args, UsageListsFlags) {
  const ArgParser args = make_parser();
  const std::string usage = args.usage("dpho_hpo");
  EXPECT_NE(usage.find("usage: dpho_hpo"), std::string::npos);
  EXPECT_NE(usage.find("--pop <value>"), std::string::npos);
  EXPECT_NE(usage.find("population size"), std::string::npos);
}

TEST(Args, BadFlagDeclarationThrows) {
  ArgParser args;
  EXPECT_THROW(args.add_flag("pop", "no dashes"), ValueError);
}

// The shared execution-backend flags (dpho_hpo, dp_train, dp_serve).

TEST(BackendFlags, DefaultsWhenAbsent) {
  ArgParser args;
  add_backend_flags(args, {.cluster = false, .default_threads = 3});
  parse(args, {});
  const BackendFlags flags =
      parse_backend_flags(args, {.cluster = false, .default_threads = 3});
  EXPECT_EQ(flags.threads, 3u);
  EXPECT_TRUE(flags.metrics_out.empty());
  EXPECT_EQ(flags.metrics_interval, 0u);
  EXPECT_EQ(flags.cluster, "sim");  // untouched without the cluster trio
}

TEST(BackendFlags, ParsesSharedValues) {
  ArgParser args;
  add_backend_flags(args);
  parse(args, {"--threads", "5", "--metrics-out", "t.jsonl",
               "--metrics-interval", "10"});
  const BackendFlags flags = parse_backend_flags(args);
  EXPECT_EQ(flags.threads, 5u);
  EXPECT_EQ(flags.metrics_out, "t.jsonl");
  EXPECT_EQ(flags.metrics_interval, 10u);
}

TEST(BackendFlags, ClusterTrioOnlyWhenRequested) {
  ArgParser without;
  add_backend_flags(without, {.cluster = false});
  EXPECT_THROW(parse(without, {"--cluster", "process"}), ParseError);

  ArgParser with;
  add_backend_flags(with, {.cluster = true});
  parse(with, {"--cluster", "process", "--workers", "4",
               "--worker-binary", "/opt/dpho_worker"});
  const BackendFlags flags = parse_backend_flags(with, {.cluster = true});
  EXPECT_EQ(flags.cluster, "process");
  EXPECT_EQ(flags.workers, 4u);
  EXPECT_EQ(flags.worker_binary, "/opt/dpho_worker");
}

TEST(BackendFlags, BadClusterNameThrows) {
  ArgParser args;
  add_backend_flags(args, {.cluster = true});
  parse(args, {"--cluster", "dask"});
  EXPECT_THROW(parse_backend_flags(args, {.cluster = true}), ParseError);
}

TEST(BackendFlags, NegativeCountsThrow) {
  ArgParser threads;
  add_backend_flags(threads);
  parse(threads, {"--threads", "-1"});
  EXPECT_THROW(parse_backend_flags(threads), ParseError);

  ArgParser workers;
  add_backend_flags(workers, {.cluster = true});
  parse(workers, {"--workers", "-2"});
  EXPECT_THROW(parse_backend_flags(workers, {.cluster = true}), ParseError);
}

TEST(BackendFlags, UsageMentionsTheSharedFlags) {
  ArgParser args;
  add_backend_flags(args, {.cluster = true, .default_threads = 2});
  const std::string usage = args.usage("tool");
  EXPECT_NE(usage.find("--threads"), std::string::npos);
  EXPECT_NE(usage.find("--metrics-out"), std::string::npos);
  EXPECT_NE(usage.find("--cluster"), std::string::npos);
}

}  // namespace
}  // namespace dpho::util
