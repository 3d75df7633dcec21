// The dpho_report CLI end to end: renders a real run's metrics summary and
// timeline, prints raw sections for the regen tooling, and digests files.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "util/fs.hpp"
#include "util/json.hpp"

#ifndef DPHO_HPO_BIN
#define DPHO_HPO_BIN "dpho_hpo"
#endif
#ifndef DPHO_REPORT_BIN
#define DPHO_REPORT_BIN "dpho_report"
#endif

namespace dpho {
namespace {

int run_command(const std::string& command) {
  return WEXITSTATUS(std::system(command.c_str()));
}

class DphoReportCli : public ::testing::Test {
 protected:
  // One tiny instrumented run shared by every test in the fixture.
  static void SetUpTestSuite() {
    dir_ = new util::TempDir;
    const std::string command =
        std::string(DPHO_HPO_BIN) +
        " --pop 6 --generations 1 --runs 1 --threads 2 --out " +
        (dir_->path() / "out").string() + " --metrics-out " +
        (dir_->path() / "metrics.jsonl").string() +
        " --quiet > /dev/null 2>&1";
    ASSERT_EQ(run_command(command), 0);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static std::filesystem::path summary() {
    return dir_->path() / "out" / "metrics_summary.json";
  }
  static std::filesystem::path timeline() {
    return dir_->path() / "metrics.jsonl";
  }

  static util::TempDir* dir_;
};

util::TempDir* DphoReportCli::dir_ = nullptr;

TEST_F(DphoReportCli, RendersSummaryAndTimeline) {
  const std::filesystem::path report = dir_->path() / "report.txt";
  const int code = run_command(std::string(DPHO_REPORT_BIN) + " --summary " +
                               summary().string() + " --timeline " +
                               timeline().string() + " --out " +
                               report.string());
  ASSERT_EQ(code, 0);
  const std::string text = util::read_file(report);
  EXPECT_NE(text.find("== metrics summary (dpho.metrics.v1) =="),
            std::string::npos);
  EXPECT_NE(text.find("engine.evaluations_total"), std::string::npos);
  EXPECT_NE(text.find("== event timeline"), std::string::npos);
  EXPECT_NE(text.find("engine.wave"), std::string::npos);
  EXPECT_NE(text.find("makespan_min"), std::string::npos);
}

TEST_F(DphoReportCli, SectionModePrintsRawJson) {
  const std::filesystem::path raw = dir_->path() / "det.json";
  const int code = run_command(std::string(DPHO_REPORT_BIN) + " --summary " +
                               summary().string() +
                               " --section deterministic --out " + raw.string());
  ASSERT_EQ(code, 0);
  // Byte-identical to dumping the section straight from the document: the
  // regen tooling relies on this equivalence.
  const util::Json document = util::Json::parse(util::read_file(summary()));
  EXPECT_EQ(util::read_file(raw), document.at("deterministic").dump(2) + "\n");
}

TEST_F(DphoReportCli, Fnv1aDigestsFileBytes) {
  const std::filesystem::path probe = dir_->path() / "probe.txt";
  util::write_file(probe, "hello");
  const std::filesystem::path digest = dir_->path() / "digest.txt";
  ASSERT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " --fnv1a " +
                        probe.string() + " --out " + digest.string()),
            0);
  // Known FNV-1a 64 test vector for "hello".
  EXPECT_EQ(util::read_file(digest), "a430d84680aabd0b\n");
}

TEST_F(DphoReportCli, OutOfRangeHistogramCountFailsNamingTheKey) {
  util::Json document = util::Json::parse(util::read_file(summary()));
  util::Json* histogram = nullptr;
  for (const char* section : {"deterministic", "timing"}) {
    for (auto& [name, hist] : document[section]["histograms"].as_object()) {
      if (histogram == nullptr) histogram = &hist;
    }
  }
  ASSERT_NE(histogram, nullptr) << "the run recorded no histogram";
  const std::filesystem::path bad = dir_->path() / "bad_summary.json";
  const std::filesystem::path err = dir_->path() / "bad_summary.err";
  for (const bool bucket : {false, true}) {
    util::Json mutated = *histogram;
    if (bucket) {
      ASSERT_FALSE(mutated["buckets"].as_array().empty());
      mutated["buckets"].as_array().front()["count"] = 1e30;
    } else {
      mutated["count"] = 1e30;
    }
    const util::Json original = *histogram;
    *histogram = mutated;
    util::write_file(bad, document.dump(2));
    *histogram = original;
    EXPECT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " --summary " + bad.string() +
                          " > /dev/null 2> " + err.string()),
              1)
        << (bucket ? "bucket" : "histogram") << " count";
    EXPECT_NE(util::read_file(err).find("count"), std::string::npos)
        << util::read_file(err);
  }
}

TEST_F(DphoReportCli, BadUsageFails) {
  EXPECT_EQ(run_command(std::string(DPHO_REPORT_BIN) + " > /dev/null 2>&1"), 2);
  EXPECT_EQ(run_command(std::string(DPHO_REPORT_BIN) +
                        " --summary /nonexistent.json > /dev/null 2>&1"),
            1);
}

}  // namespace
}  // namespace dpho
