#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "number_reference.hpp"

namespace dpho::util {
namespace {

std::string write_rows(const std::vector<std::vector<std::string>>& rows,
                       char delimiter = ',') {
  std::ostringstream out;
  CsvWriter writer(out, delimiter);
  for (const auto& row : rows) writer.write_row(row);
  return out.str();
}

TEST(Csv, WritesSimpleRows) {
  EXPECT_EQ(write_rows({{"a", "b"}, {"1", "2"}}), "a,b\n1,2\n");
}

TEST(Csv, QuotesFieldsWithDelimiter) {
  EXPECT_EQ(write_rows({{"x,y", "z"}}), "\"x,y\",z\n");
}

TEST(Csv, QuotesAndDoublesEmbeddedQuotes) {
  EXPECT_EQ(write_rows({{"he said \"hi\""}}), "\"he said \"\"hi\"\"\"\n");
}

TEST(Csv, QuotesNewlines) {
  EXPECT_EQ(write_rows({{"line1\nline2"}}), "\"line1\nline2\"\n");
}

TEST(Csv, TabDelimiter) {
  EXPECT_EQ(write_rows({{"a", "b,c"}}, '\t'), "a\tb,c\n");
}

TEST(Csv, RoundTripThroughReader) {
  const std::vector<std::vector<std::string>> rows = {
      {"name", "value", "note"},
      {"alpha", "1,5", "said \"ok\""},
      {"beta", "", "multi\nline"},
  };
  const auto parsed = CsvReader::parse(write_rows(rows));
  EXPECT_EQ(parsed, rows);
}

TEST(Csv, ReaderHandlesCrLf) {
  const auto rows = CsvReader::parse("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, ReaderHandlesMissingTrailingNewline) {
  const auto rows = CsvReader::parse("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, ReaderEmptyInput) {
  EXPECT_TRUE(CsvReader::parse("").empty());
}

TEST(Csv, ReaderTrailingEmptyField) {
  const auto rows = CsvReader::parse("a,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", ""}));
}

TEST(Csv, FormatRoundTripsDoubles) {
  for (double v : {0.0625, 3.51e-8, 1.0 / 3.0, -42.0, 0.0}) {
    EXPECT_DOUBLE_EQ(std::stod(CsvWriter::format(v)), v);
  }
}

TEST(Csv, FormatMatchesThePrecisionSearch) {
  // Byte for byte the old snprintf/strtod search's text, over edge values
  // (non-finite ones print as printf's inf/nan) and a million random bit
  // patterns.
  std::vector<double> values = reference::edge_values();
  const std::vector<double> random = reference::random_bit_patterns(0xC5F, 1'000'000);
  values.insert(values.end(), random.begin(), random.end());
  const std::vector<std::size_t> bad = reference::mismatches(
      values, [](double v) { return CsvWriter::format(v) == reference::shortest_g(v); });
  for (std::size_t k = 0; k < std::min<std::size_t>(bad.size(), 10); ++k) {
    const double v = values[bad[k]];
    ADD_FAILURE() << v << ": format " << CsvWriter::format(v) << ", reference "
                  << reference::shortest_g(v);
  }
  EXPECT_TRUE(bad.empty()) << bad.size() << " of " << values.size() << " values differ";
}

TEST(Csv, FormatPrefersShortRepresentation) {
  EXPECT_EQ(CsvWriter::format(0.5), "0.5");
  EXPECT_EQ(CsvWriter::format(2.0), "2");
}

}  // namespace
}  // namespace dpho::util
