#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "number_reference.hpp"
#include "util/error.hpp"

namespace dpho::util {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_number(), -1e-3);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNestedDocument) {
  const Json doc = Json::parse(R"({
    "model": {"descriptor": {"rcut": 8.5, "neuron": [25, 50, 100]}},
    "flags": [true, false, null],
    "name": "se_e2_a"
  })");
  EXPECT_DOUBLE_EQ(doc.at("model").at("descriptor").at("rcut").as_number(), 8.5);
  EXPECT_EQ(doc.at("model").at("descriptor").at("neuron").as_array().size(), 3u);
  EXPECT_EQ(doc.at("flags").as_array()[2], Json(nullptr));
  EXPECT_EQ(doc.at("name").as_string(), "se_e2_a");
}

TEST(Json, RoundTripPreservesStructure) {
  const std::string text =
      R"({"a":1,"b":[1,2.5,"x"],"c":{"d":true,"e":null},"f":"q\"uote"})";
  const Json doc = Json::parse(text);
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(doc, again);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc;
  doc["zebra"] = 1;
  doc["apple"] = 2;
  doc["mango"] = 3;
  const std::string out = doc.dump();
  EXPECT_LT(out.find("zebra"), out.find("apple"));
  EXPECT_LT(out.find("apple"), out.find("mango"));
}

TEST(Json, NumberFormattingRoundTrips) {
  for (double value : {0.0001, 3.51e-8, 1.0 / 3.0, 12345678.0, -0.0625, 1e300}) {
    Json j(value);
    EXPECT_DOUBLE_EQ(Json::parse(j.dump()).as_number(), value) << value;
  }
}

TEST(Json, NumbersPrintLikeThePrecisionSearchAndParseLikeStrtod) {
  // Every emitted number is the old snprintf/strtod search's text, and
  // parsing it gives strtod's bits, over edge values and a million random
  // bit patterns.
  std::vector<double> values = reference::edge_values();
  const std::vector<double> random = reference::random_bit_patterns(0x150A, 1'000'000);
  values.insert(values.end(), random.begin(), random.end());
  const std::vector<std::size_t> bad = reference::mismatches(values, [](double v) {
    const std::string text = Json(v).dump();
    if (text != reference::json_number(v)) return false;
    return text == "null" ||
           bits(Json::parse(text).as_number()) == bits(std::strtod(text.c_str(), nullptr));
  });
  for (std::size_t k = 0; k < std::min<std::size_t>(bad.size(), 10); ++k) {
    const double v = values[bad[k]];
    ADD_FAILURE() << "bits 0x" << std::hex << bits(v) << ": dump " << Json(v).dump()
                  << ", reference " << reference::json_number(v);
  }
  EXPECT_TRUE(bad.empty()) << bad.size() << " of " << values.size() << " values differ";
}

TEST(Json, IntegersPrintWithoutExponent) {
  EXPECT_EQ(Json(40000).dump(), "40000");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, EscapesControlCharacters) {
  Json j(std::string("line\nbreak\ttab \"quote\" back\\slash"));
  const std::string out = j.dump();
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\t"), std::string::npos);
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_EQ(Json::parse(out).as_string(), j.as_string());
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, NanAndInfSerializeAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(INFINITY).dump(), "null");
}

TEST(Json, PrettyPrintIndents) {
  Json doc;
  doc["a"]["b"] = 1;
  const std::string out = doc.dump(2);
  EXPECT_NE(out.find("{\n  \"a\""), std::string::npos);
  EXPECT_EQ(Json::parse(out), doc);
}

TEST(Json, AsIntRejectsFractions) {
  EXPECT_EQ(Json(42.0).as_int(), 42);
  EXPECT_THROW(Json(42.5).as_int(), ValueError);
}

TEST(Json, IntegerAccessorsRejectValuesOutsideTheirRange) {
  // Every cast they make is defined: out of range is a ValueError.
  EXPECT_EQ(Json(-0x1p63).as_int(), INT64_MIN);
  EXPECT_THROW(Json(0x1p63).as_int(), ValueError);
  EXPECT_THROW(Json::parse("1e30").as_int(), ValueError);
  EXPECT_THROW(Json::parse("-1e30").as_int(), ValueError);
  EXPECT_THROW(Json(NAN).as_int(), ValueError);

  EXPECT_EQ(Json(0.0).as_uint(), 0u);
  EXPECT_EQ(Json(42.0).as_uint(), 42u);
  EXPECT_EQ(Json(0x1p64 - 2048.0).as_uint(), 18446744073709549568u);
  for (const double bad : {0x1p64, 1e30, -1.0, 2.5, -0.5, double(NAN)}) {
    EXPECT_THROW(Json(bad).as_uint(), ValueError) << bad;
  }
  EXPECT_THROW(Json("7").as_uint(), ValueError);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_bool(), ValueError);
  EXPECT_THROW(j.as_number(), ValueError);
  EXPECT_THROW(j.as_string(), ValueError);
  EXPECT_THROW(j.as_object(), ValueError);
  EXPECT_NO_THROW(j.as_array());
}

TEST(Json, AtMissingKeyThrows) {
  const Json doc = Json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.at("b"), ValueError);
}

TEST(Json, NumberOrAndStringOr) {
  const Json doc = Json::parse(R"({"x": 2.5, "s": "v"})");
  EXPECT_DOUBLE_EQ(doc.number_or("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("s", "d"), "v");
  EXPECT_EQ(doc.string_or("missing", "d"), "d");
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad : {"", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
                          "{\"a\":1} extra", "[1 2]", "{'a':1}", "nul", "+1", "-",
                          "1e", "[1.5.2]"}) {
    EXPECT_THROW(Json::parse(bad), ParseError) << bad;
  }
}

TEST(Json, OverflowingNumbersThrow) {
  for (const char* bad : {"1e999", "-1e999", "[0, 1e400]", "{\"x\": -2E+999}"}) {
    EXPECT_THROW(Json::parse(bad), ParseError) << bad;
  }
  // The largest finite doubles still parse; underflow rounds toward zero and
  // stays finite, so it is accepted too.
  EXPECT_EQ(Json::parse("-1.7976931348623157e308").as_number(), -1.7976931348623157e308);
  EXPECT_EQ(Json::parse("1e-999").as_number(), 0.0);
  const double negative = Json::parse("-1e-999").as_number();
  EXPECT_EQ(negative, 0.0);
  EXPECT_TRUE(std::signbit(negative));
  // Around the subnormal floor and DBL_MAX the parser rounds like strtod.
  for (const char* text : {"2e-324", "-2e-324", "2.4703282292062328e-324",
                           "2.4703282292062329e-324", "3e-324", "1.7976931348623158e308"}) {
    EXPECT_EQ(bits(Json::parse(text).as_number()), bits(std::strtod(text, nullptr))) << text;
  }
}

TEST(Json, DeepNesting) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 50; ++i) text += "]";
  Json j = Json::parse(text);
  for (int i = 0; i < 50; ++i) {
    Json inner = j.as_array()[0];  // copy before reassigning the owner
    j = std::move(inner);
  }
  EXPECT_DOUBLE_EQ(j.as_number(), 1.0);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").dump(), "[]");
  EXPECT_EQ(Json::parse("{}").dump(), "{}");
  EXPECT_EQ(Json::parse("{ }").as_object().size(), 0u);
}

TEST(Json, OperatorBracketCreatesNestedObjects) {
  Json doc;  // starts null
  doc["a"]["b"]["c"] = 3.0;
  EXPECT_DOUBLE_EQ(doc.at("a").at("b").at("c").as_number(), 3.0);
}

}  // namespace
}  // namespace dpho::util
