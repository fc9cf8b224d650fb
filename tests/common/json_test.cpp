// Unit tests for the minimal JSON parser behind `paldia-analyze`: scalars,
// nesting, escapes, error positions, and the JSONL line reader.
#include "src/common/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace paldia::common {
namespace {

TEST(JsonParser, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").value.is_null());
  EXPECT_EQ(parse_json("true").value.as_bool(), true);
  EXPECT_EQ(parse_json("false").value.as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").value.as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.25e2").value.as_number(), -325.0);
  EXPECT_EQ(parse_json("\"hi\"").value.as_string(), "hi");
}

TEST(JsonParser, ParsesNestedStructures) {
  const auto result = parse_json(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})");
  ASSERT_TRUE(result.ok) << result.error;
  const JsonValue& root = result.value;
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  const JsonValue* b = a->as_array()[2].find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->as_string(), "c");
  EXPECT_TRUE(root.find("d")->find("e")->is_null());
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParser, ObjectPreservesInsertionOrder) {
  const auto result = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(result.ok);
  const JsonObject& object = result.value.as_object();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "z");
  EXPECT_EQ(object[1].first, "a");
  EXPECT_EQ(object[2].first, "m");
}

TEST(JsonParser, DecodesStringEscapes) {
  const auto result = parse_json(R"("line\n\ttab \"q\" back\\slash A")");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.value.as_string(), "line\n\ttab \"q\" back\\slash A");
}

TEST(JsonParser, ReportsErrorsWithLineNumbers) {
  const auto result = parse_json("{\"a\": 1,\n\"b\": }");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 2"), std::string::npos) << result.error;

  EXPECT_FALSE(parse_json("").ok);
  EXPECT_FALSE(parse_json("[1, 2").ok);
  EXPECT_FALSE(parse_json("{\"a\" 1}").ok);
  EXPECT_FALSE(parse_json("nul").ok);
  EXPECT_FALSE(parse_json("-").ok);
  EXPECT_FALSE(parse_json("\"open").ok);
}

TEST(JsonParser, RejectsNumbersThatOverflowAndAcceptsUnderflow) {
  // strtod turns an overflowing number into an infinity; the parser refuses
  // it and names it. Underflow to zero is an ordinary (tiny) number.
  const std::pair<const char*, const char*> cases[] = {
      {"1e999", "'1e999'"},
      {"-1e999", "'-1e999'"},
      {"[1, 1e400]", "'1e400'"},
      {"{\"ts\":1e999}", "'1e999'"},
  };
  for (const auto& [text, token] : cases) {
    const auto result = parse_json(text);
    EXPECT_FALSE(result.ok) << text;
    EXPECT_NE(result.error.find("number out of range"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find(token), std::string::npos) << result.error;
  }
  const auto tiny = parse_json("1e-400");
  ASSERT_TRUE(tiny.ok) << tiny.error;
  EXPECT_EQ(tiny.value.as_number(), 0.0);
  const auto negative_tiny = parse_json("-1e-400");
  ASSERT_TRUE(negative_tiny.ok) << negative_tiny.error;
  EXPECT_EQ(negative_tiny.value.as_number(), 0.0);
}

TEST(JsonParser, TrailingInputIsAllowedAndEndReported) {
  // JSONL streaming contract: parse one value, report where it ended.
  const auto result = parse_json("42 {\"next\": 1}");
  ASSERT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.value.as_number(), 42.0);
  const auto next = parse_json("42 {\"next\": 1}", result.end);
  ASSERT_TRUE(next.ok);
  EXPECT_DOUBLE_EQ(next.value.number_or("next", 0.0), 1.0);
}

TEST(JsonParser, ConvenienceAccessorsUseDefaults) {
  const auto result = parse_json(R"({"n": 7, "s": "x", "b": true})");
  ASSERT_TRUE(result.ok);
  const JsonValue& root = result.value;
  EXPECT_DOUBLE_EQ(root.number_or("n", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(root.number_or("missing", -1.0), -1.0);
  EXPECT_EQ(root.string_or("s", "d"), "x");
  EXPECT_EQ(root.string_or("missing", "d"), "d");
  EXPECT_TRUE(root.bool_or("b", false));
  EXPECT_FALSE(root.bool_or("missing", false));
  // Type mismatch falls back to the default too.
  EXPECT_DOUBLE_EQ(root.number_or("s", -1.0), -1.0);
}

TEST(JsonParser, JsonLinesSkipsBlanksAndTrimsCr) {
  const auto result = parse_json_lines("{\"a\":1}\r\n\n{\"a\":2}\n");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(result.rows[0].number_or("a", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(result.rows[1].number_or("a", 0.0), 2.0);
}

TEST(JsonParser, JsonLinesStopsAtFirstMalformedLine) {
  const auto result = parse_json_lines("{\"a\":1}\nnot json\n{\"a\":3}\n");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.rows.size(), 1u);
}

}  // namespace
}  // namespace paldia::common
