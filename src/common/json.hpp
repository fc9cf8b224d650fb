// Minimal recursive-descent JSON parser for the offline analysis tools.
//
// The simulator's exporters emit JSON/JSONL; `paldia-analyze` needs to read
// those files back without external dependencies. This parser covers exactly
// the JSON the exporters produce (objects, arrays, strings with the escapes
// json_escape() emits, numbers via strtod, true/false/null) and keeps object
// keys in insertion order so re-serialization round-trips deterministically.
//
// Numbers are parsed with strtod. The inline report producer's quantizers
// (src/obs/text_format.hpp) return exactly the double strtod parses from
// the exporter's text — the Quantize suite in tests/obs/report_test.cpp
// pins it — so a report over parsed files equals the inline one.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paldia::common {

class JsonValue;

/// Object members in insertion order. Lookup is linear; exporter objects
/// have tens of keys at most.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool value);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue array(JsonArray value);
  static JsonValue object(JsonObject value);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// `find(key)` as a number, or `fallback` when absent / wrong type.
  double number_or(std::string_view key, double fallback) const;
  /// `find(key)` as a string, or `fallback` when absent / wrong type.
  std::string string_or(std::string_view key, std::string_view fallback) const;
  /// `find(key)` as a bool, or `fallback` when absent / wrong type.
  bool bool_or(std::string_view key, bool fallback) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirect so JsonValue stays movable while JsonObject/JsonArray contain it.
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

struct JsonParseResult {
  JsonValue value;
  bool ok = false;
  std::string error;       // "line 3: expected ':'" style
  std::size_t end = 0;     // offset one past the parsed value (JSONL streaming)
};

/// Parse one JSON value starting at `offset`; trailing input is allowed
/// (use `end` to continue, e.g. for JSON Lines).
JsonParseResult parse_json(std::string_view text, std::size_t offset = 0);

/// Parse a whole JSONL buffer: one value per non-empty line. Stops at the
/// first malformed line and reports it in `error`; earlier rows are kept.
struct JsonLinesResult {
  std::vector<JsonValue> rows;
  bool ok = false;
  std::string error;
};
JsonLinesResult parse_json_lines(std::string_view text);

}  // namespace paldia::common
