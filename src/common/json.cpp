#include "src/common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

namespace paldia::common {

JsonValue JsonValue::boolean(bool value) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = value;
  return out;
}

JsonValue JsonValue::number(double value) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = value;
  return out;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(value);
  return out;
}

JsonValue JsonValue::array(JsonArray value) {
  JsonValue out;
  out.type_ = Type::kArray;
  out.array_ = std::make_shared<JsonArray>(std::move(value));
  return out;
}

JsonValue JsonValue::object(JsonObject value) {
  JsonValue out;
  out.type_ = Type::kObject;
  out.object_ = std::make_shared<JsonObject>(std::move(value));
  return out;
}

const JsonArray& JsonValue::as_array() const {
  static const JsonArray kEmpty;
  return array_ != nullptr ? *array_ : kEmpty;
}

const JsonObject& JsonValue::as_object() const {
  static const JsonObject kEmpty;
  return object_ != nullptr ? *object_ : kEmpty;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_number() ? value->as_number() : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string(fallback);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* value = find(key);
  return value != nullptr && value->is_bool() ? value->as_bool() : fallback;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t offset)
      : text_(text), pos_(offset) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_whitespace();
    result.value = parse_value(result);
    if (result.error.empty()) result.ok = true;
    result.end = pos_;
    return result;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::string where() const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return "line " + std::to_string(line);
  }

  JsonValue fail(JsonParseResult& result, const std::string& message) {
    if (result.error.empty()) result.error = where() + ": " + message;
    return JsonValue();
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(JsonParseResult& result) {
    if (pos_ >= text_.size()) return fail(result, "unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(result);
      case '[': return parse_array(result);
      case '"': return parse_string(result);
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        return fail(result, "invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        return fail(result, "invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::null();
        return fail(result, "invalid literal");
      default: return parse_number(result);
    }
  }

  JsonValue parse_number(JsonParseResult& result) {
    // strtod accepts a superset (hex, "inf"); restrict the span to JSON's
    // number grammar first so stray tokens fail instead of parsing as 0.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == digits) return fail(result, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* endptr = nullptr;
    const double value = std::strtod(token.c_str(), &endptr);
    if (endptr != token.c_str() + token.size()) {
      return fail(result, "malformed number '" + token + "'");
    }
    // strtod returns +-HUGE_VAL (infinity) on overflow; downstream every
    // number is assumed finite. Underflow to 0 stays accepted.
    if (std::isinf(value)) {
      return fail(result, "number out of range '" + token + "'");
    }
    return JsonValue::number(value);
  }

  JsonValue parse_string(JsonParseResult& result) {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return JsonValue::string(std::move(out));
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Exporters only emit \u00XX for control characters; decode the
          // low byte and ignore the (always-zero) high byte.
          if (pos_ + 4 > text_.size()) return fail(result, "truncated \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          char* endptr = nullptr;
          const long code = std::strtol(hex.c_str(), &endptr, 16);
          if (endptr != hex.c_str() + 4) return fail(result, "bad \\u escape");
          out += static_cast<char>(code & 0xff);
          break;
        }
        default: return fail(result, "unknown escape");
      }
    }
    return fail(result, "unterminated string");
  }

  JsonValue parse_array(JsonParseResult& result) {
    ++pos_;  // '['
    JsonArray items;
    skip_whitespace();
    if (consume(']')) return JsonValue::array(std::move(items));
    while (true) {
      skip_whitespace();
      items.push_back(parse_value(result));
      if (!result.error.empty()) return JsonValue();
      skip_whitespace();
      if (consume(']')) return JsonValue::array(std::move(items));
      if (!consume(',')) return fail(result, "expected ',' or ']'");
    }
  }

  JsonValue parse_object(JsonParseResult& result) {
    ++pos_;  // '{'
    JsonObject members;
    skip_whitespace();
    if (consume('}')) return JsonValue::object(std::move(members));
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(result, "expected object key");
      }
      JsonValue key = parse_string(result);
      if (!result.error.empty()) return JsonValue();
      skip_whitespace();
      if (!consume(':')) return fail(result, "expected ':'");
      skip_whitespace();
      JsonValue value = parse_value(result);
      if (!result.error.empty()) return JsonValue();
      members.emplace_back(key.as_string(), std::move(value));
      skip_whitespace();
      if (consume('}')) return JsonValue::object(std::move(members));
      if (!consume(',')) return fail(result, "expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_;
};

}  // namespace

JsonParseResult parse_json(std::string_view text, std::size_t offset) {
  return Parser(text, offset).run();
}

JsonLinesResult parse_json_lines(std::string_view text) {
  JsonLinesResult out;
  std::size_t line_start = 0;
  std::size_t line_no = 0;
  while (line_start <= text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    ++line_no;
    std::string_view line = text.substr(line_start, line_end - line_start);
    // Trim \r and surrounding spaces; skip blank lines.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (!line.empty()) {
      JsonParseResult row = parse_json(line);
      if (!row.ok) {
        out.error = "row " + std::to_string(line_no) + ": " + row.error;
        return out;
      }
      out.rows.push_back(std::move(row.value));
    }
    if (line_end == text.size()) break;
    line_start = line_end + 1;
  }
  out.ok = true;
  return out;
}

}  // namespace paldia::common
