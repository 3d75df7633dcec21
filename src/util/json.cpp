#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

#include "util/error.hpp"

namespace dpho::util {

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return v;
  }
  items_.emplace_back(key, Json{});
  return items_.back().second;
}

const Json* JsonObject::find(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* JsonObject::find(const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonObject::operator==(const JsonObject& other) const {
  return items_ == other.items_;
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw ValueError("json value is not a bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw ValueError("json value is not a number");
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const double rounded = std::nearbyint(d);
  if (std::abs(d - rounded) > 1e-9) throw ValueError("json number is not integral");
  // 2^63 is exact in a double; the negated test also catches NaN.
  if (!(rounded >= -0x1p63 && rounded < 0x1p63)) {
    throw ValueError("json number " + Json(d).dump() + " is outside the int64 range");
  }
  return static_cast<std::int64_t>(rounded);
}

std::uint64_t Json::as_uint() const {
  const double d = as_number();
  if (!(d >= 0.0 && d < 0x1p64) || d != std::trunc(d)) {
    throw ValueError("json number " + Json(d).dump() +
                     " is not an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(d);
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw ValueError("json value is not a string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ValueError("json value is not an array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ValueError("json value is not an array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ValueError("json value is not an object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ValueError("json value is not an object");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const Json* found = as_object().find(key);
  if (found == nullptr) throw ValueError("json object missing key: " + key);
  return *found;
}

double Json::number_or(const std::string& key, double fallback) const {
  if (!is_object()) return fallback;
  const Json* found = as_object().find(key);
  return (found != nullptr && found->is_number()) ? found->as_number() : fallback;
}

std::uint64_t Json::uint_at(const std::string& key) const {
  const Json& value = at(key);
  try {
    return value.as_uint();
  } catch (const ValueError&) {
    throw ValueError("json field " + key + " must be an integer in [0, 2^64), got " +
                     value.dump());
  }
}

std::uint64_t Json::uint_or(const std::string& key, std::uint64_t fallback) const {
  return contains(key) ? uint_at(key) : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  if (!is_object()) return fallback;
  const Json* found = as_object().find(key);
  return (found != nullptr && found->is_string()) ? found->as_string() : fallback;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().contains(key);
}

void append_shortest(double value, std::string& out) {
  char buf[32];
  char* last = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::scientific).ptr;
  // No %.{p}g with fewer digits than this shortest form reads back, so the
  // 1..17 search starts at its digit count; `back` starts as NaN to enter it.
  int precision = 0;
  for (const char* c = buf; c != last && *c != 'e'; ++c) precision += *c >= '0' && *c <= '9';
  for (double back = NAN; std::isfinite(value) && back != value; ++precision) {
    last = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, precision).ptr;
    std::from_chars(buf, last, back);
  }
  out.append(buf, last);
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void format_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  if (d == std::nearbyint(d) && std::abs(d) < 1e15) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, d, std::chars_format::fixed, 0).ptr);
    return;
  }
  append_shortest(d, out);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject object;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      expect(':');
      object[key] = parse_value();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        break;
      }
      fail("expected ',' or '}' in object");
    }
    return Json(std::move(object));
  }

  Json parse_array() {
    expect('[');
    JsonArray array;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        break;
      }
      fail("expected ',' or ']' in array");
    }
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode (basic multilingual plane only; surrogates passed raw).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view token(text_.data() + start, pos_ - start);
    double value = 0.0;
    const auto [end, error] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (end != token.data() + token.size()) fail("invalid number: " + std::string(token));
    if (error == std::errc::result_out_of_range) {
      // from_chars reports overflow and underflow alike; strtod tells them apart.
      value = std::strtod(std::string(token).c_str(), nullptr);
      if (!std::isfinite(value)) fail("number out of range: " + std::string(token));
    }
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    format_number(as_number(), out);
  } else if (is_string()) {
    escape_string(as_string(), out);
  } else if (is_array()) {
    const JsonArray& array = as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    bool first = true;
    for (const Json& item : array) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      item.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const JsonObject& object = as_object();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      escape_string(key, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      value.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace dpho::util
