#include "urmem/common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace urmem {

namespace {

std::string kind_name(json_value::kind k) {
  switch (k) {
    case json_value::kind::null: return "null";
    case json_value::kind::boolean: return "boolean";
    case json_value::kind::number: return "number";
    case json_value::kind::string: return "string";
    case json_value::kind::array: return "array";
    case json_value::kind::object: return "object";
  }
  return "?";
}

[[noreturn]] void type_mismatch(json_value::kind actual, const char* wanted) {
  throw json_type_error("expected " + std::string(wanted) + ", got " +
                        kind_name(actual));
}

/// Recursive-descent parser over one contiguous buffer.
class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  json_value run() {
    json_value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw json_parse_error(message, line, column);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  json_value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == json_value::max_depth) {
          fail("nesting deeper than " + std::to_string(json_value::max_depth) +
               " levels");
        }
        ++depth_;
        json_value value = c == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': return json_value(parse_string());
      case 't':
        if (consume_literal("true")) return json_value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return json_value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return json_value();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  json_value parse_object() {
    expect('{');
    json_value value = json_value::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      json_value member = parse_value();
      if (value.find(key) != nullptr) fail("duplicate object key \"" + key + "\"");
      value.set(key, std::move(member));
      skip_ws();
      const char next = peek();
      if (next != '}' && next != ',') fail("expected ',' or '}' in object");
      ++pos_;
      if (next == '}') return value;
    }
  }

  json_value parse_array() {
    expect('[');
    json_value value = json_value::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.push_back(parse_value());
      skip_ws();
      const char next = peek();
      if (next != ']' && next != ',') fail("expected ',' or ']' in array");
      ++pos_;
      if (next == ']') return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape digit");
          }
          // UTF-8 encode the BMP code point (spec files are config text;
          // surrogate pairs outside the BMP are rejected rather than
          // silently mangled).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escapes unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  json_value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");

    const bool integral = token.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      if (token[0] == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return json_value(value);
        }
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return json_value(value);
        }
      }
      // Out of 64-bit range: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number \"" + std::string(token) + "\"");
    }
    return json_value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects enclosing pos_
};

void dump_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

json_parse_error::json_parse_error(const std::string& message, std::size_t line,
                                   std::size_t column)
    : std::runtime_error("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

json_value::json_value(std::int64_t value) : kind_(kind::number) {
  num_ = static_cast<double>(value);
  if (value >= 0) {
    uint_ = static_cast<std::uint64_t>(value);
    int_kind_ = int_kind::unsigned_;
  } else {
    int_ = value;
    int_kind_ = int_kind::signed_;
  }
}

json_value::json_value(std::uint64_t value) : kind_(kind::number) {
  num_ = static_cast<double>(value);
  uint_ = value;
  int_kind_ = int_kind::unsigned_;
}

json_value json_value::parse(std::string_view text) { return parser(text).run(); }

bool json_value::as_bool() const {
  if (kind_ != kind::boolean) type_mismatch(kind_, "boolean");
  return bool_;
}

double json_value::as_double() const {
  if (kind_ != kind::number) type_mismatch(kind_, "number");
  return num_;
}

std::uint64_t json_value::as_u64() const {
  if (kind_ != kind::number) type_mismatch(kind_, "number");
  if (int_kind_ == int_kind::unsigned_) return uint_;
  if (int_kind_ == int_kind::signed_) {
    throw json_type_error("expected unsigned integer, got negative number");
  }
  // Doubles that happen to be exact nonnegative integers are accepted so
  // "runs": 1e7 works in spec files. Strictly below 2^64: the cast of a
  // double equal to 2^64 would be out of range (UB).
  if (num_ >= 0.0 && std::floor(num_) == num_ && num_ < 1.8446744073709552e19) {
    return static_cast<std::uint64_t>(num_);
  }
  throw json_type_error("expected unsigned integer, got non-integral number");
}

const std::string& json_value::as_string() const {
  if (kind_ != kind::string) type_mismatch(kind_, "string");
  return str_;
}

const json_value::array_t& json_value::as_array() const {
  if (kind_ != kind::array) type_mismatch(kind_, "array");
  return array_;
}

json_value::array_t& json_value::as_array() {
  if (kind_ != kind::array) type_mismatch(kind_, "array");
  return array_;
}

const json_value::object_t& json_value::as_object() const {
  if (kind_ != kind::object) type_mismatch(kind_, "object");
  return object_;
}

json_value::object_t& json_value::as_object() {
  if (kind_ != kind::object) type_mismatch(kind_, "object");
  return object_;
}

const json_value* json_value::find(std::string_view key) const {
  if (kind_ != kind::object) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

json_value& json_value::set(std::string_view key, json_value value) {
  if (kind_ == kind::null) kind_ = kind::object;
  if (kind_ != kind::object) type_mismatch(kind_, "object");
  for (auto& [name, member] : object_) {
    if (name == key) {
      member = std::move(value);
      return member;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return object_.back().second;
}

void json_value::set_path(std::string_view path, json_value value) {
  const std::size_t dot = path.find('.');
  if (dot == std::string_view::npos) {
    set(path, std::move(value));
    return;
  }
  const std::string_view head = path.substr(0, dot);
  if (kind_ == kind::null) kind_ = kind::object;
  if (kind_ != kind::object) type_mismatch(kind_, "object");
  for (auto& [name, member] : object_) {
    if (name == head) {
      member.set_path(path.substr(dot + 1), std::move(value));
      return;
    }
  }
  object_.emplace_back(std::string(head), make_object());
  object_.back().second.set_path(path.substr(dot + 1), std::move(value));
}

json_value& json_value::push_back(json_value value) {
  if (kind_ == kind::null) kind_ = kind::array;
  if (kind_ != kind::array) type_mismatch(kind_, "array");
  array_.push_back(std::move(value));
  return array_.back();
}

std::string json_value::dump(unsigned indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void json_value::dump_to(std::string& out, unsigned indent, unsigned depth) const {
  const auto newline_pad = [&](unsigned level) {
    if (indent == 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * level, ' ');
  };
  switch (kind_) {
    case kind::null: out += "null"; break;
    case kind::boolean: out += bool_ ? "true" : "false"; break;
    case kind::number: {
      if (int_kind_ == int_kind::unsigned_) {
        out += std::to_string(uint_);
      } else if (int_kind_ == int_kind::signed_) {
        out += std::to_string(int_);
      } else if (!std::isfinite(num_)) {
        out += "null";  // JSON has no inf/nan
      } else {
        // Shortest round-trip form: parse(dump(x)) == x, no noise digits.
        char buffer[32];
        const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), num_);
        out.append(buffer, ec == std::errc() ? ptr : buffer);
      }
      break;
    }
    case kind::string: dump_string(out, str_); break;
    case kind::array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case kind::object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        newline_pad(depth + 1);
        dump_string(out, object_[i].first);
        out += indent == 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

bool operator==(const json_value& a, const json_value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case json_value::kind::null: return true;
    case json_value::kind::boolean: return a.bool_ == b.bool_;
    case json_value::kind::number:
      // Exact integers compare exactly; everything else as doubles.
      if (a.int_kind_ == json_value::int_kind::unsigned_ &&
          b.int_kind_ == json_value::int_kind::unsigned_) {
        return a.uint_ == b.uint_;
      }
      if (a.int_kind_ == json_value::int_kind::signed_ &&
          b.int_kind_ == json_value::int_kind::signed_) {
        return a.int_ == b.int_;
      }
      return a.num_ == b.num_;
    case json_value::kind::string: return a.str_ == b.str_;
    case json_value::kind::array: return a.array_ == b.array_;
    case json_value::kind::object: return a.object_ == b.object_;
  }
  return false;
}

}  // namespace urmem
