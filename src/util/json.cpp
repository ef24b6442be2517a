#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace dsouth::util {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Shortest %g form that round-trips the double exactly; 17 significant
  // digits always do.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += json_escape(s);
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

bool JsonValue::as_bool() const {
  DSOUTH_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  DSOUTH_CHECK_MSG(is_number(), "JSON value is not a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  const double v = as_number();
  // Range-check before the cast: converting an out-of-range or non-finite
  // double to int64 is undefined behaviour.
  DSOUTH_CHECK_MSG(v >= -9223372036854775808.0 && v < 9223372036854775808.0 &&
                       std::trunc(v) == v,
                   "JSON number " << v << " is not an integer");
  return static_cast<std::int64_t>(v);
}

const std::string& JsonValue::as_string() const {
  DSOUTH_CHECK_MSG(is_string(), "JSON value is not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  DSOUTH_CHECK_MSG(is_array(), "JSON value is not an array");
  return arr_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  DSOUTH_CHECK_MSG(is_object(), "JSON value is not an object");
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  // Last occurrence wins (duplicate keys keep the last value, RFC 8259 §4).
  const JsonValue* hit = nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) hit = &v;
  }
  return hit;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  DSOUTH_CHECK_MSG(v != nullptr, "JSON object has no member '" << key << "'");
  return *v;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  if (!std::isfinite(d)) return v;  // emitted as null, so parsed as null
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::move(members);
  return v;
}

std::string JsonValue::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_json_number(out, num_);
      break;
    case Kind::kString:
      out = json_quote(str_);
      break;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        out += arr_[i].dump();
      }
      out += ']';
      break;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        out += json_quote(obj_[i].first);
        out += ':';
        out += obj_[i].second.dump();
      }
      out += '}';
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t pos) : text_(text), pos_(pos) {}

  std::size_t pos() const { return pos_; }

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    return v;
  }

  JsonValue parse_value() {
    DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue::make_string(parse_string());
      case 't':
        expect_literal("true");
        return JsonValue::make_bool(true);
      case 'f':
        expect_literal("false");
        return JsonValue::make_bool(false);
      case 'n':
        expect_literal("null");
        return JsonValue::make_null();
      default:
        return parse_number();
    }
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    DSOUTH_CHECK_MSG(pos_ < text_.size() && text_[pos_] == c,
                     "JSON: expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  void expect_literal(std::string_view lit) {
    DSOUTH_CHECK_MSG(text_.substr(pos_, lit.size()) == lit,
                     "JSON: bad literal at offset " << pos_);
    pos_ += lit.size();
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  /// Append a Unicode code point as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    DSOUTH_CHECK_MSG(pos_ + 4 <= text_.size(), "JSON: truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        DSOUTH_CHECK_MSG(false, "JSON: bad \\u escape digit '" << c << "'");
      }
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c != '\\') {
        DSOUTH_CHECK_MSG(c >= 0x20,
                         "JSON: raw control character in string");
        out += static_cast<char>(c);
        continue;
      }
      DSOUTH_CHECK_MSG(pos_ < text_.size(), "JSON: dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            DSOUTH_CHECK_MSG(pos_ + 1 < text_.size() &&
                                 text_[pos_] == '\\' && text_[pos_ + 1] == 'u',
                             "JSON: unpaired high surrogate");
            pos_ += 2;
            const std::uint32_t lo = parse_hex4();
            DSOUTH_CHECK_MSG(lo >= 0xDC00 && lo <= 0xDFFF,
                             "JSON: invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            DSOUTH_CHECK_MSG(!(cp >= 0xDC00 && cp <= 0xDFFF),
                             "JSON: unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          DSOUTH_CHECK_MSG(false, "JSON: bad escape '\\" << e << "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    DSOUTH_CHECK_MSG(digits() > 0,
                     "JSON: malformed number at offset " << start);
    // RFC 8259: the integer part is "0" or starts with a nonzero digit.
    DSOUTH_CHECK_MSG(text_[int_start] != '0' || pos_ - int_start == 1,
                     "JSON: leading zero in number at offset " << start);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      DSOUTH_CHECK_MSG(digits() > 0, "JSON: digits required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      DSOUTH_CHECK_MSG(digits() > 0, "JSON: digits required in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser p(text, 0);
  JsonValue v = p.parse_document();
  DSOUTH_CHECK_MSG(p.pos() == text.size(),
                   "JSON: trailing garbage at offset " << p.pos());
  return v;
}

JsonValue parse_json_prefix(std::string_view text, std::size_t& pos) {
  Parser p(text, pos);
  JsonValue v = p.parse_document();
  pos = p.pos();
  return v;
}

}  // namespace dsouth::util
