#include "obs/json_in.hpp"

#include <charconv>
#include <cstdlib>

#include "common/error.hpp"

namespace gridtrust::obs {

double JsonValue::as_number() const {
  GT_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

std::optional<std::uint64_t> JsonValue::exact_uint() const {
  GT_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return uint_;
}

const std::string& JsonValue::as_string() const {
  GT_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  GT_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  GT_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

bool JsonValue::has(const std::string& key) const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  GT_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  GT_REQUIRE(false, "JSON object has no key \"" + key + "\"");
  std::abort();  // unreachable; GT_REQUIRE throws
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_uint(std::uint64_t n) {
  JsonValue v = make_number(static_cast<double>(n));
  v.uint_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after JSON document");
    return v;
  }

 private:
  void require(bool ok, const std::string& what) const {
    GT_REQUIRE(ok, "JSON parse error at byte " + std::to_string(pos_) + ": " +
                       what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    GT_REQUIRE(pos_ < text_.size(), "JSON parse error at byte " +
                                        std::to_string(pos_) +
                                        ": unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    require(pos_ < text_.size() && text_[pos_] == c,
            std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t i = 0;
    while (literal[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != literal[i]) {
        return false;
      }
      ++i;
    }
    pos_ += i;
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        require(depth_ < kMaxDepth, "nesting deeper than " +
                                        std::to_string(kMaxDepth) +
                                        " levels");
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        require(consume_literal("true"), "invalid literal");
        return JsonValue::make_bool(true);
      case 'f':
        require(consume_literal("false"), "invalid literal");
        return JsonValue::make_bool(false);
      case 'n':
        require(consume_literal("null"), "invalid literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
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
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        require(static_cast<unsigned char>(c) >= 0x20,
                "raw control character in string");
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: require(false, "invalid escape character");
      }
    }
  }

  std::string parse_unicode_escape() {
    require(pos_ + 4 <= text_.size(), "truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        require(false, "invalid hex digit in \\u escape");
      }
    }
    // UTF-8 encode the code point (surrogate pairs are not combined: the
    // exporters only ever emit \u00XX control escapes).
    std::string out;
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
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    require(digits(), "invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      require(digits(), "digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      require(digits(), "digits required in exponent");
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.find_first_not_of("0123456789") == std::string::npos) {
      std::uint64_t exact = 0;
      if (std::from_chars(token.data(), token.data() + token.size(), exact)
              .ec == std::errc()) {
        return JsonValue::make_uint(exact);
      }
    }
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  /// Each nested object or array is one more recursive parse_value frame,
  /// so unbounded nesting lets a small file overflow the stack.  Every
  /// committed manifest nests 5 levels deep; 64 leaves wide headroom for
  /// journals, cache files and supervisor frames.
  static constexpr std::size_t kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< objects and arrays open at pos_
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace gridtrust::obs
