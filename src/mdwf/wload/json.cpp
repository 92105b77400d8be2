#include "mdwf/wload/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <utility>

namespace mdwf::wload {
namespace {

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(std::string_view where, JsonValue::Kind want,
                             JsonValue::Kind got) {
  throw ConfigError(std::string(where) + ": expected " + kind_name(want) +
                    ", got " + kind_name(got));
}

class Parser {
 public:
  // Deepest array/object nesting accepted.  The descent recurses once per
  // level, so an unbounded depth would overflow the stack; WfCommons
  // instances nest about 6 deep.
  static constexpr std::size_t kMaxDepth = 256;

  Parser(std::string_view text, std::string_view context)
      : text_(text), context_(context) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    // Recompute line/column from the byte offset only on the error path.
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ConfigError(std::string(context_) + ": " + what + " at line " +
                      std::to_string(line) + " column " +
                      std::to_string(col));
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

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c, const char* in_what) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "' in " + in_what);
    }
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't': return parse_literal("true", JsonValue::make_bool(true));
      case 'f': return parse_literal("false", JsonValue::make_bool(false));
      case 'n': return parse_literal("null", JsonValue::make_null());
      default: return parse_number();
    }
  }

  JsonValue parse_literal(std::string_view word, JsonValue v) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
      digits = true;
    }
    if (consume('.')) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        digits = true;
      }
    }
    if (!digits) {
      pos_ = start;
      fail("invalid value");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      bool exp_digits = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) fail("invalid number exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string parse_string() {
    expect('"', "string");
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
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          std::uint32_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<std::uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<std::uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<std::uint32_t>(h - 'A' + 10);
            } else {
              pos_ -= 1;
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (instance files are ASCII in
          // practice; surrogate pairs are out of scope).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
    return out;
  }

  JsonValue parse_array() {
    expect('[', "array");
    JsonArray items;
    skip_ws();
    if (consume(']')) return JsonValue::make_array(std::move(items));
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (consume(']')) break;
      expect(',', "array");
    }
    return JsonValue::make_array(std::move(items));
  }

  JsonValue parse_object() {
    expect('{', "object");
    JsonObject members;
    skip_ws();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key string");
      }
      std::string key = parse_string();
      skip_ws();
      expect(':', "object");
      JsonValue value = parse_value();
      if (!members.emplace(std::move(key), std::move(value)).second) {
        fail("duplicate object key");
      }
      skip_ws();
      if (consume('}')) break;
      expect(',', "object");
    }
    return JsonValue::make_object(std::move(members));
  }

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::make_shared<const JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonObject o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::make_shared<const JsonObject>(std::move(o));
  return v;
}

bool JsonValue::as_bool(std::string_view where) const {
  if (kind_ != Kind::kBool) kind_error(where, Kind::kBool, kind_);
  return bool_;
}

double JsonValue::as_number(std::string_view where) const {
  if (kind_ != Kind::kNumber) kind_error(where, Kind::kNumber, kind_);
  return num_;
}

const std::string& JsonValue::as_string(std::string_view where) const {
  if (kind_ != Kind::kString) kind_error(where, Kind::kString, kind_);
  return str_;
}

const JsonArray& JsonValue::as_array(std::string_view where) const {
  if (kind_ != Kind::kArray) kind_error(where, Kind::kArray, kind_);
  return *arr_;
}

const JsonObject& JsonValue::as_object(std::string_view where) const {
  if (kind_ != Kind::kObject) kind_error(where, Kind::kObject, kind_);
  return *obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

JsonValue parse_json(std::string_view text, std::string_view context) {
  return Parser(text, context).parse_document();
}

}  // namespace mdwf::wload
