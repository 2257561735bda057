#include "src/common/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

namespace mudi {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(Members members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 64;

void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    StatusOr<JsonValue> value = ParseValue(0);
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << " (offset " << pos_ << "): " << message;
    return InvalidArgumentError(os.str());
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, literal) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting deeper than 64 levels");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        StatusOr<std::string> s = ParseString();
        if (!s.ok()) {
          return s.status();
        }
        return JsonValue::String(std::move(s).value());
      }
      case 't':
        if (ConsumeLiteral("true")) {
          return JsonValue::Bool(true);
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          return JsonValue::Bool(false);
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          return JsonValue::Null();
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue::Members members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue::Object(std::move(members));
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string object key");
      }
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      StatusOr<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) {
        return value;
      }
      members.emplace_back(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return JsonValue::Object(std::move(members));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue::Array(std::move(items));
    }
    for (;;) {
      StatusOr<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) {
        return value;
      }
      items.push_back(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return JsonValue::Array(std::move(items));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  // Reads the four hex digits of a \u escape; false if any is missing or
  // not a hex digit.
  bool ReadHex4(uint32_t* code) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    for (int i = 0; i < 4; ++i) {
      if (std::isxdigit(static_cast<unsigned char>(text_[pos_ + i])) == 0) {
        return false;
      }
    }
    *code = static_cast<uint32_t>(std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
    pos_ += 4;
    return true;
  }

  // Decodes the code point of a \u escape (pos_ just past the 'u'),
  // combining a UTF-16 surrogate pair into one code point.
  Status ParseUnicodeEscape(std::string* out) {
    uint32_t code = 0;
    if (!ReadHex4(&code)) {
      return Error("invalid \\u escape");
    }
    if (code >= 0xDC00 && code <= 0xDFFF) {
      return Error("unpaired \\u surrogate");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      uint32_t low = 0;
      if (text_.compare(pos_, 2, "\\u") != 0) {
        return Error("unpaired \\u surrogate");
      }
      pos_ += 2;
      if (!ReadHex4(&low) || low < 0xDC00 || low > 0xDFFF) {
        return Error("unpaired \\u surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    AppendUtf8(code, out);
    return Status::Ok();
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // opening '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u':
            MUDI_RETURN_IF_ERROR(ParseUnicodeEscape(&out));
            break;
          default:
            return Error("invalid escape character");
        }
        continue;
      }
      out.push_back(c);
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    size_t digits_start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == digits_start) {
      return Error("invalid value");
    }
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    return JsonValue::Number(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) { return Parser(text).Parse(); }

StatusOr<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

void WriteJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void WriteJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  os << v;
}

}  // namespace mudi
