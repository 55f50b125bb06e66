#include "io/json_parser.h"

#include <charconv>

#include "common/check.h"
#include "common/fault.h"
#include "common/strings.h"

namespace egp {

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray(Array values) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(values);
  return v;
}

JsonValue JsonValue::MakeObject(Object members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

bool JsonValue::bool_value() const {
  EGP_CHECK(is_bool()) << "JsonValue is " << JsonKindName(kind_)
                       << ", not bool";
  return bool_;
}

double JsonValue::number_value() const {
  EGP_CHECK(is_number()) << "JsonValue is " << JsonKindName(kind_)
                         << ", not number";
  return number_;
}

const std::string& JsonValue::string_value() const {
  EGP_CHECK(is_string()) << "JsonValue is " << JsonKindName(kind_)
                         << ", not string";
  return string_;
}

const JsonValue::Array& JsonValue::array() const {
  EGP_CHECK(is_array()) << "JsonValue is " << JsonKindName(kind_)
                        << ", not array";
  return array_;
}

const JsonValue::Object& JsonValue::object() const {
  EGP_CHECK(is_object()) << "JsonValue is " << JsonKindName(kind_)
                         << ", not object";
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const Member& member : object()) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string_view JsonKindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "bool";
    case JsonValue::Kind::kNumber:
      return "number";
    case JsonValue::Kind::kString:
      return "string";
    case JsonValue::Kind::kArray:
      return "array";
    case JsonValue::Kind::kObject:
      return "object";
  }
  return "?";
}

namespace {

/// Recursive-descent parser over a fixed buffer. All methods return false
/// on failure after recording the error; the entry point converts that
/// into a Status carrying the byte offset.
class Parser {
 public:
  Parser(std::string_view text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    SkipWhitespace();
    if (!ParseValue(&value, 0)) return TakeError();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Error("trailing characters after the JSON value");
      return TakeError();
    }
    return value;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  /// Records the first error only (later cascade errors would be noise).
  void Error(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
      error_pos_ = pos_;
    }
  }

  Status TakeError() {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(error_pos_) + ": " +
                                   error_);
  }

  bool ParseValue(JsonValue* out, size_t depth) {
    if (AtEnd()) {
      Error("unexpected end of input, expected a value");
      return false;
    }
    switch (Peek()) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeLiteral("true")) return false;
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return false;
        *out = JsonValue::MakeBool(false);
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return false;
        *out = JsonValue::MakeNull();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      Error("invalid literal (expected '" + std::string(literal) + "')");
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  bool ParseObject(JsonValue* out, size_t depth) {
    if (depth >= options_.max_depth) {
      Error("nesting deeper than " + std::to_string(options_.max_depth));
      return false;
    }
    ++pos_;  // '{'
    JsonValue::Object members;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        Error("expected a string object key");
        return false;
      }
      const size_t key_pos = pos_;
      std::string key;
      if (!ParseString(&key)) return false;
      if (options_.reject_duplicate_keys) {
        for (const JsonValue::Member& member : members) {
          if (member.first == key) {
            pos_ = key_pos;
            Error("duplicate object key \"" + key + "\"");
            return false;
          }
        }
      }
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') {
        Error("expected ':' after object key");
        return false;
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        Error("unterminated object (expected ',' or '}')");
        return false;
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      Error("expected ',' or '}' in object");
      return false;
    }
  }

  bool ParseArray(JsonValue* out, size_t depth) {
    if (depth >= options_.max_depth) {
      Error("nesting deeper than " + std::to_string(options_.max_depth));
      return false;
    }
    ++pos_;  // '['
    JsonValue::Array values;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      *out = JsonValue::MakeArray(std::move(values));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      values.push_back(std::move(value));
      SkipWhitespace();
      if (AtEnd()) {
        Error("unterminated array (expected ',' or ']')");
        return false;
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        *out = JsonValue::MakeArray(std::move(values));
        return true;
      }
      Error("expected ',' or ']' in array");
      return false;
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    // Integer part: '0' alone or a non-zero digit run (no leading zeros).
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      pos_ = start;
      Error("invalid value");
      return false;
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        Error("expected digits after the decimal point");
        return false;
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        Error("expected digits in the exponent");
        return false;
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const std::from_chars_result parsed = std::from_chars(first, last, value);
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      pos_ = start;
      Error(parsed.ec == std::errc::result_out_of_range
                ? "number out of double range"
                : "malformed number");
      return false;
    }
    *out = JsonValue::MakeNumber(value);
    return true;
  }

  /// One UTF-8 sequence of raw (non-escape) string bytes, checked by the
  /// shared validator so no invalid byte sequence survives into parsed
  /// values.
  bool ConsumeUtf8Sequence(std::string* out) {
    const char* error = nullptr;
    const size_t length = Utf8SequenceLength(text_.substr(pos_), &error);
    if (length == 0) {
      Error(error);
      return false;
    }
    out->append(text_.substr(pos_, length));
    pos_ += length;
    return true;
  }

  /// Four hex digits of a \u escape.
  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      Error("truncated \\u escape");
      return false;
    }
    uint32_t value = 0;
    for (size_t i = 0; i < 4; ++i) {
      const int digit = HexDigitValue(text_[pos_ + i]);
      if (digit < 0) {
        Error("non-hex digit in \\u escape");
        return false;
      }
      value = (value << 4) | static_cast<uint32_t>(digit);
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    for (;;) {
      if (AtEnd()) {
        Error("unterminated string");
        return false;
      }
      const unsigned char c = static_cast<unsigned char>(Peek());
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) {
        Error("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        if (!ConsumeUtf8Sequence(out)) return false;
        continue;
      }
      ++pos_;  // backslash
      if (AtEnd()) {
        Error("truncated escape sequence");
        return false;
      }
      const char escape = Peek();
      ++pos_;
      switch (escape) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          if (code >= 0xDC00 && code <= 0xDFFF) {
            pos_ -= 6;
            Error("unpaired low surrogate");
            return false;
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate must be followed by \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              Error("high surrogate not followed by \\u escape");
              return false;
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              Error("high surrogate not followed by a low surrogate");
              return false;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          // `code` is a validated scalar value by now; the shared
          // encoder re-checks and cannot fail here.
          if (!egp::AppendUtf8(out, code)) {
            Error("invalid \\u escape");
            return false;
          }
          break;
        }
        default:
          pos_ -= 2;
          Error("invalid escape sequence");
          return false;
      }
    }
  }

  std::string_view text_;
  const JsonParseOptions& options_;
  size_t pos_ = 0;
  std::string error_;
  size_t error_pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text,
                            const JsonParseOptions& options) {
  EGP_RETURN_IF_ERROR(FaultInjectStatus("json.parse"));
  return Parser(text, options).Parse();
}

}  // namespace egp
