// The one JSON writer: every JSON document src/ emits (preview exports,
// API responses, error bodies, debug endpoints, the access log) is
// appended through it into a caller-owned std::string.
//
// Output is minified and byte-stable. Strings copy runs that need no
// escaping in bulk; `"` and `\` are backslash-escaped, \n \r \t use their
// short forms, every other byte below 0x20 becomes \u00xx, and all other
// bytes (DEL, UTF-8 sequences) pass through unchanged. Numbers format
// exactly as printf("%.<significant>g") does, without iostreams or
// locale. The writer inserts the commas between members and elements; it
// does not validate nesting.
#ifndef EGP_IO_JSON_WRITER_H_
#define EGP_IO_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace egp {

/// `text` escaped for inclusion inside JSON quotes.
std::string JsonEscape(std::string_view text);

/// Appends JSON to the end of `*out`, which it does not own; calls chain:
///   json.BeginObject().Key("k").Uint(3).EndObject();
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  /// `"key":`, after a comma unless it is the object's first member.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  /// As printf("%.<significant>g", value) prints it; `significant` must
  /// be in [1, 17].
  JsonWriter& Number(double value, int significant = 10);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Bool(bool value);

 private:
  /// Writes the comma owed before a value or key; whatever follows this
  /// value owes one.
  void BeginValue() {
    if (need_comma_) out_->push_back(',');
    need_comma_ = true;
  }
  JsonWriter& Open(char bracket) {
    BeginValue();
    out_->push_back(bracket);
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_->push_back(bracket);
    need_comma_ = true;
    return *this;
  }

  std::string* out_;
  bool need_comma_ = false;
};

}  // namespace egp

#endif  // EGP_IO_JSON_WRITER_H_
