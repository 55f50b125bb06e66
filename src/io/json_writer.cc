#include "io/json_writer.h"

#include <array>
#include <charconv>

#include "common/check.h"

namespace egp {
namespace {

/// Per byte: 0 when it is copied verbatim, else the character after the
/// backslash ('u' for the \u00xx form).
constexpr std::array<char, 256> kEscapes = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  return table;
}();

template <typename Int>
void AppendInteger(std::string* out, Int value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* run = text.data();
  const char* const end = run + text.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char byte = static_cast<unsigned char>(*p);
    const char escape = kEscapes[byte];
    if (escape == 0) continue;
    out->append(run, p - run);
    run = p + 1;
    if (escape == 'u') {
      const char code[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                           kHex[byte & 0xf]};
      out->append(code, sizeof(code));
    } else {
      const char code[] = {'\\', escape};
      out->append(code, sizeof(code));
    }
  }
  out->append(run, end - run);
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  AppendJsonEscaped(&out, text);
  return out;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeginValue();
  out_->push_back('"');
  AppendJsonEscaped(out_, value);
  out_->push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Number(double value, int significant) {
  EGP_CHECK(significant >= 1 && significant <= 17)
      << "significant digits " << significant;
  BeginValue();
  // Longest output: sign, 17 digits, point, "e-308".
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, significant);
  out_->append(buffer, result.ptr);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeginValue();
  AppendInteger(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeginValue();
  AppendInteger(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeginValue();
  out_->append(value ? "true" : "false");
  return *this;
}

}  // namespace egp
