#include "common/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace egp {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += separator;
    out += items[i];
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool AppendUtf8(std::string* out, uint32_t code) {
  if (code >= 0xD800 && code <= 0xDFFF) return false;  // surrogate halves
  if (code > 0x10FFFF) return false;
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
  return true;
}

size_t Utf8SequenceLength(std::string_view text, const char** error) {
  const auto fail = [error](const char* what) -> size_t {
    if (error != nullptr) *error = what;
    return 0;
  };
  if (text.empty()) return fail("truncated UTF-8 sequence");
  const unsigned char lead = static_cast<unsigned char>(text[0]);
  size_t length;
  uint32_t code;
  if (lead < 0x80) {
    return 1;
  } else if ((lead & 0xE0) == 0xC0) {
    length = 2;
    code = lead & 0x1F;
  } else if ((lead & 0xF0) == 0xE0) {
    length = 3;
    code = lead & 0x0F;
  } else if ((lead & 0xF8) == 0xF0) {
    length = 4;
    code = lead & 0x07;
  } else {
    return fail("invalid UTF-8 lead byte");
  }
  if (length > text.size()) return fail("truncated UTF-8 sequence");
  for (size_t i = 1; i < length; ++i) {
    const unsigned char cont = static_cast<unsigned char>(text[i]);
    if ((cont & 0xC0) != 0x80) {
      return fail("invalid UTF-8 continuation byte");
    }
    code = (code << 6) | (cont & 0x3F);
  }
  constexpr uint32_t kMinForLength[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (code < kMinForLength[length]) return fail("overlong UTF-8 encoding");
  if (code >= 0xD800 && code <= 0xDFFF) {
    return fail("raw UTF-16 surrogate in UTF-8 input");
  }
  if (code > 0x10FFFF) return fail("code point beyond U+10FFFF");
  return length;
}

size_t FindInvalidUtf8(std::string_view text, const char** error) {
  size_t i = 0;
  while (i < text.size()) {
    if (static_cast<unsigned char>(text[i]) < 0x80) {
      ++i;
      continue;
    }
    const size_t length = Utf8SequenceLength(text.substr(i), error);
    if (length == 0) return i;
    i += length;
  }
  return std::string_view::npos;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace egp
