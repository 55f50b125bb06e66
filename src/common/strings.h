// Small string helpers shared across the library.
#ifndef EGP_COMMON_STRINGS_H_
#define EGP_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace egp {

/// Splits on a single delimiter character; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins items with a separator.
std::string Join(const std::vector<std::string>& items,
                 std::string_view separator);

/// ASCII lower-case copy.
std::string ToLower(std::string_view text);

/// ASCII case-insensitive equality (HTTP header names, header values
/// like "keep-alive").
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Value of an ASCII hex digit, or -1 (the \u-escape decoders of the
/// N-Triples and JSON parsers).
int HexDigitValue(char c);

/// Appends `code` UTF-8 encoded; false (appending nothing) for UTF-16
/// surrogate halves and code points above U+10FFFF.
bool AppendUtf8(std::string* out, uint32_t code);

/// Length (1-4) of the well-formed UTF-8 sequence that starts `text`, or
/// 0 when there is none: a bad lead or continuation byte, a truncated
/// sequence, an overlong form, a UTF-16 surrogate, or a code point above
/// U+10FFFF. On 0, `*error` (when given) names the defect. The one UTF-8
/// validator: the JSON parser and every graph loader use it.
size_t Utf8SequenceLength(std::string_view text,
                          const char** error = nullptr);

/// Offset of the first byte of `text` that does not start a well-formed
/// UTF-8 sequence, or std::string_view::npos when all of `text` is valid
/// UTF-8. `*error` as for Utf8SequenceLength.
size_t FindInvalidUtf8(std::string_view text, const char** error = nullptr);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace egp

#endif  // EGP_COMMON_STRINGS_H_
