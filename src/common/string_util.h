#ifndef PRIVATECLEAN_COMMON_STRING_UTIL_H_
#define PRIVATECLEAN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace privateclean {

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// ASCII lower-/upper-casing (locale-independent).
std::string ToLowerAscii(std::string_view s);
std::string ToUpperAscii(std::string_view s);

/// Splits on a single delimiter character; keeps empty fields, so
/// Split("a,,b", ',') == {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strict full-string parses (no trailing garbage, no empty input).
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Formats a double compactly: integral values without a decimal point,
/// otherwise shortest round-trip representation.
std::string FormatDouble(double v);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace privateclean

#endif  // PRIVATECLEAN_COMMON_STRING_UTIL_H_
