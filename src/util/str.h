// String helpers shared by the assembly parser and bench output.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace comet::util {

/// Whether `c` is whitespace: exactly std::isspace in the "C" locale (no
/// code here changes the locale), without the call.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// ASCII lowercase: exactly std::tolower in the "C" locale, without the call.
constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Lowercase copy (ASCII).
std::string to_lower(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Fixed-point decimal rendering ("0.633" for (0.6333, 3)) — unlike
/// std::to_string, which always prints six decimals.
std::string format_fixed(double value, int decimals);

}  // namespace comet::util
