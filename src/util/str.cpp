#include "util/str.h"

#include <cstdio>

namespace comet::util {

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  if (n < 0) return {};
  if (static_cast<std::size_t>(n) < sizeof(buf)) return std::string(buf, n);
  // Rare huge magnitudes: retry with an exactly-sized buffer.
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", decimals, value);
  return out;
}

}  // namespace comet::util
