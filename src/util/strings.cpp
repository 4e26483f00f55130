#include "src/util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sereep {

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.push_back(text.substr(start));
      break;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::vector<std::string_view> split_ws(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
    }
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool istarts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         iequals(text.substr(0, prefix.size()), prefix);
}

std::optional<long> parse_long_strict(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  // strtol accepts leading whitespace; the strict contract does not.
  if (std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    return std::nullopt;
  }
  const std::string owned(text);  // strtol needs NUL termination
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(owned.c_str(), &end, 10);
  if (end != owned.c_str() + owned.size()) return std::nullopt;
  if (errno == ERANGE) return std::nullopt;
  return value;
}

std::optional<double> parse_double_strict(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  if (std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    return std::nullopt;
  }
  const std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return std::nullopt;
  if (errno == ERANGE && !std::isfinite(value)) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;  // explicit inf/nan input
  return value;
}

std::string format_round_trip(double value) {
  std::string out;
  append_round_trip(out, value);
  return out;
}

void append_round_trip(std::string& out, double value) {
  char buf[32];  // the longest %.17g form, "-1.2345678901234567e-308", is 24
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string format_si(double value) {
  const double magnitude = std::fabs(value);
  if (magnitude >= 1e9) return format_fixed(value / 1e9, 1) + "G";
  if (magnitude >= 1e6) return format_fixed(value / 1e6, 1) + "M";
  if (magnitude >= 1e3) return format_fixed(value / 1e3, 1) + "k";
  return format_fixed(value, magnitude >= 100 ? 0 : 1);
}

}  // namespace sereep
