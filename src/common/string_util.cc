#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace shadoop {

std::vector<std::string_view> SplitString(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) out.push_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::ParseError("empty numeric field");
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid double: '" + std::string(text) + "'");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::ParseError("empty numeric field");
  int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid integer: '" + std::string(text) + "'");
  }
  return value;
}

std::string FormatDouble(double value) {
  char buf[40];
  if (!std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  // The shortest round-trip form has d significant digits. For d <= 15
  // the 15-digit rounding is that form padded, so it round-trips; d = 17
  // needs 17. Only at d = 16 can the 16-digit rounding miss (at a power
  // of two the rounding interval is narrower below the value), so only
  // there is the text re-parsed.
  char* end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::scientific)
                  .ptr;
  int digits = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p) {
    digits += *p >= '0' && *p <= '9';
  }
  end = std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, std::max(15, digits))
            .ptr;
  if (digits == 16) {
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed != value) {
      end = std::to_chars(buf, buf + sizeof(buf), value,
                          std::chars_format::general, 17)
                .ptr;
    }
  }
  return std::string(buf, end);
}

bool StartsWithIgnoreCase(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) !=
        std::toupper(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

std::string AsciiToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = std::toupper(static_cast<unsigned char>(c));
  return out;
}

}  // namespace shadoop
