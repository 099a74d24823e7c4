#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>

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
  // Try increasing precision until the text round-trips exactly.
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::from_chars(buf, buf + std::strlen(buf), parsed);
    if (parsed == value) break;
  }
  return buf;
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
