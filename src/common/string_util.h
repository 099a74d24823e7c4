#ifndef SHADOOP_COMMON_STRING_UTIL_H_
#define SHADOOP_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace shadoop {

/// Splits `text` on `sep`, keeping empty fields (CSV semantics).
std::vector<std::string_view> SplitString(std::string_view text, char sep);

/// Allocation-free forward cursor over `sep`-separated fields. Field
/// boundaries match SplitString exactly: empty fields are kept, and text
/// ending in a separator yields a trailing empty field. Hot parsers use
/// this instead of SplitString to avoid a vector allocation per record.
class FieldCursor {
 public:
  FieldCursor(std::string_view text, char sep) : text_(text), sep_(sep) {}

  /// Advances to the next field; returns false once all fields are consumed.
  bool Next(std::string_view* field) {
    if (done_) return false;
    const size_t end = text_.find(sep_, pos_);
    if (end == std::string_view::npos) {
      *field = text_.substr(pos_);
      done_ = true;
    } else {
      *field = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
    }
    return true;
  }

 private:
  std::string_view text_;
  char sep_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Splits on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Locale-independent numeric parsing; errors carry the offending text.
Result<double> ParseDouble(std::string_view text);
Result<int64_t> ParseInt64(std::string_view text);

/// Formats a double as printf's "%.Pg" for the first precision P in
/// 15, 16, 17 whose text parses back to exactly `value` (P = 17 always
/// does). Non-finite values print as "%.17g" does ("inf", "-inf",
/// "nan"). Record, master-file and `#lidx` bytes depend on this exact
/// text, so it must not change.
std::string FormatDouble(double value);

/// True if `text` starts with `prefix` (ASCII case-insensitive).
bool StartsWithIgnoreCase(std::string_view text, std::string_view prefix);

/// ASCII upper-casing (for keyword normalization in the Pigeon parser).
std::string AsciiToUpper(std::string_view text);

}  // namespace shadoop

#endif  // SHADOOP_COMMON_STRING_UTIL_H_
