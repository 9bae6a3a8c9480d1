#ifndef TRIQ_COMMON_STRINGS_H_
#define TRIQ_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace triq {

/// Splits `text` on `sep`, trimming ASCII whitespace from each piece;
/// empty pieces are dropped.
std::vector<std::string> SplitAndTrim(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses `text` as a whole non-negative decimal integer no larger than
/// `max`: no sign, no whitespace, no trailing bytes. Leaves `out`
/// untouched and returns false otherwise.
bool ParseCount(std::string_view text, uint64_t max, uint64_t* out);

}  // namespace triq

#endif  // TRIQ_COMMON_STRINGS_H_
