#include "common/strings.h"

#include <cctype>
#include <charconv>

namespace triq {

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

std::vector<std::string> SplitAndTrim(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(sep, start);
    std::string_view piece = pos == std::string_view::npos
                                 ? text.substr(start)
                                 : text.substr(start, pos - start);
    piece = StripWhitespace(piece);
    if (!piece.empty()) out.emplace_back(piece);
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool ParseCount(std::string_view text, uint64_t max, uint64_t* out) {
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

}  // namespace triq
