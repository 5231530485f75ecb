#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <sstream>

namespace wqe {

namespace {
bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::optional<uint32_t> ParseUint32(std::string_view s) {
  const std::string_view trimmed = Trim(s);
  const char* last = trimmed.data() + trimmed.size();
  uint32_t value = 0;
  const auto [end, ec] = std::from_chars(trimmed.data(), last, value);
  if (trimmed.empty() || ec != std::errc() || end != last) return std::nullopt;
  return value;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsAsciiSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsAsciiSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char x = a[i], y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) return false;
  }
  return true;
}

std::string FormatDouble(double v, int precision) {
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(precision);
  ss << v;
  return ss.str();
}

std::string NormalizeTitle(std::string_view s) {
  // Punctuation becomes a separator so "Grand Canal (Venice)" and the
  // token sequence "grand canal venice" produce the same key — entity
  // linking matches tokenized text against these keys.  Inner hyphens and
  // apostrophes survive (mirroring the tokenizer), as do UTF-8 bytes.
  std::string collapsed;
  collapsed.reserve(s.size());
  bool in_space = true;  // drop leading separators
  auto is_word = [](unsigned char c) {
    return c >= 0x80 || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    bool keep = is_word(c);
    if (!keep && (c == '-' || c == '\'') && i > 0 && i + 1 < s.size()) {
      // Inner punctuation flanked by word bytes stays part of the word.
      keep = is_word(static_cast<unsigned char>(s[i - 1])) &&
             is_word(static_cast<unsigned char>(s[i + 1]));
    }
    if (keep) {
      char lc = (c >= 'A' && c <= 'Z')
                    ? static_cast<char>(c - 'A' + 'a')
                    : static_cast<char>(c);
      collapsed.push_back(lc);
      in_space = false;
    } else {
      if (!in_space) collapsed.push_back(' ');
      in_space = true;
    }
  }
  while (!collapsed.empty() && collapsed.back() == ' ') collapsed.pop_back();
  return collapsed;
}

}  // namespace wqe
