#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace lfi {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

size_t SplitViews(std::string_view s, char sep, std::span<std::string_view> out) {
  size_t count = 0;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (count < out.size()) {
      out[count] = s.substr(start, pos == std::string_view::npos ? pos : pos - start);
    }
    ++count;
    if (pos == std::string_view::npos) {
      return count;
    }
    start = pos + 1;
  }
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  // An embedded NUL ends the number, as it would for a C-string parse.
  s = s.substr(0, s.find('\0'));
  bool negative = !s.empty() && s[0] == '-';
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    s.remove_prefix(1);
  }
  // ParseUint takes no sign or whitespace, so "+-1", "- 1" and "0x-1" fail
  // here exactly as they do for strtoll.
  std::optional<uint64_t> magnitude = ParseUint(s);
  constexpr uint64_t kMaxPositive = static_cast<uint64_t>(INT64_MAX);
  if (!magnitude || *magnitude > kMaxPositive + (negative ? 1 : 0)) {
    return std::nullopt;  // malformed, or outside int64_t (strtoll's ERANGE)
  }
  return negative ? static_cast<int64_t>(0 - *magnitude) : static_cast<int64_t>(*magnitude);
}

std::optional<uint64_t> ParseUint(std::string_view s) {
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  }
  uint64_t value = 0;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value, base);
  if (ec != std::errc() || end != s.data() + s.size()) {
    return std::nullopt;
  }
  return value;
}

std::string StrFormat(const char* fmt, ...) {
  // One pass into a stack buffer covers nearly every call; only longer
  // output pays for a second pass straight into the result.
  char small[256];
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(small, sizeof small, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0 && static_cast<size_t>(n) < sizeof small) {
    out.assign(small, static_cast<size_t>(n));
  } else if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(items[i]);
  }
  return out;
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace lfi
