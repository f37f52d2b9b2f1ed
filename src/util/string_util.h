// Small string helpers shared across the tool chain.

#ifndef LFI_UTIL_STRING_UTIL_H_
#define LFI_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lfi {

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Split without copies: stores the first out.size() fields as views into `s`
// and returns the total field count (what Split(s, sep).size() would be).
size_t SplitViews(std::string_view s, char sep, std::span<std::string_view> out);

// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Parses a signed integer in decimal, or hex when prefixed with 0x (after an
// optional sign); surrounding whitespace is ignored. Accepts exactly what
// strtoll accepts over the whole trimmed input, without allocating. Returns
// nullopt on any malformed or out-of-range input (no partial parses).
std::optional<int64_t> ParseInt(std::string_view s);

// Parses the full uint64_t range in decimal, or hex when prefixed with 0x.
// Strict: no sign, no whitespace, no trailing bytes, no overflow.
std::optional<uint64_t> ParseUint(std::string_view s);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins the items with `sep` between them.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

// Lowercases ASCII characters.
std::string AsciiLower(std::string_view s);

// Escapes a string for embedding in a JSON string literal: quotes,
// backslashes, and control characters (as \uXXXX).
std::string JsonEscape(std::string_view s);

}  // namespace lfi

#endif  // LFI_UTIL_STRING_UTIL_H_
