// PBFT's wire codec.
//
// Every protocol message is one '|'-joined datagram, "TYPE|field|field|...".
// The builders below print an integer in decimal and a text field up to its
// first NUL -- byte for byte what the printf forms "%d", "%lld", "%s" and
// "%.*s" printed, without the format parse or a heap string per message:
// WireMessage rebuilds into a caller-owned buffer that keeps its capacity.
// WireNumber is the receive side's parser for numeric fields.

#ifndef LFI_APPS_PBFT_WIRE_H_
#define LFI_APPS_PBFT_WIRE_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/string_util.h"

namespace lfi::pbft_wire {

// Numeric wire fields -- views, sequence numbers, replica ids, ports,
// timestamps -- are non-negative and small in every honest message. A field
// that does not parse, or parses outside [0, kMaxWireNumber], marks a
// truncated or garbled datagram, and the message is dropped whole. The cap
// also keeps view and port arithmetic clear of overflow.
inline constexpr int64_t kMaxWireNumber = int64_t{1} << 30;

// Accepts exactly what ParseInt accepts (surrounding whitespace, a sign, a
// 0x prefix, an embedded NUL ending the number) within the cap. A field of
// 1-10 plain decimal digits -- every field an honest sender writes -- is
// parsed inline; ten digits cannot overflow, so only the cap applies.
inline std::optional<int64_t> WireNumber(std::string_view field) {
  if (!field.empty() && field.size() <= 10) {
    int64_t v = 0;
    size_t i = 0;
    for (; i < field.size(); ++i) {
      unsigned digit = static_cast<unsigned char>(field[i]) - unsigned{'0'};
      if (digit > 9) {
        break;
      }
      v = v * 10 + digit;
    }
    if (i == field.size()) {
      return v <= kMaxWireNumber ? std::optional<int64_t>(v) : std::nullopt;
    }
  }
  std::optional<int64_t> v = ParseInt(field);
  if (!v || *v < 0 || *v > kMaxWireNumber) {
    return std::nullopt;
  }
  return v;
}

// Appends one field: text up to its first NUL, an integer in decimal.
inline void AppendField(std::string* out, std::string_view text) {
  out->append(text.substr(0, text.find('\0')));
}
inline void AppendField(std::string* out, std::integral auto value) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out->append(digits, end);
}

// Appends `fields` to *out with `sep` between each two.
template <typename First, typename... Rest>
void AppendJoined(std::string* out, char sep, const First& first, const Rest&... rest) {
  AppendField(out, first);
  ((out->push_back(sep), AppendField(out, rest)), ...);
}

// Rebuilds *out as the message "fields[0]|fields[1]|..." (the first field is
// the message type) and returns it.
template <typename... Fields>
const std::string& WireMessage(std::string* out, const Fields&... fields) {
  out->clear();
  AppendJoined(out, '|', fields...);
  return *out;
}

}  // namespace lfi::pbft_wire

#endif  // LFI_APPS_PBFT_WIRE_H_
