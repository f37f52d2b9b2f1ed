// PBFT's wire codec.
//
// Every protocol message is one '|'-joined datagram, "TYPE|field|field|...".
// The send side writes a message once, left to right, into its final
// storage: Wire prints an integer in decimal and a text field up to its
// first NUL -- byte for byte what the printf forms "%d", "%lld", "%s" and
// "%.*s" printed, without the format parse or a heap string per message.
// The receive side, DecodeWire, reads a datagram in one left-to-right pass
// that looks at each byte once: a switch on the type tag picks the
// message's fields, each field ends at the next '|', a numeric field's
// digits are collected as its end is found (anything but 1-10 plain digits
// goes through WireNumber), and text fields are views into the receive
// buffer.

#ifndef LFI_APPS_PBFT_WIRE_H_
#define LFI_APPS_PBFT_WIRE_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
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

// --- receive side ----------------------------------------------------------------

enum class WireType : uint8_t {
  kDrop,  // unknown type, a missing field, or an unusable number
  kRequest,
  kPrePrepare,
  kPrepare,
  kCommit,
  kFetch,
  kState,
  kViewChange,
  kNewView,
  kReply,
};

// One decoded datagram. The fields each type fills, in wire order:
//   REQ|-|payload|port[|forwarded]   forwarded: the fifth field is "1"
//   PP|view|seq|digest|payload
//   P|view|seq|digest|replica        C: the same
//   FETCH|seq|replica
//   STATE|seq|digest|view            seq: the sender's stable checkpoint
//   VC|view|replica
//   NV|view|payload                  payload: the carried entries
//   REPLY|-|seq|replica              seq: the request's timestamp
// A "-" field must be present but is not read, and fields after the last
// one a type reads are ignored.
struct WireFields {
  WireType type = WireType::kDrop;
  int64_t view = 0;
  int64_t seq = 0;
  int64_t replica = 0;
  int64_t port = 0;
  std::string_view digest;
  std::string_view payload;
  bool forwarded = false;
};

// Decodes `msg` in one left-to-right pass. A message is dropped (kDrop)
// exactly when splitting it at every '|' and parsing each numeric field
// with WireNumber would drop it.
WireFields DecodeWire(std::string_view msg);

// --- send side -------------------------------------------------------------------

// A text field's bytes: a string literal's are known without a strlen.
template <size_t N>
std::string_view FieldText(const char (&text)[N]) {
  return {text, N - 1};
}
inline std::string_view FieldText(std::string_view text) { return text; }

// The most bytes a field can print as: a text field's length (its first NUL
// can only cut it short), an integer's widest decimal form.
inline size_t FieldBound(const std::integral auto&) { return 20; }
inline size_t FieldBound(const auto& text) { return FieldText(text).size(); }

// Writes one field at `out` and returns its end: text up to its first NUL,
// an integer in decimal. Text is copied and checked for the NUL in one
// pass, eight bytes at a time while no byte of the eight is a NUL.
inline char* PutField(char* out, std::string_view text) {
  const char* in = text.data();
  size_t left = text.size();
  for (; left >= 8; left -= 8, in += 8, out += 8) {
    uint64_t word;
    std::memcpy(&word, in, 8);
    if (((word - 0x0101010101010101u) & ~word & 0x8080808080808080u) != 0) {
      break;  // a NUL among these eight
    }
    std::memcpy(out, &word, 8);
  }
  for (; left > 0 && *in != '\0'; --left) {
    *out++ = *in++;
  }
  return out;
}
inline char* PutField(char* out, const std::integral auto& value) {
  return std::to_chars(out, out + 20, value).ptr;
}
inline char* PutField(char* out, const auto& text) { return PutField(out, FieldText(text)); }

// One outgoing message "fields[0]|fields[1]|..." (the first field is the
// message type), written once, left to right, straight into its storage:
// the inline array for every message an honest replica sends in normal
// operation, a heap block sized up front for a longer one (a NEW-VIEW that
// carries many requests). Lives on the caller's stack for one send.
class Wire {
 public:
  template <typename... Fields>
  explicit Wire(const Fields&... fields) {
    size_t bound = (FieldBound(fields) + ...) + sizeof...(fields) - 1;
    char* out = inline_;
    if (bound > sizeof inline_) {
      heap_ = std::make_unique_for_overwrite<char[]>(bound);
      out = heap_.get();
    }
    size_ = static_cast<size_t>(PutJoined(out, fields...) - out);
  }

  std::string_view view() const { return {heap_ ? heap_.get() : inline_, size_}; }
  operator std::string_view() const { return view(); }

 private:
  template <typename First, typename... Rest>
  static char* PutJoined(char* out, const First& first, const Rest&... rest) {
    out = PutField(out, first);
    ((*out++ = '|', out = PutField(out, rest)), ...);
    return out;
  }

  char inline_[128];
  std::unique_ptr<char[]> heap_;
  size_t size_ = 0;
};

// Appends one field to a text sub-format that travels inside a message
// field (a request's "#"-joined payload, a NEW-VIEW's carried entries):
// text up to its first NUL, an integer in decimal.
inline void AppendField(std::string* out, std::string_view text) {
  out->append(text.substr(0, text.find('\0')));
}
inline void AppendField(std::string* out, std::integral auto value) {
  char digits[24];
  out->append(digits, PutField(digits, value));
}

// Appends `fields` to *out with `sep` between each two.
template <typename First, typename... Rest>
void AppendJoined(std::string* out, char sep, const First& first, const Rest&... rest) {
  AppendField(out, first);
  ((out->push_back(sep), AppendField(out, rest)), ...);
}

}  // namespace lfi::pbft_wire

#endif  // LFI_APPS_PBFT_WIRE_H_
