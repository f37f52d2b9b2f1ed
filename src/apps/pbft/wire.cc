#include "apps/pbft/wire.h"

namespace lfi::pbft_wire {
namespace {

// The read position of DecodeWire's one pass: fields are taken left to
// right, each ending at the next '|' or at the end of the message. Every
// byte of an honest message is looked at once: a numeric field's digits
// are collected while its end is found.
class WireCursor {
 public:
  explicit WireCursor(std::string_view msg) : at_(msg.data()), end_(msg.data() + msg.size()) {}

  // The next field as text; false when the message has no more fields.
  bool Text(std::string_view* field) {
    if (!more_) {
      return false;
    }
    const char* start = at_;
    while (at_ != end_ && *at_ != '|') {
      ++at_;
    }
    *field = std::string_view(start, static_cast<size_t>(at_ - start));
    Skip();
    return true;
  }

  // The next field as a WireNumber; false when it is missing or not one.
  bool Number(int64_t* value) {
    if (!more_) {
      return false;
    }
    // 1-10 plain decimal digits, what every honest sender writes, are read
    // here; anything else is judged by WireNumber over the whole field.
    const char* start = at_;
    int64_t v = 0;
    while (at_ != end_ && at_ - start < 10) {
      unsigned digit = static_cast<unsigned char>(*at_) - unsigned{'0'};
      if (digit > 9) {
        break;
      }
      v = v * 10 + digit;
      ++at_;
    }
    if (at_ != start && (at_ == end_ || *at_ == '|')) {
      Skip();
      if (v > kMaxWireNumber) {
        return false;
      }
      *value = v;
      return true;
    }
    std::string_view field;
    at_ = start;
    Text(&field);
    std::optional<int64_t> parsed = WireNumber(field);
    if (parsed) {
      *value = *parsed;
    }
    return parsed.has_value();
  }

 private:
  // Steps over the '|' ending a field; past the last field, there is none.
  void Skip() {
    more_ = at_ != end_;
    at_ += more_ ? 1 : 0;
  }

  const char* at_;
  const char* end_;
  bool more_ = true;
};

}  // namespace

WireFields DecodeWire(std::string_view msg) {
  WireCursor in(msg);
  std::string_view tag;
  in.Text(&tag);
  WireFields m;
  std::string_view unread;
  bool ok = false;
  // The tag is compared in full; its first byte picks the candidates.
  switch (tag.empty() ? '\0' : tag[0]) {
    case 'C':
    case 'P':
      if (tag.size() == 1) {
        m.type = tag[0] == 'C' ? WireType::kCommit : WireType::kPrepare;
        ok = in.Number(&m.view) && in.Number(&m.seq) && in.Text(&m.digest) &&
             in.Number(&m.replica);
      } else if (tag == "PP") {
        m.type = WireType::kPrePrepare;
        ok = in.Number(&m.view) && in.Number(&m.seq) && in.Text(&m.digest) &&
             in.Text(&m.payload);
      }
      break;
    case 'R':
      if (tag == "REQ") {
        m.type = WireType::kRequest;
        ok = in.Text(&unread) && in.Text(&m.payload) && in.Number(&m.port);
        std::string_view flag;
        m.forwarded = ok && in.Text(&flag) && flag == "1";
      } else if (tag == "REPLY") {
        m.type = WireType::kReply;
        ok = in.Text(&unread) && in.Number(&m.seq) && in.Number(&m.replica);
      }
      break;
    case 'F':
      if (tag == "FETCH") {
        m.type = WireType::kFetch;
        ok = in.Number(&m.seq) && in.Number(&m.replica);
      }
      break;
    case 'S':
      if (tag == "STATE") {
        m.type = WireType::kState;
        ok = in.Number(&m.seq) && in.Text(&m.digest) && in.Number(&m.view);
      }
      break;
    case 'V':
      if (tag == "VC") {
        m.type = WireType::kViewChange;
        ok = in.Number(&m.view) && in.Number(&m.replica);
      }
      break;
    case 'N':
      if (tag == "NV") {
        m.type = WireType::kNewView;
        ok = in.Number(&m.view) && in.Text(&m.payload);
      }
      break;
    default:
      break;
  }
  return ok ? m : WireFields{};
}

}  // namespace lfi::pbft_wire
