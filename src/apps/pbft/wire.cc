#include "apps/pbft/wire.h"

namespace lfi::pbft_wire {
namespace {

// The read position of DecodeWire's one pass: fields are taken left to
// right, each ending at the next '|' or at the end of the message.
class WireCursor {
 public:
  explicit WireCursor(std::string_view msg) : rest_(msg) {}

  // The next field as text; false when the message has no more fields.
  bool Text(std::string_view* field) {
    if (!more_) {
      return false;
    }
    size_t bar = rest_.find('|');
    *field = rest_.substr(0, bar);
    more_ = bar != std::string_view::npos;
    rest_.remove_prefix(more_ ? bar + 1 : rest_.size());
    return true;
  }

  // The next field as a WireNumber; false when it is missing or not one.
  bool Number(int64_t* value) {
    std::string_view field;
    if (!Text(&field)) {
      return false;
    }
    std::optional<int64_t> parsed = WireNumber(field);
    if (parsed) {
      *value = *parsed;
    }
    return parsed.has_value();
  }

 private:
  std::string_view rest_;
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
