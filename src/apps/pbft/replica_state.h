// The containers of a pbft process's protocol state, sized for the traffic
// of a 3f+1 cluster but exact for anything a hostile datagram can name.
//
// Replica ids and sequence numbers are wire numbers, so an authenticated
// peer can name any value up to pbft_wire::kMaxWireNumber (2^30). None of
// these containers is sized by such a number: a large id or a far sequence
// costs one entry, like any other.

#ifndef LFI_APPS_PBFT_REPLICA_STATE_H_
#define LFI_APPS_PBFT_REPLICA_STATE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace lfi::pbft_state {

// A set of replica ids, for counting votes toward a quorum: one bit per id
// below 64 (every honest id), and an ordered set for any other id.
class VoteSet {
 public:
  void Insert(int id) {
    if (static_cast<unsigned>(id) < 64) {
      low_ |= uint64_t{1} << id;
    } else {
      high_.insert(id);
    }
  }
  bool Contains(int id) const {
    return static_cast<unsigned>(id) < 64 ? (low_ >> id & 1) != 0 : high_.count(id) != 0;
  }
  int size() const { return std::popcount(low_) + static_cast<int>(high_.size()); }
  bool empty() const { return low_ == 0 && high_.empty(); }
  void clear() {
    low_ = 0;
    high_.clear();
  }

 private:
  uint64_t low_ = 0;
  std::set<int> high_;
};

// A message log: one entry per sequence number, in sequence order, in one
// vector. `Entry` carries its own `int64_t seq`. While the live sequences
// are contiguous -- the honest case, where the primary numbers requests
// one after another and a checkpoint drops a prefix -- an entry sits at its
// offset from the first one and a lookup is one index; otherwise it falls
// back to a binary search.
template <typename Entry>
class SeqLog {
 public:
  using iterator = typename std::vector<Entry>::iterator;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  Entry* Find(int64_t seq) {
    if (entries_.empty()) {
      return nullptr;
    }
    uint64_t at = static_cast<uint64_t>(seq - entries_.front().seq);
    if (at < entries_.size() && entries_[at].seq == seq) {
      return &entries_[at];
    }
    auto it = LowerBound(seq);
    return it != entries_.end() && it->seq == seq ? &*it : nullptr;
  }
  const Entry* Find(int64_t seq) const { return const_cast<SeqLog*>(this)->Find(seq); }

  // The entry for `seq`, added empty when there is none. Adding one may
  // move every entry: a reference from Find or Get lives only until the
  // next Get or EraseThrough.
  Entry& Get(int64_t seq) {
    if (Entry* entry = Find(seq)) {
      return *entry;
    }
    auto it = entries_.empty() || entries_.back().seq < seq ? entries_.end() : LowerBound(seq);
    it = entries_.emplace(it);
    it->seq = seq;
    return *it;
  }

  // Drops every entry at or below `seq`.
  void EraseThrough(int64_t seq) {
    entries_.erase(entries_.begin(),
                   std::upper_bound(entries_.begin(), entries_.end(), seq,
                                    [](int64_t s, const Entry& e) { return s < e.seq; }));
  }

  size_t size() const { return entries_.size(); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  iterator LowerBound(int64_t seq) {
    return std::lower_bound(entries_.begin(), entries_.end(), seq,
                            [](const Entry& e, int64_t s) { return e.seq < s; });
  }

  std::vector<Entry> entries_;  // ascending seq
};

// The pairwise MAC keys one process holds, by peer port: the key for port p
// at p - first_port, empty where the process holds none. Start() derives
// the table once and nothing changes it after, so an instance and every
// snapshot of it share one table and a reset copies none of it.
struct SessionKeyTable {
  int first_port = 0;
  std::vector<std::string> keys;

  // Whether a datagram from `port` authenticates.
  bool Holds(int port) const {
    size_t at = static_cast<unsigned>(port) - static_cast<unsigned>(first_port);
    return at < keys.size() && !keys[at].empty();
  }
};

}  // namespace lfi::pbft_state

#endif  // LFI_APPS_PBFT_REPLICA_STATE_H_
