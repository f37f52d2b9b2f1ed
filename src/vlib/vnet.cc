#include "vlib/vnet.h"

namespace lfi {

bool VirtualNet::Bind(int port) {
  if (queues_.count(port) != 0) {
    return false;
  }
  queues_[port];
  return true;
}

void VirtualNet::Unbind(int port) { queues_.erase(port); }

bool VirtualNet::IsBound(int port) const { return queues_.count(port) != 0; }

long VirtualNet::Send(int src_port, int dst_port, std::string payload) {
  auto it = queues_.find(dst_port);
  if (it == queues_.end()) {
    ++dropped_;
    return static_cast<long>(payload.size());  // UDP: fire and forget
  }
  if (loss_probability_ > 0.0 && rng_.Chance(loss_probability_)) {
    ++dropped_;
    return static_cast<long>(payload.size());
  }
  if (partial_send_probability_ > 0.0 && payload.size() >= 2 &&
      rng_.Chance(partial_send_probability_)) {
    // Strict prefix: the wire accepted k bytes, the rest never left the host.
    size_t k = 1 + static_cast<size_t>(rng_.NextBelow(payload.size() - 1));
    payload.resize(k);
    ++partial_sends_;
  }
  long accepted = static_cast<long>(payload.size());
  if (tick_delivery_) {
    staged_.emplace_back(dst_port, Datagram{src_port, std::move(payload)});
  } else {
    it->second.push_back(Datagram{src_port, std::move(payload)});
  }
  ++delivered_;
  return accepted;
}

long VirtualNet::Send(int src_port, int dst_port, const char* buf, size_t len) {
  std::string payload;
  if (!spare_.empty()) {
    payload = std::move(spare_.back());
    spare_.pop_back();
  }
  payload.assign(buf, len);
  return Send(src_port, dst_port, std::move(payload));
}

void VirtualNet::Recycle(std::string payload) {
  // An inline (small-string) payload owns no heap buffer worth keeping.
  if (spare_.size() < kMaxSpareBuffers && payload.capacity() > std::string().capacity() &&
      payload.capacity() <= kMaxSpareCapacity) {
    spare_.push_back(std::move(payload));
  }
}

void VirtualNet::AdvanceTick() {
  for (auto& [port, dgram] : staged_) {
    auto it = queues_.find(port);
    if (it != queues_.end()) {
      it->second.push_back(std::move(dgram));
    }
  }
  staged_.clear();
}

bool VirtualNet::Receive(int port, Datagram* out) {
  auto it = queues_.find(port);
  if (it == queues_.end() || it->second.empty()) {
    return false;
  }
  *out = std::move(it->second.front());
  it->second.pop_front();
  if (partial_recv_probability_ > 0.0 && out->payload.size() >= 2 &&
      rng_.Chance(partial_recv_probability_)) {
    // Strict prefix: the caller gets an honest short read; the tail of this
    // datagram is gone for good, exactly like a truncating recvfrom.
    size_t k = 1 + static_cast<size_t>(rng_.NextBelow(out->payload.size() - 1));
    out->payload.resize(k);
    ++partial_recvs_;
  }
  return true;
}

size_t VirtualNet::QueueDepth(int port) const {
  auto it = queues_.find(port);
  return it == queues_.end() ? 0 : it->second.size();
}

}  // namespace lfi
