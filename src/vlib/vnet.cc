#include "vlib/vnet.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace lfi {
namespace {

// The first entry whose port is not below `port`. The table is a handful of
// entries, so a forward scan beats a binary search's unpredictable halving.
template <typename Ports>
auto LowerBound(Ports& ports, int port) {
  auto it = ports.begin();
  while (it != ports.end() && it->port < port) {
    ++it;
  }
  return it;
}

}  // namespace

VirtualNet::Port* VirtualNet::Find(int port) {
  return const_cast<Port*>(std::as_const(*this).Find(port));
}

const VirtualNet::Port* VirtualNet::Find(int port) const {
  // A target binds a run of consecutive ports (pbft's client and replicas,
  // bfs's server and clients), so a port usually sits at its offset from
  // the first entry: one index, no scan.
  if (!ports_.empty()) {
    size_t at = static_cast<unsigned>(port) - static_cast<unsigned>(ports_.front().port);
    if (at < ports_.size() && ports_[at].port == port) {
      return &ports_[at];
    }
  }
  auto it = LowerBound(ports_, port);
  return it != ports_.end() && it->port == port ? &*it : nullptr;
}

bool VirtualNet::Bind(int port) {
  auto it = LowerBound(ports_, port);
  if (it == ports_.end() || it->port != port) {
    it = ports_.insert(it, Port{});
    it->port = port;
  } else if (it->bound) {
    return false;
  }
  // A port unbound earlier this tick may still hold datagrams staged for
  // it; they become receivable here at the next AdvanceTick.
  it->bound = true;
  return true;
}

void VirtualNet::Unbind(int port) {
  auto it = LowerBound(ports_, port);
  if (it == ports_.end() || it->port != port) {
    return;
  }
  if (it->staged == 0) {
    ports_.erase(it);
    return;
  }
  // Queued datagrams die with the binding; staged ones wait for the tick.
  for (size_t i = 0; i < it->ready; ++i) {
    Recycle(it->At(i));
  }
  it->bound = false;
  it->head = (it->head + it->ready) & (it->ring.size() - 1);
  it->ready = 0;
}

bool VirtualNet::IsBound(int port) const {
  const Port* p = Find(port);
  return p != nullptr && p->bound;
}

VirtualNet::Port* VirtualNet::Admit(int dst_port) {
  Port* p = Find(dst_port);
  if (p == nullptr || !p->bound) {
    ++dropped_;  // UDP: fire and forget
    return nullptr;
  }
  if (loss_probability_ > 0.0 && rng_.Chance(loss_probability_)) {
    ++dropped_;
    return nullptr;
  }
  return p;
}

size_t VirtualNet::PartialCut(double probability, size_t size, uint64_t* count) {
  if (probability > 0.0 && size >= 2 && rng_.Chance(probability)) {
    ++*count;
    return 1 + static_cast<size_t>(rng_.NextBelow(size - 1));
  }
  return size;
}

Datagram& VirtualNet::Enqueue(Port& p) {
  size_t live = p.ready + p.staged;
  if (live == p.ring.size()) {
    std::vector<Datagram> grown(std::max<size_t>(8, 2 * p.ring.size()));
    for (size_t i = 0; i < live; ++i) {
      grown[i] = std::move(p.At(i));
    }
    p.ring = std::move(grown);
    p.head = 0;
  }
  ++delivered_;
  if (tick_delivery_) {
    ++p.staged;
    return p.At(live);
  }
  // Direct delivery queues behind what is receivable but ahead of anything
  // staged while tick delivery was on: the slot at the end of the ready
  // run is handed over, and the staged run shifts back one slot.
  for (size_t i = live; i > p.ready; --i) {
    std::swap(p.At(i), p.At(i - 1));
  }
  return p.At(p.ready++);
}

void VirtualNet::Fill(Datagram& slot, int src_port, std::string_view payload) {
  slot.src_port = src_port;
  if (!spare_.empty()) {
    slot.payload = std::move(spare_.back());
    spare_.pop_back();
  }
  slot.payload.assign(payload);
}

void VirtualNet::Recycle(Datagram& slot) {
  std::string buffer = std::move(slot.payload);
  // An inline (small-string) payload owns no heap buffer worth keeping.
  if (spare_.size() < kMaxSpareBuffers && buffer.capacity() > std::string().capacity() &&
      buffer.capacity() <= kMaxSpareCapacity) {
    spare_.push_back(std::move(buffer));
  }
}

long VirtualNet::Send(int src_port, int dst_port, std::string_view payload) {
  Port* p = Admit(dst_port);
  if (p == nullptr) {
    return static_cast<long>(payload.size());
  }
  // Strict prefix: the wire accepted k bytes, the rest never left the host.
  payload = payload.substr(0, PartialCut(partial_send_probability_, payload.size(), &partial_sends_));
  Fill(Enqueue(*p), src_port, payload);
  return static_cast<long>(payload.size());
}

void VirtualNet::AdvanceTick() {
  bool orphans = false;
  for (Port& p : ports_) {
    if (p.bound) {
      p.ready += p.staged;
    } else {
      orphans = true;  // staged for a port nobody re-bound: gone
    }
    p.staged = 0;
  }
  if (orphans) {
    std::erase_if(ports_, [](const Port& p) { return !p.bound; });
  }
}

long VirtualNet::Receive(int port, char* buf, size_t len, int* src_port) {
  Port* p = Find(port);
  if (p == nullptr || p->ready == 0) {
    return -1;
  }
  Datagram& d = p->At(0);
  p->head = (p->head + 1) & (p->ring.size() - 1);
  --p->ready;
  // Strict prefix: the caller gets an honest short read; the tail of this
  // datagram is gone for good, exactly like a truncating recvfrom.
  size_t n = std::min(len, PartialCut(partial_recv_probability_, d.payload.size(), &partial_recvs_));
  if (n > 0) {
    std::memcpy(buf, d.payload.data(), n);
  }
  if (src_port != nullptr) {
    *src_port = d.src_port;
  }
  Recycle(d);
  return static_cast<long>(n);
}

size_t VirtualNet::QueueDepth(int port) const {
  const Port* p = Find(port);
  return p == nullptr ? 0 : p->ready;
}

VirtualNet::Snapshot VirtualNet::TakeSnapshot() const {
  Snapshot snapshot{{},       tick_delivery_, rng_,     loss_probability_,
                    partial_send_probability_, partial_recv_probability_,
                    delivered_, dropped_,     partial_sends_, partial_recvs_};
  snapshot.ports.reserve(ports_.size());
  for (const Port& p : ports_) {
    PortState& state = snapshot.ports.emplace_back();
    state.port = p.port;
    state.bound = p.bound;
    state.ready = p.ready;
    state.datagrams.reserve(p.ready + p.staged);
    for (size_t i = 0; i < p.ready + p.staged; ++i) {
      state.datagrams.push_back(p.At(i));
    }
  }
  return snapshot;
}

void VirtualNet::Restore(const Snapshot& snapshot) {
  // Rebuild the table from the snapshot, keeping the rings of ports that
  // both hold: a warm target's ports are the same every job, so a reset
  // allocates no ring. What the job left queued goes to the free list first.
  for (Port& p : ports_) {
    for (size_t i = 0; i < p.ready + p.staged; ++i) {
      Recycle(p.At(i));
    }
  }
  std::vector<Port> ports(snapshot.ports.size());
  for (size_t i = 0; i < ports.size(); ++i) {
    const PortState& state = snapshot.ports[i];
    Port& p = ports[i];
    if (Port* old = Find(state.port)) {
      p.ring = std::move(old->ring);
    }
    size_t live = state.datagrams.size();
    if (p.ring.size() < live) {
      p.ring.resize(std::bit_ceil(std::max<size_t>(8, live)));
    }
    p.port = state.port;
    p.bound = state.bound;
    p.ready = state.ready;
    p.staged = live - state.ready;
    for (size_t k = 0; k < live; ++k) {
      Fill(p.ring[k], state.datagrams[k].src_port, state.datagrams[k].payload);
    }
  }
  ports_ = std::move(ports);
  tick_delivery_ = snapshot.tick_delivery;
  rng_ = snapshot.rng;
  loss_probability_ = snapshot.loss_probability;
  partial_send_probability_ = snapshot.partial_send_probability;
  partial_recv_probability_ = snapshot.partial_recv_probability;
  delivered_ = snapshot.delivered;
  dropped_ = snapshot.dropped;
  partial_sends_ = snapshot.partial_sends;
  partial_recvs_ = snapshot.partial_recvs;
}

}  // namespace lfi
