// Virtual datagram network.
//
// A loopback UDP-style fabric connecting the replicas of the distributed
// applications (PBFT). Endpoints are small integer ports; each port owns a
// message queue. Like the paper's setup, *deteriorated network conditions*
// are produced by LFI injecting failures into sendto/recvfrom at the library
// boundary -- the fabric itself is reliable by default, with optional
// physical-loss knobs for experiments that want baseline noise.

#ifndef LFI_VLIB_VNET_H_
#define LFI_VLIB_VNET_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace lfi {

struct Datagram {
  int src_port = 0;
  std::string payload;
};

class VirtualNet {
 public:
  explicit VirtualNet(uint64_t seed = 1) : rng_(seed) {}

  // Binds a queue for `port`; returns false when already bound.
  bool Bind(int port);
  void Unbind(int port);
  bool IsBound(int port) const;

  // Delivers `payload` to `dst_port`. Returns bytes accepted (always the
  // payload size unless the destination is unbound or physical loss fires).
  // An unbound destination silently drops, like UDP. Takes the payload by
  // value so a caller that built it can move it onto the wire uncopied.
  long Send(int src_port, int dst_port, std::string payload);
  // The same datagram as Send(src_port, dst_port, std::string(buf, len)),
  // copied into a recycled payload buffer instead of a fresh allocation.
  long Send(int src_port, int dst_port, const char* buf, size_t len);

  // Pops the next datagram for `port`; false when the queue is empty.
  bool Receive(int port, Datagram* out);

  // Takes back a received payload once the receiver has copied it out, for
  // a later Send(const char*, size_t) to reuse its capacity. The free list
  // is bounded and holds capacity only: it is not part of the snapshot and
  // never changes a delivered byte or a counter.
  void Recycle(std::string payload);

  size_t QueueDepth(int port) const;

  // Physical-loss probability applied to every Send (default 0).
  void set_loss_probability(double p) { loss_probability_ = p; }

  // Partial-transfer fault sites. When partial-send fires, Send() delivers
  // only a strict prefix of the payload (1 <= k < size) and returns the
  // honest short count k -- the sender sees exactly what a short write()
  // reports and must resend from offset k. When partial-recv fires,
  // Receive() hands over only a strict prefix of the head datagram and the
  // remainder is gone -- the receiver sees an honest short read and must
  // detect the gap (frame length/CRC) and recover. Payloads shorter than
  // two bytes cannot be split and pass through whole. Both draw from the
  // same snapshotted rng_ as physical loss, so restores replay the fault
  // stream bit-exactly.
  void set_partial_send_probability(double p) { partial_send_probability_ = p; }
  void set_partial_recv_probability(double p) { partial_recv_probability_ = p; }
  uint64_t partial_send_count() const { return partial_sends_; }
  uint64_t partial_recv_count() const { return partial_recvs_; }

  // Tick-synchronous delivery: when enabled, Send() stages datagrams and
  // AdvanceTick() makes them receivable, giving every message a uniform
  // one-tick latency. Discrete-event simulations (PBFT) use this so results
  // do not depend on the order processes are stepped within a tick.
  void set_tick_delivery(bool enabled) { tick_delivery_ = enabled; }
  void AdvanceTick();

  uint64_t delivered_count() const { return delivered_; }
  uint64_t dropped_count() const { return dropped_; }

  // Deep copy of the whole fabric state: bound ports (queue-map keys *are*
  // the bindings), queued and staged datagrams, delivery mode, loss RNG
  // state, and the counters. Restore() rolls all of it back bit-exactly, so
  // a restored warm instance's message timing and physical-loss stream are
  // indistinguishable from a fresh bring-up.
  struct Snapshot {
    std::map<int, std::deque<Datagram>> queues;
    std::vector<std::pair<int, Datagram>> staged;
    bool tick_delivery = false;
    Rng rng;
    double loss_probability = 0.0;
    double partial_send_probability = 0.0;
    double partial_recv_probability = 0.0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t partial_sends = 0;
    uint64_t partial_recvs = 0;
  };
  Snapshot TakeSnapshot() const {
    return {queues_,  staged_,  tick_delivery_,  rng_,           loss_probability_,
            partial_send_probability_, partial_recv_probability_, delivered_,
            dropped_, partial_sends_, partial_recvs_};
  }
  void Restore(const Snapshot& snapshot) {
    queues_ = snapshot.queues;
    staged_ = snapshot.staged;
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

 private:
  // Free-list bounds. They are caps on the memory kept, not a sizing of the
  // traffic: in pbft random explore (budget 400, seeds 1-8, one worker) a
  // cluster peaks at 168 datagrams in flight (mean 73 per send), the list
  // fills to 64, and 98.1% of sends still reuse a buffer. No pbft buffer was
  // refused for exceeding the capacity cap.
  static constexpr size_t kMaxSpareBuffers = 64;
  static constexpr size_t kMaxSpareCapacity = 4096;

  std::map<int, std::deque<Datagram>> queues_;
  std::vector<std::pair<int, Datagram>> staged_;
  bool tick_delivery_ = false;
  Rng rng_;
  double loss_probability_ = 0.0;
  double partial_send_probability_ = 0.0;
  double partial_recv_probability_ = 0.0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t partial_sends_ = 0;
  uint64_t partial_recvs_ = 0;
  std::vector<std::string> spare_;  // recycled payload buffers, capacity only
};

}  // namespace lfi

#endif  // LFI_VLIB_VNET_H_
