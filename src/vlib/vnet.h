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
#include <string>
#include <string_view>
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
  // An unbound destination silently drops, like UDP. The bytes are copied
  // once, into the queue slot, reusing a recycled buffer when one is spare.
  long Send(int src_port, int dst_port, std::string_view payload);

  // Pops the next datagram for `port`: up to `len` bytes go to `buf` and the
  // sender to *src_port (when not null). Returns the bytes copied, or -1
  // when the queue is empty. The datagram's buffer goes back to the free
  // list. Receive(port, nullptr, 0, nullptr) discards the head datagram.
  long Receive(int port, char* buf, size_t len, int* src_port);

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

  // One port of the snapshot: its datagrams in arrival order, the first
  // `ready` receivable and the rest staged for the next AdvanceTick. An
  // unbound port appears only while datagrams staged for it are pending (a
  // re-Bind before the tick still receives them, as with UDP's in-flight
  // packets); a bound port always appears, queue empty or not.
  struct PortState {
    int port = 0;
    bool bound = false;
    size_t ready = 0;
    std::vector<Datagram> datagrams;
  };
  // Deep copy of the whole fabric state: the port table with every queued
  // and staged datagram, delivery mode, loss RNG state, and the counters.
  // Restore() rolls all of it back bit-exactly, so a restored warm
  // instance's message timing and physical-loss stream are
  // indistinguishable from a fresh bring-up. The free list of payload
  // buffers is not state and is not copied.
  struct Snapshot {
    std::vector<PortState> ports;  // sorted by port
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
  Snapshot TakeSnapshot() const;
  void Restore(const Snapshot& snapshot);

 private:
  // The port table is a vector sorted by port number: a campaign's targets
  // bind a handful of consecutive ports, so a lookup is one index (or, off
  // the run, a short forward scan over a cache line or two), not a tree
  // walk. Each port owns a ring of
  // datagram slots holding `ready` receivable datagrams from `head`, then
  // `staged` ones that the next AdvanceTick makes receivable, so a tick
  // moves no datagram. The ring grows on demand to a power of two and
  // never shrinks while the port lives; a free slot owns no payload buffer.
  struct Port {
    int port = 0;
    bool bound = false;
    std::vector<Datagram> ring;  // empty, or a power-of-two size
    size_t head = 0;
    size_t ready = 0;
    size_t staged = 0;

    Datagram& At(size_t i) { return ring[(head + i) & (ring.size() - 1)]; }
    const Datagram& At(size_t i) const { return ring[(head + i) & (ring.size() - 1)]; }
  };

  // Free-list bounds. They are caps on the memory kept, not a sizing of the
  // traffic: in pbft random explore (budget 400, seeds 1-8, one worker) a
  // cluster peaks at 168 datagrams in flight (mean 73 per send), the list
  // fills to 64, and 98.1% of sends still reuse a buffer. No pbft buffer was
  // refused for exceeding the capacity cap.
  static constexpr size_t kMaxSpareBuffers = 64;
  static constexpr size_t kMaxSpareCapacity = 4096;

  Port* Find(int port);
  const Port* Find(int port) const;
  // Admission of one datagram for `dst_port`: the bound destination's table
  // entry, or null after counting the drop (unbound, or physical loss).
  Port* Admit(int dst_port);
  // Appends a slot for the next datagram to `p` -- receivable now, or
  // staged in tick-delivery mode -- and returns it for the caller to fill.
  Datagram& Enqueue(Port& p);
  // Strict-prefix length a partial fault cuts `size` bytes to, or `size`
  // when the fault does not fire (or the payload cannot be split).
  size_t PartialCut(double probability, size_t size, uint64_t* count);
  // Writes one datagram into a free slot, in a spare buffer when there is one.
  void Fill(Datagram& slot, int src_port, std::string_view payload);
  // Takes the buffer of a datagram that left its slot for the free list,
  // within its bounds; the slot is left owning no buffer.
  void Recycle(Datagram& slot);

  std::vector<Port> ports_;  // sorted by port
  bool tick_delivery_ = false;
  Rng rng_;
  double loss_probability_ = 0.0;
  double partial_send_probability_ = 0.0;
  double partial_recv_probability_ = 0.0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t partial_sends_ = 0;
  uint64_t partial_recvs_ = 0;
  std::vector<std::string> spare_;  // the free list: capacity only, never state
};

}  // namespace lfi

#endif  // LFI_VLIB_VNET_H_
