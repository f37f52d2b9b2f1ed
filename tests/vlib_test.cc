#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/errno_codes.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

class VlibTest : public ::testing::Test {
 protected:
  VlibTest() : libc_(&fs_, &net_, "test-proc") {
    fs_.MkDir("/data");
  }

  VirtualFs fs_;
  VirtualNet net_;
  VirtualLibc libc_;
};

TEST_F(VlibTest, OpenMissingFileFails) {
  EXPECT_EQ(libc_.Open("/data/missing", kORdOnly), -1);
  EXPECT_EQ(libc_.verrno(), kENOENT);
}

TEST_F(VlibTest, CreateWriteReadRoundTrip) {
  int fd = libc_.Open("/data/f", kOWrOnly | kOCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(libc_.Write(fd, "hello", 5), 5);
  EXPECT_EQ(libc_.Close(fd), 0);

  fd = libc_.Open("/data/f", kORdOnly);
  ASSERT_GE(fd, 0);
  char buf[16];
  EXPECT_EQ(libc_.Read(fd, buf, sizeof buf), 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  EXPECT_EQ(libc_.Read(fd, buf, sizeof buf), 0);  // EOF
  EXPECT_EQ(libc_.Close(fd), 0);
}

TEST_F(VlibTest, OpenWithoutParentFails) {
  EXPECT_EQ(libc_.Open("/nodir/f", kOWrOnly | kOCreate), -1);
  EXPECT_EQ(libc_.verrno(), kENOENT);
}

TEST_F(VlibTest, TruncateClearsContent) {
  fs_.WriteFile("/data/f", "old content");
  int fd = libc_.Open("/data/f", kOWrOnly | kOTrunc);
  ASSERT_GE(fd, 0);
  libc_.Close(fd);
  EXPECT_EQ(fs_.GetFile("/data/f")->data, "");
}

TEST_F(VlibTest, AppendSeeksToEnd) {
  fs_.WriteFile("/data/f", "abc");
  int fd = libc_.Open("/data/f", kOWrOnly | kOAppend);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(libc_.Write(fd, "def", 3), 3);
  libc_.Close(fd);
  EXPECT_EQ(fs_.GetFile("/data/f")->data, "abcdef");
}

TEST_F(VlibTest, LseekWhence) {
  fs_.WriteFile("/data/f", "0123456789");
  int fd = libc_.Open("/data/f", kORdOnly);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(libc_.Lseek(fd, 4, kSeekSet), 4);
  char c;
  EXPECT_EQ(libc_.Read(fd, &c, 1), 1);
  EXPECT_EQ(c, '4');
  EXPECT_EQ(libc_.Lseek(fd, 2, kSeekCur), 7);
  EXPECT_EQ(libc_.Lseek(fd, -1, kSeekEnd), 9);
  EXPECT_EQ(libc_.Lseek(fd, -100, kSeekSet), -1);
  EXPECT_EQ(libc_.verrno(), kEINVAL);
}

TEST_F(VlibTest, BadFdErrors) {
  char buf[4];
  EXPECT_EQ(libc_.Read(42, buf, 4), -1);
  EXPECT_EQ(libc_.verrno(), kEBADF);
  EXPECT_EQ(libc_.Close(42), -1);
  EXPECT_EQ(libc_.Write(42, buf, 4), -1);
}

TEST_F(VlibTest, FdsAreReused) {
  int fd1 = libc_.Open("/data/a", kOWrOnly | kOCreate);
  ASSERT_GE(fd1, 0);
  libc_.Close(fd1);
  int fd2 = libc_.Open("/data/b", kOWrOnly | kOCreate);
  EXPECT_EQ(fd1, fd2);
}

TEST_F(VlibTest, StatAndFstat) {
  fs_.WriteFile("/data/f", "xyz");
  VStat st;
  ASSERT_EQ(libc_.Stat("/data/f", &st), 0);
  EXPECT_EQ(st.size, 3u);
  EXPECT_FALSE(st.is_fifo);
  ASSERT_EQ(libc_.Stat("/data", &st), 0);
  EXPECT_TRUE(st.is_dir);
  EXPECT_EQ(libc_.Stat("/data/none", &st), -1);

  int fd = libc_.Open("/data/f", kORdOnly);
  ASSERT_EQ(libc_.Fstat(fd, &st), 0);
  EXPECT_EQ(st.size, 3u);
}

TEST_F(VlibTest, PipeIsFifo) {
  int fds[2];
  ASSERT_EQ(libc_.Pipe(fds), 0);
  VStat st;
  ASSERT_EQ(libc_.Fstat(fds[0], &st), 0);
  EXPECT_TRUE(st.is_fifo);
  EXPECT_EQ(libc_.Write(fds[1], "ab", 2), 2);
  char buf[4];
  EXPECT_EQ(libc_.Read(fds[0], buf, 4), 2);
}

TEST_F(VlibTest, UnlinkRename) {
  fs_.WriteFile("/data/a", "1");
  EXPECT_EQ(libc_.Rename("/data/a", "/data/b"), 0);
  EXPECT_FALSE(fs_.FileExists("/data/a"));
  EXPECT_TRUE(fs_.FileExists("/data/b"));
  EXPECT_EQ(libc_.Unlink("/data/b"), 0);
  EXPECT_EQ(libc_.Unlink("/data/b"), -1);
  EXPECT_EQ(libc_.verrno(), kENOENT);
}

TEST_F(VlibTest, MkDirRmDir) {
  EXPECT_EQ(libc_.MkDir("/data/sub"), 0);
  EXPECT_EQ(libc_.MkDir("/data/sub"), -1);
  EXPECT_EQ(libc_.verrno(), kEEXIST);
  fs_.WriteFile("/data/sub/f", "x");
  EXPECT_EQ(libc_.RmDir("/data/sub"), -1);
  EXPECT_EQ(libc_.verrno(), kENOTEMPTY);
  fs_.Remove("/data/sub/f");
  EXPECT_EQ(libc_.RmDir("/data/sub"), 0);
}

TEST_F(VlibTest, StreamsRoundTrip) {
  VFile* f = libc_.FOpen("/data/s", "w");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(libc_.FWrite("stream", 6, f), 6u);
  EXPECT_EQ(libc_.FFlush(f), 0);
  EXPECT_EQ(libc_.FClose(f), 0);

  f = libc_.FOpen("/data/s", "r");
  ASSERT_NE(f, nullptr);
  char buf[8];
  EXPECT_EQ(libc_.FRead(buf, 8, f), 6u);
  EXPECT_TRUE(std::memcmp(buf, "stream", 6) == 0);
  EXPECT_EQ(libc_.FRead(buf, 8, f), 0u);
  EXPECT_TRUE(f->eof);
  libc_.FClose(f);
}

TEST_F(VlibTest, FOpenMissingReturnsNull) {
  EXPECT_EQ(libc_.FOpen("/data/none", "r"), nullptr);
  EXPECT_EQ(libc_.verrno(), kENOENT);
  EXPECT_EQ(libc_.FOpen("/data/x", "q"), nullptr);
  EXPECT_EQ(libc_.verrno(), kEINVAL);
}

TEST_F(VlibTest, FwriteNullStreamCrashes) {
  // The PBFT checkpoint bug from Table 1: fwrite on a NULL FILE*.
  EXPECT_THROW(libc_.FWrite("x", 1, nullptr), SimCrash);
}

TEST_F(VlibTest, DirectoryIteration) {
  fs_.WriteFile("/data/one", "");
  fs_.WriteFile("/data/two", "");
  libc_.MkDir("/data/sub");
  VDir* d = libc_.OpenDir("/data");
  ASSERT_NE(d, nullptr);
  std::set<std::string> names;
  while (const char* e = libc_.ReadDir(d)) {
    names.insert(e);
  }
  EXPECT_EQ(names, (std::set<std::string>{"one", "two", "sub"}));
  EXPECT_EQ(libc_.CloseDir(d), 0);
}

TEST_F(VlibTest, OpenDirMissingReturnsNull) {
  EXPECT_EQ(libc_.OpenDir("/nope"), nullptr);
  EXPECT_EQ(libc_.verrno(), kENOENT);
  fs_.WriteFile("/data/f", "");
  EXPECT_EQ(libc_.OpenDir("/data/f"), nullptr);
  EXPECT_EQ(libc_.verrno(), kENOTDIR);
}

TEST_F(VlibTest, ReaddirNullCrashes) {
  // The Git bug from Table 1: readdir(NULL) after a failed opendir.
  EXPECT_THROW(libc_.ReadDir(nullptr), SimCrash);
}

TEST_F(VlibTest, MallocFreeTracking) {
  void* p = libc_.Malloc(64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(libc_.live_allocations(), 1u);
  libc_.Free(p);
  EXPECT_EQ(libc_.live_allocations(), 0u);
  libc_.Free(nullptr);  // no-op, like free(NULL)
}

TEST_F(VlibTest, CallocZeroes) {
  auto* p = static_cast<unsigned char*>(libc_.Calloc(8, 4));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(p[i], 0);
  }
  libc_.Free(p);
}

TEST_F(VlibTest, InvalidFreeAborts) {
  int x;
  EXPECT_THROW(libc_.Free(&x), SimCrash);
}

TEST_F(VlibTest, Environment) {
  EXPECT_EQ(libc_.GetEnv("PATH"), nullptr);
  EXPECT_EQ(libc_.SetEnv("PATH", "/bin", 1), 0);
  EXPECT_STREQ(libc_.GetEnv("PATH"), "/bin");
  EXPECT_EQ(libc_.SetEnv("PATH", "/usr/bin", 0), 0);  // no overwrite
  EXPECT_STREQ(libc_.GetEnv("PATH"), "/bin");
  EXPECT_EQ(libc_.SetEnv("PATH", "/usr/bin", 1), 0);
  EXPECT_STREQ(libc_.GetEnv("PATH"), "/usr/bin");
  EXPECT_EQ(libc_.UnsetEnv("PATH"), 0);
  EXPECT_EQ(libc_.GetEnv("PATH"), nullptr);
  EXPECT_EQ(libc_.SetEnv("BAD=NAME", "x", 1), -1);
  EXPECT_EQ(libc_.verrno(), kEINVAL);
}

TEST_F(VlibTest, MutexLockUnlock) {
  VMutex m{"m", 0};
  EXPECT_EQ(libc_.MutexLock(&m), 0);
  EXPECT_EQ(m.held, 1);
  EXPECT_EQ(libc_.MutexUnlock(&m), 0);
  EXPECT_EQ(m.held, 0);
}

TEST_F(VlibTest, DoubleUnlockCrashes) {
  VMutex m{"m", 0};
  libc_.MutexLock(&m);
  libc_.MutexUnlock(&m);
  EXPECT_THROW(libc_.MutexUnlock(&m), SimCrash);
}

TEST_F(VlibTest, SocketsSendReceive) {
  VirtualLibc peer(&fs_, &net_, "peer");
  int s1 = libc_.Socket();
  int s2 = peer.Socket();
  ASSERT_EQ(libc_.BindSocket(s1, 100), 0);
  ASSERT_EQ(peer.BindSocket(s2, 200), 0);

  EXPECT_EQ(libc_.SendTo(s1, "ping", 4, 200), 4);
  char buf[16];
  int src = -1;
  EXPECT_EQ(peer.RecvFrom(s2, buf, sizeof buf, &src), 4);
  EXPECT_EQ(std::string(buf, 4), "ping");
  EXPECT_EQ(src, 100);
  // Empty queue: EAGAIN (non-blocking).
  EXPECT_EQ(peer.RecvFrom(s2, buf, sizeof buf, &src), -1);
  EXPECT_EQ(peer.verrno(), kEAGAIN);
}

TEST_F(VlibTest, BindConflictFails) {
  int s1 = libc_.Socket();
  int s2 = libc_.Socket();
  ASSERT_EQ(libc_.BindSocket(s1, 7), 0);
  EXPECT_EQ(libc_.BindSocket(s2, 7), -1);
  EXPECT_EQ(libc_.verrno(), kEEXIST);
}

TEST_F(VlibTest, CloseUnbindsSocketPort) {
  int s = libc_.Socket();
  ASSERT_EQ(libc_.BindSocket(s, 55), 0);
  EXPECT_TRUE(net_.IsBound(55));
  libc_.Close(s);
  EXPECT_FALSE(net_.IsBound(55));
}

TEST_F(VlibTest, XmlWriter) {
  VXmlWriter* w = libc_.XmlNewTextWriterDoc();
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(libc_.XmlWriterWriteElement(w, "queries", "42"), 0);
  std::string doc = libc_.XmlFreeTextWriter(w);
  EXPECT_NE(doc.find("<queries>42</queries>"), std::string::npos);
}

TEST_F(VlibTest, Fcntl) {
  int fd = libc_.Open("/data/f", kOWrOnly | kOCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(libc_.Fcntl(fd, kFGetFl, 0), kOWrOnly | kOCreate);
  EXPECT_EQ(libc_.Fcntl(fd, kFSetFl, kONonBlock), 0);
  EXPECT_EQ(libc_.Fcntl(fd, kFGetFl, 0), kONonBlock);
  EXPECT_EQ(libc_.Fcntl(fd, kFGetLk, 0), 0);
  EXPECT_EQ(libc_.Fcntl(fd, 99, 0), -1);
  EXPECT_EQ(libc_.verrno(), kEINVAL);
}

TEST_F(VlibTest, GlobalsAndServices) {
  EXPECT_FALSE(libc_.GetGlobal("thread_count").has_value());
  libc_.SetGlobal("thread_count", 65);
  EXPECT_EQ(libc_.GetGlobal("thread_count").value(), 65);
  int marker;
  libc_.SetService("svc", &marker);
  EXPECT_EQ(libc_.GetService("svc"), &marker);
  EXPECT_EQ(libc_.GetService("other"), nullptr);
}

// --- interposition ------------------------------------------------------------

class DenyAllReads : public Interposer {
 public:
  InjectionDecision OnCall(VirtualLibc* libc, FunctionId function,
                           const ArgSpan& args) override {
    (void)libc;
    (void)args;
    ++calls;
    InjectionDecision d;
    if (FunctionName(function) == "read") {
      d.inject = true;
      d.retval = -1;
      d.errno_value = kEIO;
    }
    return d;
  }
  int calls = 0;
};

TEST_F(VlibTest, InterposerInjectsErrorAndErrno) {
  fs_.WriteFile("/data/f", "content");
  DenyAllReads shim;
  libc_.set_interposer(&shim);
  int fd = libc_.Open("/data/f", kORdOnly);
  ASSERT_GE(fd, 0);
  char buf[8];
  EXPECT_EQ(libc_.Read(fd, buf, 8), -1);
  EXPECT_EQ(libc_.verrno(), kEIO);
  libc_.set_interposer(nullptr);
  EXPECT_EQ(libc_.Read(fd, buf, 8), 7);  // pass-through restored
  EXPECT_GT(shim.calls, 0);
}

TEST_F(VlibTest, InterposerSeesAllBoundaryCalls) {
  DenyAllReads shim;
  libc_.set_interposer(&shim);
  libc_.Malloc(4);
  VMutex m{"m", 0};
  libc_.MutexLock(&m);
  libc_.MutexUnlock(&m);
  libc_.set_interposer(nullptr);
  EXPECT_EQ(shim.calls, 3);
}

class RecursiveTrigger : public Interposer {
 public:
  explicit RecursiveTrigger(VirtualLibc* libc) : libc_(libc) {}
  InjectionDecision OnCall(VirtualLibc*, FunctionId function, const ArgSpan&) override {
    ++depth_;
    EXPECT_EQ(depth_, 1) << "interposer re-entered for " << FunctionName(function);
    // Trigger-issued calls must bypass interception.
    VStat st;
    libc_->Stat("/data", &st);
    --depth_;
    return {};
  }

 private:
  VirtualLibc* libc_;
  int depth_ = 0;
};

TEST_F(VlibTest, TriggerCallsBypassInterception) {
  RecursiveTrigger shim(&libc_);
  libc_.set_interposer(&shim);
  libc_.Malloc(8);
  libc_.set_interposer(nullptr);
}

TEST_F(VlibTest, VnetLossDropsMessages) {
  VirtualNet lossy(42);
  lossy.set_loss_probability(1.0);
  VirtualLibc a(&fs_, &lossy, "a");
  VirtualLibc b(&fs_, &lossy, "b");
  int sa = a.Socket();
  int sb = b.Socket();
  ASSERT_EQ(a.BindSocket(sa, 1), 0);
  ASSERT_EQ(b.BindSocket(sb, 2), 0);
  EXPECT_EQ(a.SendTo(sa, "x", 1, 2), 1);  // fire-and-forget
  char buf[4];
  EXPECT_EQ(b.RecvFrom(sb, buf, 4, nullptr), -1);
  EXPECT_EQ(lossy.dropped_count(), 1u);
}

// The head datagram of `port`, received whole (no test payload comes near
// the buffer), or nothing when the queue is empty.
std::optional<Datagram> ReceiveDatagram(VirtualNet& net, int port) {
  std::string buf(8192, '\0');
  Datagram d;
  long n = net.Receive(port, buf.data(), buf.size(), &d.src_port);
  if (n < 0) {
    return std::nullopt;
  }
  d.payload = buf.substr(0, static_cast<size_t>(n));
  return d;
}

TEST_F(VlibTest, VnetPartialSendDeliversHonestPrefix) {
  VirtualNet net(9);
  ASSERT_TRUE(net.Bind(1));
  ASSERT_TRUE(net.Bind(2));
  net.set_partial_send_probability(1.0);
  const std::string payload = "abcdef";
  long n = net.Send(1, 2, payload);
  // A strict prefix: the sender sees exactly what a short write() reports.
  ASSERT_GE(n, 1);
  ASSERT_LT(static_cast<size_t>(n), payload.size());
  std::optional<Datagram> d = ReceiveDatagram(net, 2);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->payload, payload.substr(0, static_cast<size_t>(n)));
  EXPECT_EQ(net.partial_send_count(), 1u);
  EXPECT_EQ(net.partial_recv_count(), 0u);
}

TEST_F(VlibTest, VnetPartialRecvTruncatesTheHeadDatagram) {
  VirtualNet net(10);
  ASSERT_TRUE(net.Bind(1));
  ASSERT_TRUE(net.Bind(2));
  const std::string payload = "abcdef";
  ASSERT_EQ(net.Send(1, 2, payload), static_cast<long>(payload.size()));
  net.set_partial_recv_probability(1.0);
  std::optional<Datagram> d = ReceiveDatagram(net, 2);
  ASSERT_TRUE(d);
  // The receiver gets a strict prefix and the remainder is gone -- an honest
  // short read the frame layer must detect (length prefix / CRC).
  ASSERT_GE(d->payload.size(), 1u);
  ASSERT_LT(d->payload.size(), payload.size());
  EXPECT_EQ(d->payload, payload.substr(0, d->payload.size()));
  EXPECT_EQ(net.QueueDepth(2), 0u);
  EXPECT_EQ(net.partial_recv_count(), 1u);
}

TEST_F(VlibTest, VnetTinyPayloadsCannotBeSplit) {
  VirtualNet net(11);
  ASSERT_TRUE(net.Bind(1));
  ASSERT_TRUE(net.Bind(2));
  net.set_partial_send_probability(1.0);
  net.set_partial_recv_probability(1.0);
  ASSERT_EQ(net.Send(1, 2, "a"), 1);
  std::optional<Datagram> d = ReceiveDatagram(net, 2);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->payload, "a");
  EXPECT_EQ(net.partial_send_count(), 0u);
  EXPECT_EQ(net.partial_recv_count(), 0u);
}

TEST_F(VlibTest, VnetPartialSendRoundTripRecoversByResending) {
  // The sender-side recovery discipline the bfs client implements: resend
  // from the reported offset until everything is accepted. The receiver
  // reassembles the prefixes back into the original bytes.
  VirtualNet net(12);
  ASSERT_TRUE(net.Bind(1));
  ASSERT_TRUE(net.Bind(2));
  net.set_partial_send_probability(1.0);
  const std::string payload = "the-quick-brown-fox";
  size_t off = 0;
  int rounds = 0;
  while (off < payload.size() && rounds < 64) {
    long n = net.Send(1, 2, payload.substr(off));
    ASSERT_GE(n, 1);
    off += static_cast<size_t>(n);
    ++rounds;
  }
  ASSERT_EQ(off, payload.size());
  EXPECT_GT(rounds, 1);  // at least one send actually split
  std::string reassembled;
  while (std::optional<Datagram> d = ReceiveDatagram(net, 2)) {
    reassembled += d->payload;
  }
  EXPECT_EQ(reassembled, payload);
  EXPECT_GE(net.partial_send_count(), 1u);
}

TEST_F(VlibTest, VnetSnapshotRestoreReplaysThePartialFaultStream) {
  VirtualNet net(13);
  ASSERT_TRUE(net.Bind(1));
  ASSERT_TRUE(net.Bind(2));
  net.set_partial_send_probability(0.5);
  net.set_partial_recv_probability(0.5);
  VirtualNet::Snapshot snapshot = net.TakeSnapshot();

  auto run_sequence = [](VirtualNet& n) {
    std::vector<std::pair<long, std::string>> trace;
    for (int i = 0; i < 24; ++i) {
      long sent = n.Send(1, 2, StrFormat("payload-%02d", i));
      std::optional<Datagram> d = ReceiveDatagram(n, 2);
      std::string received = d ? d->payload : "<empty>";
      trace.emplace_back(sent, received);
    }
    return trace;
  };
  auto first = run_sequence(net);
  uint64_t sends = net.partial_send_count();
  uint64_t recvs = net.partial_recv_count();
  EXPECT_GT(sends + recvs, 0u);

  // Restore rolls the probabilities, the counters, and the RNG back, so the
  // second run replays the exact fault stream -- the property the warm
  // target pool's bit-identity rests on.
  net.Restore(snapshot);
  EXPECT_EQ(net.partial_send_count(), 0u);
  EXPECT_EQ(net.partial_recv_count(), 0u);
  EXPECT_EQ(run_sequence(net), first);
  EXPECT_EQ(net.partial_send_count(), sends);
  EXPECT_EQ(net.partial_recv_count(), recvs);
}

// --- recycled payload buffers ------------------------------------------------

TEST_F(VlibTest, VnetRecycledBufferDeliversAShortPayloadExactly) {
  VirtualLibc peer(&fs_, &net_, "peer");
  int s1 = libc_.Socket();
  int s2 = peer.Socket();
  ASSERT_EQ(libc_.BindSocket(s1, 100), 0);
  ASSERT_EQ(peer.BindSocket(s2, 200), 0);
  std::string long_payload(1500, 'L');
  std::string short_payload = "short-after-a-long-one";  // heap-sized, reuses the long buffer
  char buf[2048];
  int src = -1;
  ASSERT_EQ(libc_.SendTo(s1, long_payload.data(), long_payload.size(), 200), 1500);
  ASSERT_EQ(peer.RecvFrom(s2, buf, sizeof buf, &src), 1500);
  for (const std::string& payload : {short_payload, std::string("tiny")}) {
    std::memset(buf, '#', sizeof buf);
    ASSERT_EQ(libc_.SendTo(s1, payload.data(), payload.size(), 200),
              static_cast<long>(payload.size()));
    ASSERT_EQ(peer.RecvFrom(s2, buf, sizeof buf, &src), static_cast<long>(payload.size()));
    EXPECT_EQ(std::string(buf, payload.size()), payload);
    EXPECT_EQ(buf[payload.size()], '#');  // nothing of the long payload leaks past it
    EXPECT_EQ(src, 100);
  }
  EXPECT_EQ(net_.delivered_count(), 3u);
}

// Sends and receives varied payloads -- long and short, to a bound and an
// unbound port -- and records everything observable.
std::vector<std::string> DriveNet(VirtualNet& net) {
  std::vector<std::string> trace;
  for (int i = 0; i < 48; ++i) {
    size_t filler = i % 3 == 0 ? 700 : static_cast<size_t>(i % 7);
    std::string payload = StrFormat("%02d-", i) + std::string(filler, static_cast<char>('a' + i % 26));
    int dst = i % 11 == 0 ? 3 : 2;  // port 3 is unbound: dropped
    long sent = net.Send(1, dst, payload);
    std::string received = "<empty>";
    if (std::optional<Datagram> d = ReceiveDatagram(net, 2)) {
      received = StrFormat("%d:", d->src_port) + d->payload;
    }
    trace.push_back(StrFormat("%ld ", sent) + received);
  }
  trace.push_back(StrFormat("delivered=%llu dropped=%llu partial_sends=%llu partial_recvs=%llu",
                            static_cast<unsigned long long>(net.delivered_count()),
                            static_cast<unsigned long long>(net.dropped_count()),
                            static_cast<unsigned long long>(net.partial_send_count()),
                            static_cast<unsigned long long>(net.partial_recv_count())));
  return trace;
}

VirtualNet FaultyNet() {
  VirtualNet net(21);
  EXPECT_TRUE(net.Bind(1));
  EXPECT_TRUE(net.Bind(2));
  net.set_loss_probability(0.2);
  net.set_partial_send_probability(0.4);
  net.set_partial_recv_probability(0.4);
  return net;
}

// Fills the free list past its bound: 100 long datagrams queued on port 2
// (a Send of each, none lost), then all received.
void FillFreeList(VirtualNet& net) {
  VirtualNet::Snapshot faults = net.TakeSnapshot();
  net.set_loss_probability(0.0);
  net.set_partial_send_probability(0.0);
  net.set_partial_recv_probability(0.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(net.Send(1, 2, std::string(200 + i, 'f')), 200 + i);
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ReceiveDatagram(net, 2));
  }
  net.Restore(faults);
}

TEST_F(VlibTest, VnetRecyclingChangesNoByteOrCounter) {
  VirtualNet recycled = FaultyNet();
  VirtualNet plain = FaultyNet();
  FillFreeList(recycled);
  std::vector<std::string> trace = DriveNet(recycled);
  EXPECT_EQ(trace, DriveNet(plain));
  EXPECT_GT(recycled.partial_send_count(), 0u);
  EXPECT_GT(recycled.partial_recv_count(), 0u);
  EXPECT_GT(recycled.dropped_count(), 0u);
  // Again, now with both free lists holding the first pass's buffers.
  EXPECT_EQ(DriveNet(recycled), DriveNet(plain));
}

TEST_F(VlibTest, VnetRestoreAfterRecyclingReplaysTheSnapshot) {
  VirtualNet net = FaultyNet();
  net.Send(1, 2, std::string(300, 'q'));  // one datagram queued in the snapshot
  VirtualNet::Snapshot snapshot = net.TakeSnapshot();
  std::vector<std::string> first = DriveNet(net);
  net.Restore(snapshot);
  EXPECT_EQ(DriveNet(net), first);
  // A net that never recycled, restored from the same snapshot, replays the
  // same datagrams.
  VirtualNet fresh;
  fresh.Restore(snapshot);
  EXPECT_EQ(DriveNet(fresh), first);
}

// --- VirtualNet against a model --------------------------------------------------

// The fabric's reference model: one std::deque per bound port in a std::map
// (the keys are the bindings), staged datagrams in send order, and the same
// fault draws from the same Rng in the same order. Straightforward enough to
// be right by inspection; VirtualNet must be indistinguishable from it.
class ModelNet {
 public:
  explicit ModelNet(uint64_t seed) : rng_(seed) {}

  bool Bind(int port) { return queues_.try_emplace(port).second; }
  void Unbind(int port) { queues_.erase(port); }
  bool IsBound(int port) const { return queues_.count(port) != 0; }

  long Send(int src_port, int dst_port, std::string_view bytes) {
    std::string payload(bytes);
    auto it = queues_.find(dst_port);
    if (it == queues_.end() || (loss_ > 0.0 && rng_.Chance(loss_))) {
      ++dropped_;
      return static_cast<long>(payload.size());
    }
    if (partial_send_ > 0.0 && payload.size() >= 2 && rng_.Chance(partial_send_)) {
      payload.resize(1 + static_cast<size_t>(rng_.NextBelow(payload.size() - 1)));
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

  long Receive(int port, char* buf, size_t len, int* src_port) {
    auto it = queues_.find(port);
    if (it == queues_.end() || it->second.empty()) {
      return -1;
    }
    Datagram d = std::move(it->second.front());
    it->second.pop_front();
    if (partial_recv_ > 0.0 && d.payload.size() >= 2 && rng_.Chance(partial_recv_)) {
      d.payload.resize(1 + static_cast<size_t>(rng_.NextBelow(d.payload.size() - 1)));
      ++partial_recvs_;
    }
    size_t n = std::min(len, d.payload.size());
    std::memcpy(buf, d.payload.data(), n);
    if (src_port != nullptr) {
      *src_port = d.src_port;
    }
    return static_cast<long>(n);
  }

  void AdvanceTick() {
    for (auto& [port, dgram] : staged_) {
      auto it = queues_.find(port);
      if (it != queues_.end()) {
        it->second.push_back(std::move(dgram));
      }
    }
    staged_.clear();
  }

  size_t QueueDepth(int port) const {
    auto it = queues_.find(port);
    return it == queues_.end() ? 0 : it->second.size();
  }
  void set_tick_delivery(bool enabled) { tick_delivery_ = enabled; }
  void set_loss_probability(double p) { loss_ = p; }
  void set_partial_send_probability(double p) { partial_send_ = p; }
  void set_partial_recv_probability(double p) { partial_recv_ = p; }
  uint64_t delivered_count() const { return delivered_; }
  uint64_t dropped_count() const { return dropped_; }
  uint64_t partial_send_count() const { return partial_sends_; }
  uint64_t partial_recv_count() const { return partial_recvs_; }

 private:
  std::map<int, std::deque<Datagram>> queues_;
  std::vector<std::pair<int, Datagram>> staged_;
  bool tick_delivery_ = false;
  Rng rng_;
  double loss_ = 0.0;
  double partial_send_ = 0.0;
  double partial_recv_ = 0.0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t partial_sends_ = 0;
  uint64_t partial_recvs_ = 0;
};

struct NetOp {
  enum Kind { kBind, kUnbind, kSend, kReceive, kAdvanceTick, kSetTickDelivery } kind = kBind;
  int port = 0;  // destination, or the port (un)bound or received from
  int src = 0;
  const std::string* payload = nullptr;
  size_t len = 0;  // receive buffer size
  bool flag = false;
};

constexpr int kModelPorts = 4;  // ports 1..4; port 5 is never bound

// Payloads the sequences draw from: mostly message-sized, some empty or one
// byte (never split), a few past the free list's capacity cap.
const std::vector<std::string>& ModelPayloads() {
  static const std::vector<std::string> payloads = [] {
    std::vector<std::string> out;
    for (size_t size = 0; size < 48; ++size) {
      std::string payload;
      for (size_t k = 0; k < size; ++k) {
        payload.push_back(static_cast<char>('a' + (size * 7 + k) % 26));
      }
      out.push_back(payload);
    }
    out.push_back(std::string(4097, 'L'));
    out.push_back(std::string(5000, 'M'));
    return out;
  }();
  return payloads;
}

std::vector<NetOp> RandomOps(Rng& rng, size_t count) {
  const std::vector<std::string>& payloads = ModelPayloads();
  std::vector<NetOp> ops;
  for (size_t i = 0; i < count; ++i) {
    NetOp op;
    uint64_t pick = rng.NextBelow(20);
    op.kind = pick < 2    ? NetOp::kBind
              : pick < 3  ? NetOp::kUnbind
              : pick < 11 ? NetOp::kSend
              : pick < 17 ? NetOp::kReceive
              : pick < 19 ? NetOp::kAdvanceTick
                          : NetOp::kSetTickDelivery;
    op.port = 1 + static_cast<int>(rng.NextBelow(kModelPorts + 1));
    op.src = 1 + static_cast<int>(rng.NextBelow(kModelPorts));
    op.payload = &payloads[rng.NextBelow(payloads.size())];
    // Receive buffers: mostly roomy, sometimes shorter than the datagram.
    op.len = rng.Chance(0.2) ? rng.NextBelow(8) : rng.Chance(0.05) ? 8192 : 64;
    op.flag = rng.Chance(0.5);
    ops.push_back(std::move(op));
  }
  return ops;
}

// What an operation left observable: its return value, the delivered bytes
// and sender, and the state every accessor reports after it.
struct NetSeen {
  long ret = 0;
  int src = 0;
  std::string bytes;
  // Bound and queue depth of each port, then the four counters.
  std::array<uint64_t, 2 * (kModelPorts + 1) + 4> state{};
  bool operator==(const NetSeen&) const = default;
};

template <typename Net>
NetSeen ApplyOp(Net& net, const NetOp& op) {
  NetSeen seen;
  switch (op.kind) {
    case NetOp::kBind:
      seen.ret = net.Bind(op.port) ? 1 : 0;
      break;
    case NetOp::kUnbind:
      net.Unbind(op.port);
      break;
    case NetOp::kSend:
      seen.ret = net.Send(op.src, op.port, *op.payload);
      break;
    case NetOp::kReceive: {
      seen.bytes.assign(op.len, '#');
      seen.ret = net.Receive(op.port, seen.bytes.data(), seen.bytes.size(), &seen.src);
      seen.bytes.resize(seen.ret < 0 ? 0 : static_cast<size_t>(seen.ret));
      break;
    }
    case NetOp::kAdvanceTick:
      net.AdvanceTick();
      break;
    case NetOp::kSetTickDelivery:
      net.set_tick_delivery(op.flag);
      break;
  }
  size_t i = 0;
  for (int port = 1; port <= kModelPorts + 1; ++port) {
    seen.state[i++] = net.IsBound(port) ? 1 : 0;
    seen.state[i++] = net.QueueDepth(port);
  }
  seen.state[i++] = net.delivered_count();
  seen.state[i++] = net.dropped_count();
  seen.state[i++] = net.partial_send_count();
  seen.state[i++] = net.partial_recv_count();
  return seen;
}

template <typename Net>
std::vector<NetSeen> ApplyOps(Net& net, const std::vector<NetOp>& ops) {
  std::vector<NetSeen> trace;
  for (const NetOp& op : ops) {
    trace.push_back(ApplyOp(net, op));
  }
  return trace;
}

// 10,000 seeded sequences P;S of every VirtualNet operation, with tick
// delivery on or off (and switched mid-sequence), physical loss and partial
// send/recv faults set or not. VirtualNet and the model run P;S in lockstep
// and must agree on every observation. Then the snapshot contract: the net
// restored to its snapshot after P, and a fresh net restored to it, both
// replay S exactly as the lockstep run did.
TEST(VnetModel, LockstepWithTheModelAndTheSnapshotContract) {
  Rng rng(2027);
  size_t staged_runs = 0;
  for (int sequence = 0; sequence < 10000; ++sequence) {
    uint64_t seed = rng.Next();
    bool tick = rng.Chance(0.5);
    double loss = rng.Chance(0.3) ? 0.15 : 0.0;
    double partial_send = rng.Chance(0.4) ? 0.3 : 0.0;
    double partial_recv = rng.Chance(0.4) ? 0.3 : 0.0;
    // One sequence in 500 is long enough to fill the free list past its bound.
    uint64_t length = sequence % 500 == 0 ? 400 : 12;
    std::vector<NetOp> prefix = RandomOps(rng, rng.NextBelow(length));
    std::vector<NetOp> suffix = RandomOps(rng, 1 + rng.NextBelow(length));
    staged_runs += tick ? 1 : 0;

    VirtualNet net(seed);
    ModelNet model(seed);
    auto configure = [&](auto& n) {
      n.set_tick_delivery(tick);
      n.set_loss_probability(loss);
      n.set_partial_send_probability(partial_send);
      n.set_partial_recv_probability(partial_recv);
      for (int port = 1; port <= 2; ++port) {
        n.Bind(port);
      }
    };
    configure(net);
    configure(model);
    ASSERT_EQ(ApplyOps(net, prefix), ApplyOps(model, prefix)) << "sequence " << sequence;
    VirtualNet::Snapshot snapshot = net.TakeSnapshot();
    std::vector<NetSeen> want = ApplyOps(model, suffix);
    ASSERT_EQ(ApplyOps(net, suffix), want) << "sequence " << sequence;

    net.Restore(snapshot);
    ASSERT_EQ(ApplyOps(net, suffix), want) << "sequence " << sequence << ", restored";
    VirtualNet fresh(seed + 1);
    fresh.Restore(snapshot);
    ASSERT_EQ(ApplyOps(fresh, suffix), want) << "sequence " << sequence << ", fresh restore";
  }
  EXPECT_GT(staged_runs, 4000u);
}

}  // namespace
}  // namespace lfi
