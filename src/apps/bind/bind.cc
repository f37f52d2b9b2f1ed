#include "apps/bind/bind.h"

#include <array>
#include <cstring>

#include "util/errno_codes.h"
#include "util/string_util.h"
#include "vlib/sim_crash.h"

namespace lfi {
namespace {

template <SiteName kName>
uint32_t Site() {
  return CachedSiteOffset<BindBinary, kName>();
}

}  // namespace

const AppBinary& BindBinary() {
  static const AppBinary* binary = [] {
    AppBinaryBuilder b(MiniBind::kModule, /*filler_seed=*/0xb1d);
    // Zone loading.
    b.AddSite({"bind.zone.open", "load_zone", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bind.zone.read", "load_zone", "read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bind.zone.close", "load_zone", "close", CheckPattern::kCheckEqAll, {-1}});
    // Query path.
    b.AddSite({"bind.server.socket", "start_server", "socket", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bind.server.bind", "start_server", "bind", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"bind.server.recvfrom", "pump_queries", "recvfrom", CheckPattern::kCheckIneq, {}});
    b.AddSite({"bind.server.sendto", "pump_queries", "sendto", CheckPattern::kCheckIneq, {}});
    // Stats channel (Table 1 bug: both libxml results used unchecked).
    b.AddSite({"bind.stats.newwriter", "statschannel_render", "xmlNewTextWriterDoc",
               CheckPattern::kNoCheck, {}});
    b.AddSite({"bind.stats.writeelem", "statschannel_render", "xmlTextWriterWriteElement",
               CheckPattern::kNoCheck, {}});
    // dst module: 17 checked mallocs (Table 4 population; all 17 live in the
    // C++ implementation too). The *recovery* is what is buggy, which no
    // static return-check analysis can see -- exactly the paper's point.
    for (int i = 0; i < MiniBind::kDstAllocations; ++i) {
      b.AddSite({StrFormat("bind.dst.malloc%02d", i), "dst_lib_init", "malloc",
                 CheckPattern::kCheckZeroEq, {}});
    }
    // Table 4 populations: 6 unlink (all checked), 6 open (5 checked plainly
    // + 1 checked via helper => the analyzer's one false positive), 39 close.
    b.AddSite({"bind.journal.unlink", "clean_journal", "unlink", CheckPattern::kCheckEqAll, {-1}});
    for (int i = 0; i < 5; ++i) {
      b.AddSite({StrFormat("bind.unlink%d", i), StrFormat("zone_maint_%d", i / 3), "unlink",
                 CheckPattern::kCheckEqAll, {-1}});
    }
    for (int i = 0; i < 4; ++i) {
      b.AddSite({StrFormat("bind.open%d", i), StrFormat("conf_io_%d", i / 2), "open",
                 CheckPattern::kCheckIneq, {}});
    }
    b.AddSite({"bind.open_helper", "conf_io_2", "open", CheckPattern::kCheckViaHelper, {}});
    for (int i = 0; i < 38; ++i) {
      b.AddSite({StrFormat("bind.close%02d", i), StrFormat("sock_io_%d", i / 6), "close",
                 CheckPattern::kCheckEqAll, {-1}});
    }
    return new AppBinary(b.Build());
  }();
  return *binary;
}

MiniBind::MiniBind(VirtualFs* fs, VirtualNet* net, std::string confdir)
    : libc_(fs, net, kModule), confdir_(std::move(confdir)) {
  fs->MkDir(confdir_);
  RegisterCoverageBlocks();
}

MiniBind::~MiniBind() {
  for (void* p : dst_tables_) {
    libc_.Free(p);
  }
}

void MiniBind::RegisterCoverageBlocks() {
  struct BlockSpec {
    const char* id;
    bool recovery;
    int lines;
  };
  static const BlockSpec kBlocks[] = {
      {"bind.zone.body", false, 25},
      {"bind.zone.err_open", true, 5},
      {"bind.zone.err_read", true, 6},
      {"bind.zone.err_close", true, 4},
      {"bind.server.body", false, 16},
      {"bind.server.err_socket", true, 4},
      {"bind.server.err_bind", true, 5},
      {"bind.pump.body", false, 20},
      {"bind.pump.err_recv", true, 6},
      {"bind.pump.err_send", true, 5},
      {"bind.stats.body", false, 18},
      {"bind.dst.body", false, 22},
      {"bind.dst.err_alloc", true, 8},
      {"bind.journal.body", false, 10},
      {"bind.journal.err_unlink", true, 4},
      {"bind.resolve.body", false, 8},
      {"bind.resolve.nxdomain", true, 4},
  };
  for (const auto& blk : kBlocks) {
    coverage_.RegisterBlock(blk.id, blk.recovery, blk.lines);
  }
}

bool MiniBind::LoadZone(const std::string& path) {
  ScopedFrame frame(&libc_.stack(), kModule, "load_zone");
  coverage_.Hit("bind.zone.body");
  frame.set_offset(Site<"bind.zone.open">());
  int fd = libc_.Open(path, kORdOnly);
  if (fd < 0) {
    coverage_.Hit("bind.zone.err_open");
    return false;
  }
  std::string data;
  char buf[512];
  while (true) {
    frame.set_offset(Site<"bind.zone.read">());
    long n = libc_.Read(fd, buf, sizeof buf);
    if (n < 0) {
      if (libc_.verrno() == kEINTR) {
        continue;  // correct EINTR retry (recovery code)
      }
      coverage_.Hit("bind.zone.err_read");
      libc_.Close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    data.append(buf, static_cast<size_t>(n));
  }
  frame.set_offset(Site<"bind.zone.close">());
  if (libc_.Close(fd) == -1) {
    coverage_.Hit("bind.zone.err_close");
    return false;
  }
  for (const std::string& line : Split(data, '\n')) {
    auto fields = SplitWhitespace(line);
    if (fields.size() >= 2 && fields[0][0] != ';') {
      zone_[fields[0]] = fields[1];
    }
  }
  return true;
}

bool MiniBind::StartServer(int port) {
  ScopedFrame frame(&libc_.stack(), kModule, "start_server");
  coverage_.Hit("bind.server.body");
  frame.set_offset(Site<"bind.server.socket">());
  server_fd_ = libc_.Socket();
  if (server_fd_ < 0) {
    coverage_.Hit("bind.server.err_socket");
    return false;
  }
  frame.set_offset(Site<"bind.server.bind">());
  if (libc_.BindSocket(server_fd_, port) == -1) {
    coverage_.Hit("bind.server.err_bind");
    return false;
  }
  server_port_ = port;
  return true;
}

std::optional<std::string> MiniBind::Resolve(const std::string& name) {
  coverage_.Hit("bind.resolve.body");
  auto it = zone_.find(name);
  if (it == zone_.end()) {
    coverage_.Hit("bind.resolve.nxdomain");
    ++nxdomain_count_;
    return std::nullopt;
  }
  ++queries_served_;
  return it->second;
}

int MiniBind::PumpQueries() {
  ScopedFrame frame(&libc_.stack(), kModule, "pump_queries");
  coverage_.Hit("bind.pump.body");
  int processed = 0;
  while (true) {
    char buf[512];
    int src_port = -1;
    frame.set_offset(Site<"bind.server.recvfrom">());
    long n = libc_.RecvFrom(server_fd_, buf, sizeof buf, &src_port);
    if (n < 0) {
      if (libc_.verrno() == kEAGAIN) {
        break;  // queue drained
      }
      coverage_.Hit("bind.pump.err_recv");
      break;
    }
    std::string msg(buf, static_cast<size_t>(n));
    std::string reply;
    if (msg == "STATS") {
      reply = HandleStatsRequest();
    } else if (StartsWith(msg, "Q ")) {
      auto answer = Resolve(msg.substr(2));
      reply = answer ? "A " + *answer : "NXDOMAIN";
    } else {
      reply = "FORMERR";
    }
    frame.set_offset(Site<"bind.server.sendto">());
    long sent = libc_.SendTo(server_fd_, reply.data(), reply.size(), src_port);
    if (sent < 0) {
      coverage_.Hit("bind.pump.err_send");
    }
    ++processed;
  }
  return processed;
}

std::string MiniBind::HandleStatsRequest() {
  ScopedFrame frame(&libc_.stack(), kModule, "statschannel_render");
  coverage_.Hit("bind.stats.body");
  frame.set_offset(Site<"bind.stats.newwriter">());
  VXmlWriter* writer = libc_.XmlNewTextWriterDoc();
  // BUG (Table 1): the writer is not checked. When xmlNewTextWriterDoc
  // fails while a user retrieves statistics over HTTP, the server crashes
  // (statschannel.c).
  frame.set_offset(Site<"bind.stats.writeelem">());
  libc_.XmlWriterWriteElement(writer, "queries", StrFormat("%llu", (unsigned long long)queries_served_));
  libc_.XmlWriterWriteElement(writer, "nxdomain", StrFormat("%llu", (unsigned long long)nxdomain_count_));
  libc_.XmlWriterWriteElement(writer, "zones", StrFormat("%zu", zone_.size()));
  return libc_.XmlFreeTextWriter(writer);
}

bool MiniBind::DstLibInit() {
  ScopedFrame frame(&libc_.stack(), kModule, "dst_lib_init");
  coverage_.Hit("bind.dst.body");
  dst_tables_.clear();
  // The numbered malloc sites, resolved once like every other call site.
  static const std::array<uint32_t, kDstAllocations> kDstSites = [] {
    std::array<uint32_t, kDstAllocations> sites{};
    for (int i = 0; i < kDstAllocations; ++i) {
      sites[static_cast<size_t>(i)] =
          BindBinary().SiteOffset(StrFormat("bind.dst.malloc%02d", i));
    }
    return sites;
  }();
  for (int i = 0; i < kDstAllocations; ++i) {
    frame.set_offset(kDstSites[static_cast<size_t>(i)]);
    void* table = libc_.Malloc(128 + static_cast<unsigned long>(i) * 16);
    if (table == nullptr) {
      // The return IS checked -- but the recovery is wrong (Table 1,
      // dst_api.c): it tears down via dst_lib_destroy(), whose REQUIRE()
      // fires because dst_initialized is not set until init completes.
      coverage_.Hit("bind.dst.err_alloc");
      DstLibDestroy();
      return false;
    }
    dst_tables_.push_back(table);
  }
  dst_initialized_ = true;
  return true;
}

void MiniBind::DstLibDestroy() {
  // REQUIRE(dst_initialized) -- the first statement, as in dst_api.c.
  SimAssert(dst_initialized_, "dst_lib_destroy: REQUIRE(dst_initialized)");
  for (void* p : dst_tables_) {
    libc_.Free(p);
  }
  dst_tables_.clear();
  dst_initialized_ = false;
}

int MiniBind::CleanJournalFiles() {
  ScopedFrame frame(&libc_.stack(), kModule, "clean_journal");
  coverage_.Hit("bind.journal.body");
  int removed = 0;
  for (const std::string& name : libc_.fs()->ListDir(confdir_)) {
    if (!EndsWith(name, ".jnl")) {
      continue;
    }
    frame.set_offset(Site<"bind.journal.unlink">());
    if (libc_.Unlink(confdir_ + "/" + name) == -1) {
      coverage_.Hit("bind.journal.err_unlink");
      continue;
    }
    ++removed;
  }
  return removed;
}

bool MiniBind::RunDefaultTestSuite() {
  libc_.fs()->WriteFile(confdir_ + "/example.zone",
                        "www.example.com 10.0.0.1\n"
                        "mail.example.com 10.0.0.2\n"
                        "; comment line\n"
                        "ns1.example.com 10.0.0.3\n");
  if (!LoadZone(confdir_ + "/example.zone")) {
    return false;
  }
  if (!StartServer(53)) {
    return false;
  }
  if (!DstLibInit()) {
    return false;
  }

  // A resolver client drives the query workload.
  VirtualLibc client(libc_.fs(), libc_.net(), "dig");
  int cfd = client.Socket();
  if (cfd < 0 || client.BindSocket(cfd, 5353) == -1) {
    return false;
  }
  const char* kQueries[] = {"Q www.example.com", "Q mail.example.com", "Q nope.example.com",
                            "STATS", "Q ns1.example.com"};
  for (const char* q : kQueries) {
    if (client.SendTo(cfd, q, std::strlen(q), 53) < 0) {
      return false;
    }
  }
  if (PumpQueries() != 5) {
    return false;
  }
  char buf[512];
  int replies = 0;
  while (client.RecvFrom(cfd, buf, sizeof buf, nullptr) >= 0) {
    ++replies;
  }
  if (replies != 5) {
    return false;
  }

  // Zone maintenance: journal cleanup.
  libc_.fs()->WriteFile(confdir_ + "/example.zone.jnl", "journal");
  if (CleanJournalFiles() != 1) {
    return false;
  }
  return true;
}

}  // namespace lfi
