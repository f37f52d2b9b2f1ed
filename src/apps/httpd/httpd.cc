#include "apps/httpd/httpd.h"

#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace lfi {
namespace {

template <SiteName kName>
uint32_t Site() {
  return CachedSiteOffset<HttpdBinary, kName>();
}

}  // namespace

const AppBinary& HttpdBinary() {
  static const AppBinary* binary = [] {
    AppBinaryBuilder b(MiniHttpd::kModule, /*filler_seed=*/0xa9ac);
    b.AddSite({"httpd.static.open", "default_handler", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"httpd.static.read", "default_handler", "apr_file_read",
               CheckPattern::kCheckIneq, {}});
    b.AddSite({"httpd.static.close", "default_handler", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"httpd.php.open", "php_handler", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"httpd.php.read", "php_handler", "apr_file_read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"httpd.php.close", "php_handler", "close", CheckPattern::kCheckEqAll, {-1}});
    b.AddSite({"httpd.lock", "ap_process_request_internal", "pthread_mutex_lock",
               CheckPattern::kCheckEqAll, {kEDEADLK}});
    b.AddSite({"httpd.unlock", "ap_process_request_internal", "pthread_mutex_unlock",
               CheckPattern::kNoCheck, {}});
    b.AddSite({"httpd.ext.open", "ext_handler", "open", CheckPattern::kCheckIneq, {}});
    b.AddSite({"httpd.ext.read", "ext_handler", "apr_file_read", CheckPattern::kCheckIneq, {}});
    b.AddSite({"httpd.ext.close", "ext_handler", "close", CheckPattern::kCheckEqAll, {-1}});
    return new AppBinary(b.Build());
  }();
  return *binary;
}

MiniHttpd::MiniHttpd(VirtualFs* fs, VirtualNet* net, std::string docroot)
    : libc_(fs, net, kModule), docroot_(std::move(docroot)) {
  fs->MkDir(docroot_);
}

void MiniHttpd::InstallDefaultSite() {
  std::string page = "<html><body>";
  for (int i = 0; i < 40; ++i) {
    page += StrFormat("<p>static content line %d</p>", i);
  }
  page += "</body></html>";
  libc_.fs()->WriteFile(docroot_ + "/index.html", page);
  libc_.fs()->WriteFile(docroot_ + "/page.php",
                        "<?php for ($i = 0; $i < 64; $i++) { hash($seed); } ?>");
  libc_.fs()->WriteFile(docroot_ + "/ext/data.bin", std::string(256, '\x7f'));
}

std::string MiniHttpd::ServeStatic(const std::string& path) {
  ScopedFrame frame(&libc_.stack(), kModule, "default_handler");
  frame.set_offset(Site<"httpd.static.open">());
  int fd = libc_.Open(path, kORdOnly);
  if (fd < 0) {
    return "404 Not Found";
  }
  std::string body;
  char buf[256];
  while (true) {
    frame.set_offset(Site<"httpd.static.read">());
    long n = libc_.AprFileRead(fd, buf, sizeof buf);
    if (n < 0) {
      libc_.Close(fd);
      return "500 Internal Server Error";
    }
    if (n == 0) {
      break;
    }
    body.append(buf, static_cast<size_t>(n));
  }
  frame.set_offset(Site<"httpd.static.close">());
  libc_.Close(fd);
  return body;
}

std::string MiniHttpd::ServePhp(const std::string& path, const RequestRec& request) {
  ScopedFrame frame(&libc_.stack(), kModule, "php_handler");
  frame.set_offset(Site<"httpd.php.open">());
  int fd = libc_.Open(path, kORdOnly);
  if (fd < 0) {
    return "404 Not Found";
  }
  std::string script;
  char buf[128];
  while (true) {
    frame.set_offset(Site<"httpd.php.read">());
    long n = libc_.AprFileRead(fd, buf, sizeof buf);
    if (n <= 0) {
      break;
    }
    script.append(buf, static_cast<size_t>(n));
  }
  frame.set_offset(Site<"httpd.php.close">());
  libc_.Close(fd);

  // "Execute" the script: compute-bound work, few library calls.
  std::string state = script + request.body;
  for (int i = 0; i < 64; ++i) {
    state = Sha1::HexDigest(state);
  }
  return "<html>" + state + "</html>";
}

std::string MiniHttpd::ServeExtModule(const RequestRec& request) {
  // Dynamically-loaded module: its frames carry the mod_ext module name, so
  // call-stack triggers scoped to httpd-core exclude it.
  ScopedFrame frame(&libc_.stack(), kExtModule, "ext_handler");
  frame.set_offset(Site<"httpd.ext.open">());
  int fd = libc_.Open(docroot_ + request.uri, kORdOnly);
  if (fd < 0) {
    return "404 Not Found";
  }
  char buf[64];
  frame.set_offset(Site<"httpd.ext.read">());
  long n = libc_.AprFileRead(fd, buf, sizeof buf);
  frame.set_offset(Site<"httpd.ext.close">());
  libc_.Close(fd);
  return n >= 0 ? "ext ok" : "ext error";
}

std::string MiniHttpd::ProcessRequest(const RequestRec& request) {
  ScopedFrame frame(&libc_.stack(), kModule, "ap_process_request_internal");
  // Publish the request_rec fields the application-state trigger examines.
  libc_.SetGlobal("request.method_number", request.method_number);
  ++requests_served_;

  // The accept/request mutex: part of each request's library-call mix.
  frame.set_offset(Site<"httpd.lock">());
  libc_.MutexLock(&accept_mutex_);
  std::string response;
  if (StartsWith(request.uri, "/ext/")) {
    response = ServeExtModule(request);
  } else if (EndsWith(request.uri, ".php")) {
    response = ServePhp(docroot_ + request.uri, request);
  } else {
    response = ServeStatic(docroot_ + request.uri);
  }
  frame.set_offset(Site<"httpd.unlock">());
  libc_.MutexUnlock(&accept_mutex_);
  return response;
}

}  // namespace lfi
