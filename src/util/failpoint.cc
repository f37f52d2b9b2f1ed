#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/string_util.h"

namespace lfi {

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();  // leaked: process lifetime
  return *instance;
}

bool Failpoints::ParseSpec(const std::string& spec, std::vector<Entry>* out,
                           std::string* error) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  for (const std::string& part : Split(spec, ',')) {
    if (part.empty()) {
      continue;
    }
    Entry entry;
    std::string body = part;
    // "scope:name=action" -- the scope separator is the first ':' before
    // '='; the action's own ':' (exit:N) comes after it.
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      return fail("failpoint '" + part + "' is missing its =action");
    }
    size_t colon = body.find(':');
    if (colon != std::string::npos && colon < eq) {
      entry.scope = body.substr(0, colon);
      body = body.substr(colon + 1);
      eq = body.find('=');
    }
    entry.name = body.substr(0, eq);
    std::string action = body.substr(eq + 1);
    size_t at = action.rfind('@');
    if (at != std::string::npos) {
      auto hit = ParseInt(action.substr(at + 1));
      if (!hit || *hit < 1) {
        return fail("failpoint '" + part + "' has a bad @hit count");
      }
      entry.fire_at = static_cast<size_t>(*hit);
      action = action.substr(0, at);
    }
    if (action == "error") {
      entry.action = Action::kError;
    } else if (action == "hang") {
      entry.action = Action::kHang;
    } else if (action == "exit" || action.rfind("exit:", 0) == 0) {
      entry.action = Action::kExit;
      if (action.size() > 5) {
        auto code = ParseInt(action.substr(5));
        if (!code) {
          return fail("failpoint '" + part + "' has a bad exit code");
        }
        entry.exit_code = static_cast<int>(*code);
      }
    } else {
      return fail("failpoint '" + part + "' names unknown action '" + action +
                  "' (error|exit[:N]|hang)");
    }
    if (entry.name.empty()) {
      return fail("failpoint '" + part + "' has an empty name");
    }
    out->push_back(std::move(entry));
  }
  return true;
}

bool Failpoints::Arm(const std::string& spec, std::string* error) {
  std::vector<Entry> entries;
  if (!ParseSpec(spec, &entries, error)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(entries);
  release_hangs_.store(false, std::memory_order_release);
  any_armed_.store(!entries_.empty(), std::memory_order_release);
  return true;
}

void Failpoints::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  any_armed_.store(false, std::memory_order_release);
  release_hangs_.store(true, std::memory_order_release);
}

Failpoints::Saved Failpoints::Save() const {
  Saved saved;
  std::lock_guard<std::mutex> lock(mu_);
  saved.entries_ = entries_;
  return saved;
}

void Failpoints::Restore(const Saved& saved) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = saved.entries_;
  any_armed_.store(!entries_.empty(), std::memory_order_release);
}

void Failpoints::SetScope(std::string scope) {
  std::lock_guard<std::mutex> lock(mu_);
  scope_ = std::move(scope);
}

std::string Failpoints::scope() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scope_;
}

bool Failpoints::Fire(const char* name) {
  Action action = Action::kError;
  int exit_code = 0;
  bool fired = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& entry : entries_) {
      if (entry.spent || entry.name != name ||
          (!entry.scope.empty() && entry.scope != scope_)) {
        continue;
      }
      if (++entry.hits < entry.fire_at) {
        continue;
      }
      entry.spent = true;
      action = entry.action;
      exit_code = entry.exit_code;
      fired = true;
      break;
    }
  }
  if (!fired) {
    return false;
  }
  switch (action) {
    case Action::kError:
      return true;
    case Action::kExit:
      // A crash, not an exit: no destructors, no atexit, mid-operation --
      // exactly what the supervisor must tolerate.
      std::_Exit(exit_code);
    case Action::kHang:
      // Parks until Clear() (the watchdog's detach leaves this thread
      // behind; releasing it on Clear keeps test processes leak-free).
      while (!release_hangs_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;  // released late: report the operation as failed
  }
  return true;
}

}  // namespace lfi
