// The LFI test log (§2).
//
// Records every injected error together with the injected side effects and
// the events that triggered it: which trigger instances fired, the call
// count, and a snapshot of the virtual call stack. Developers use the log to
// match injections to observed program behaviour; ReplayScenario() turns a
// record into a deterministic call-count-based scenario that reproduces
// exactly that injection (the paper points at R2-style replay for the same
// purpose). Campaign journal records carry the log, so an injection replays
// from disk alone; ToXml renders it for `lfi_tool journal dump`.

#ifndef LFI_CORE_INJECTION_LOG_H_
#define LFI_CORE_INJECTION_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "vlib/call_stack.h"

namespace lfi {

struct InjectionRecord {
  uint64_t sequence = 0;        // ordinal among all injections in the run
  std::string function;         // intercepted library function
  int64_t retval = 0;           // injected return value
  int errno_value = 0;          // injected errno (0 = untouched)
  std::vector<std::string> trigger_ids;  // triggers that fired, conjunction order
  uint64_t call_number = 0;     // how many interceptions of `function` so far
  std::vector<StackFrame> stack;  // call stack at injection time
  std::string process;          // process name (distinguishes replicas)

  bool operator==(const InjectionRecord& o) const = default;
};

class InjectionLog {
 public:
  void Record(InjectionRecord record) { records_.push_back(std::move(record)); }
  const std::vector<InjectionRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void Clear() { records_.clear(); }

  // Human-readable rendering, one line per injection.
  std::string ToString() const;

  // Stable one-line digest of the injection sequence: every record's
  // (function, call number, retval, errno), order-sensitive. Two runs with
  // equal fingerprints exercised the same fault sequence, which is how the
  // exploration strategies deduplicate behaviourally equivalent scenarios.
  // Empty when nothing was injected.
  std::string Fingerprint() const;

  // A scenario that re-injects exactly record[index]'s fault on the same
  // call number, using the stock call-count trigger.
  Scenario ReplayScenario(size_t index) const;

  // A scenario that re-injects the run's whole fault sequence: each logged
  // call fails again, through one call-count trigger per logged
  // (function, retval, errno). Re-injecting the full set pins every
  // divergence point, so the replayed execution tracks the original call
  // for call -- required to reproduce outcomes that are a property of the
  // sequence (a consistency corruption built up across several survived
  // faults), where replaying only the final injection leaves the earlier
  // calls un-faulted and the call numbering drifts away from the log.
  Scenario FullReplayScenario() const;

  // Serializes as a <log> child of `parent` (one <injection> element per
  // record, triggers and stack frames as children); ToXml() wraps the same
  // element in a document.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;

  bool operator==(const InjectionLog& o) const { return records_ == o.records_; }

 private:
  std::vector<InjectionRecord> records_;
};

}  // namespace lfi

#endif  // LFI_CORE_INJECTION_LOG_H_
