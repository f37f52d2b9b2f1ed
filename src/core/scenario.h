// Fault injection scenarios and the XML description language (§4).
//
// A scenario has two constructs:
//   <trigger id="..." class="..."> [<args>...</args>] </trigger>
//       declares a named trigger instance of a registered trigger class,
//       optionally with initialization parameters;
//   <function name="..." argc="N" return="V" errno="E"> <reftrigger ref=.../>+
//       associates trigger instances with an intercepted library function.
//
// Composition semantics (§4.2): multiple <reftrigger> inside one <function>
// form a conjunction; multiple <function> elements with the same name form a
// disjunction; negate="true" on a <reftrigger> inverts that trigger's vote.
// return="unused" marks associations that exist only so a stateful trigger
// observes the calls (e.g. mutex lock/unlock) -- they never inject.
// Both `return` and `retval` attribute spellings are accepted (the paper uses
// both).

#ifndef LFI_CORE_SCENARIO_H_
#define LFI_CORE_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xml/xml.h"

namespace lfi {

class TriggerDecl {
 public:
  TriggerDecl() = default;
  // `args` must be complete: its canonical spelling is taken here, once.
  TriggerDecl(std::string id, std::string class_name,
              std::shared_ptr<const XmlNode> args = nullptr);

  std::string id;
  std::string class_name;

  // The <args> element, if any. It is immutable once attached, so its
  // canonical serialized spelling (args_xml(); empty without args) never
  // goes stale: the journal encodes that spelling and equality compares it.
  const std::shared_ptr<const XmlNode>& args() const { return args_; }
  const std::string& args_xml() const { return args_xml_; }
  void set_args(std::shared_ptr<const XmlNode> args);

  // Structural equality; <args> subtrees compare by serialized form.
  bool operator==(const TriggerDecl& o) const {
    return id == o.id && class_name == o.class_name && args_xml_ == o.args_xml_;
  }

 private:
  std::shared_ptr<const XmlNode> args_;
  std::string args_xml_;
};

struct TriggerRef {
  std::string ref;
  bool negate = false;
  bool operator==(const TriggerRef& o) const = default;
};

struct FunctionAssoc {
  std::string function;
  int argc = 0;
  bool unused = false;     // return="unused": observe only, never inject
  int64_t retval = 0;
  int errno_value = 0;     // 0 = leave errno untouched
  std::vector<TriggerRef> triggers;  // conjunction, evaluated in order
  bool operator==(const FunctionAssoc& o) const = default;
};

class Scenario {
 public:
  std::vector<TriggerDecl>& triggers() { return triggers_; }
  const std::vector<TriggerDecl>& triggers() const { return triggers_; }
  std::vector<FunctionAssoc>& functions() { return functions_; }
  const std::vector<FunctionAssoc>& functions() const { return functions_; }

  void AddTrigger(TriggerDecl decl) { triggers_.push_back(std::move(decl)); }
  void AddFunction(FunctionAssoc assoc) { functions_.push_back(std::move(assoc)); }
  const TriggerDecl* FindTrigger(const std::string& id) const;

  // Serializes to the XML description language.
  std::string ToXml() const;

  // Serializes as a <scenario> child of `parent` (the embedded form campaign
  // journal records use). ToXml() is this plus the document wrapper.
  void AppendXml(XmlNode* parent) const;

  // Parses a scenario document (root element <scenario> or <plan>). Returns
  // nullopt and fills *error on malformed input, including references to
  // undeclared trigger ids.
  static std::optional<Scenario> Parse(const std::string& xml, std::string* error = nullptr);

  // Parses from an already-parsed element (the inverse of AppendXml).
  static std::optional<Scenario> FromNode(const XmlNode& node, std::string* error = nullptr);

  bool operator==(const Scenario& o) const {
    return triggers_ == o.triggers_ && functions_ == o.functions_;
  }

  // Builds the canonical element tree under `root` -- the serializer core
  // ToXml/AppendXml wrap, and what ScenarioFingerprint streams into SHA-1
  // without materializing the document string.
  void WriteXmlInto(XmlNode* root) const;

 private:
  std::vector<TriggerDecl> triggers_;
  std::vector<FunctionAssoc> functions_;
};

// Deep-copies an XML node (used to retain <args> subtrees).
std::unique_ptr<XmlNode> CloneXml(const XmlNode& node);

// Stable content digest of a scenario: the SHA-1 of its canonical XML form,
// so equal scenarios share a fingerprint no matter how they were built.
// Multi-process sharding deals live work by this value -- every shard
// computes the same partition from the scenario alone, with no coordinator.
std::string ScenarioFingerprint(const Scenario& scenario);

// The fingerprint reduced to a shard assignment in [0, shard_count).
size_t ScenarioShard(const Scenario& scenario, size_t shard_count);

}  // namespace lfi

#endif  // LFI_CORE_SCENARIO_H_
