#include "core/scenario.h"

#include <cstdlib>
#include <stdexcept>

#include "util/errno_codes.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace lfi {

std::unique_ptr<XmlNode> CloneXml(const XmlNode& node) {
  auto copy = std::make_unique<XmlNode>(node.name());
  copy->set_text(node.text());
  for (const auto& [k, v] : node.attrs()) {
    copy->SetAttr(k, v);
  }
  for (const auto& child : node.children()) {
    copy->children_ref().push_back(CloneXml(*child));
  }
  return copy;
}

TriggerDecl::TriggerDecl(std::string id, std::string class_name,
                         std::shared_ptr<const XmlNode> args)
    : id(std::move(id)), class_name(std::move(class_name)) {
  set_args(std::move(args));
}

void TriggerDecl::set_args(std::shared_ptr<const XmlNode> args) {
  args_ = std::move(args);
  args_xml_ = args_ == nullptr ? std::string() : args_->ToString();
}

const TriggerDecl* Scenario::FindTrigger(const std::string& id) const {
  for (const auto& t : triggers_) {
    if (t.id == id) {
      return &t;
    }
  }
  return nullptr;
}

std::string Scenario::ToXml() const {
  XmlDocument doc("scenario");
  WriteXmlInto(doc.root());
  return doc.ToString();
}

void Scenario::AppendXml(XmlNode* parent) const {
  WriteXmlInto(parent->AddChild("scenario"));
}

void Scenario::WriteXmlInto(XmlNode* root) const {
  for (const auto& t : triggers_) {
    XmlNode* node = root->AddChild("trigger");
    node->SetAttr("id", t.id);
    node->SetAttr("class", t.class_name);
    if (t.args() != nullptr) {
      node->children_ref().push_back(CloneXml(*t.args()));
    }
  }
  for (const auto& f : functions_) {
    XmlNode* node = root->AddChild("function");
    node->SetAttr("name", f.function);
    if (f.argc > 0) {
      node->SetAttr("argc", StrFormat("%d", f.argc));
    }
    if (f.unused) {
      node->SetAttr("return", "unused");
      node->SetAttr("errno", "unused");
    } else {
      node->SetAttr("return", StrFormat("%lld", static_cast<long long>(f.retval)));
      if (f.errno_value != 0) {
        node->SetAttr("errno", ErrnoName(f.errno_value));
      }
    }
    for (const auto& ref : f.triggers) {
      XmlNode* r = node->AddChild("reftrigger");
      r->SetAttr("ref", ref.ref);
      if (ref.negate) {
        r->SetAttr("negate", "true");
      }
    }
  }
}

std::optional<Scenario> Scenario::Parse(const std::string& xml, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<Scenario> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };

  XmlError xml_error;
  auto doc = XmlParse(xml, &xml_error);
  if (!doc) {
    return fail(StrFormat("XML parse error at line %d: %s", xml_error.line,
                          xml_error.message.c_str()));
  }
  const XmlNode* root = doc->root();
  if (root == nullptr || (root->name() != "scenario" && root->name() != "plan")) {
    return fail("scenario root element must be <scenario>");
  }
  return FromNode(*root, error);
}

std::optional<Scenario> Scenario::FromNode(const XmlNode& node, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<Scenario> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };

  Scenario scenario;
  for (const auto& child : node.children()) {
    if (child->name() == "trigger") {
      TriggerDecl decl;
      decl.id = child->AttrOr("id", "");
      decl.class_name = child->AttrOr("class", "");
      if (decl.id.empty() || decl.class_name.empty()) {
        return fail("<trigger> requires id and class attributes");
      }
      if (scenario.FindTrigger(decl.id) != nullptr) {
        return fail("duplicate trigger id '" + decl.id + "'");
      }
      if (const XmlNode* args = child->Child("args")) {
        decl.set_args(CloneXml(*args));
      }
      scenario.AddTrigger(std::move(decl));
    } else if (child->name() == "function") {
      FunctionAssoc assoc;
      assoc.function = child->AttrOr("name", "");
      if (assoc.function.empty()) {
        return fail("<function> requires a name attribute");
      }
      assoc.argc = static_cast<int>(child->IntAttr("argc").value_or(0));
      std::string ret = child->AttrOr("return", child->AttrOr("retval", "unused"));
      if (ret == "unused") {
        assoc.unused = true;
      } else {
        auto v = ParseInt(ret);
        if (!v) {
          return fail("bad return value '" + ret + "' for " + assoc.function);
        }
        assoc.retval = *v;
        std::string err = child->AttrOr("errno", "");
        if (!err.empty() && err != "unused") {
          auto e = ErrnoFromName(err);
          if (!e) {
            return fail("unknown errno '" + err + "' for " + assoc.function);
          }
          assoc.errno_value = *e;
        }
      }
      for (const XmlNode* ref : child->Children("reftrigger")) {
        TriggerRef trigger_ref;
        trigger_ref.ref = ref->AttrOr("ref", "");
        if (trigger_ref.ref.empty()) {
          return fail("<reftrigger> requires a ref attribute");
        }
        trigger_ref.negate = ref->AttrOr("negate", "false") == "true";
        assoc.triggers.push_back(std::move(trigger_ref));
      }
      scenario.AddFunction(std::move(assoc));
    }
    // Unknown elements are ignored for forward compatibility.
  }

  // Validate references.
  for (const auto& f : scenario.functions()) {
    for (const auto& ref : f.triggers) {
      if (scenario.FindTrigger(ref.ref) == nullptr) {
        return fail("function " + f.function + " references undeclared trigger '" + ref.ref +
                    "'");
      }
    }
  }
  return scenario;
}

std::string ScenarioFingerprint(const Scenario& scenario) {
  // The dedup/shard-dealing hot path: stream the canonical document bytes
  // straight into the digest instead of materializing the XML string per
  // scenario. Byte-equality with Sha1::HexDigest(scenario.ToXml()) is
  // guaranteed by sharing the one serializer (XmlNode::Write), and pinned by
  // ScenarioTest.FingerprintMatchesMaterializedXml.
  XmlDocument doc("scenario");
  scenario.WriteXmlInto(doc.root());
  Sha1 sha;
  doc.Write([&sha](std::string_view chunk) { sha.Update(chunk); });
  return Sha1::ToHex(sha.Finish());
}

size_t ScenarioShard(const Scenario& scenario, size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("ScenarioShard: shard_count must be > 0");
  }
  // The leading 16 hex digits are 64 uniformly distributed bits; taking them
  // through strtoull keeps the assignment stable across builds and standard
  // libraries (std::hash would not be).
  std::string fingerprint = ScenarioFingerprint(scenario);
  uint64_t bits = std::strtoull(fingerprint.substr(0, 16).c_str(), nullptr, 16);
  return static_cast<size_t>(bits % shard_count);
}

}  // namespace lfi
