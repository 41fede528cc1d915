#include "ftp/openpsa_writer.h"

#include <unordered_map>
#include <unordered_set>

#include "core/error.h"
#include "core/strings.h"

namespace ftsynth {

namespace {

/// Document-wide gate names. Gate names are only unique per tree (the
/// synthesiser numbers "G<n>" afresh in every tree), but a MEF document
/// has one gate namespace, so a gate whose name an earlier tree already
/// took is qualified with its tree's name. A single-tree document keeps
/// every name as it is.
class GateNames {
 public:
  /// Names every gate of `tree`, plus the wrapper gate a leaf or empty top
  /// needs (looked up under the null node).
  void name_tree(const FaultTree& tree) {
    names_.clear();
    const FtNode* top = tree.top();
    if (top == nullptr || top->is_leaf()) {
      names_.emplace(nullptr, claim("top", tree.name()));
      return;
    }
    names_.emplace(top, claim(std::string(top->name().view()), tree.name()));
    tree.for_each_reachable([&](const FtNode& node) {
      if (node.kind() != NodeKind::kGate || &node == top) return;
      names_.emplace(&node,
                     claim(std::string(node.name().view()), tree.name()));
    });
  }

  /// The escaped document name of a gate of the current tree (null: the
  /// wrapper gate).
  const std::string& operator[](const FtNode* gate) const {
    return names_.at(gate);
  }

 private:
  std::string claim(const std::string& name, const std::string& tree) {
    if (used_.insert(name).second) return escape_xml(name);
    std::string chosen = tree + "." + name;
    for (int n = 2; !used_.insert(chosen).second; ++n)
      chosen = tree + "." + name + "." + std::to_string(n);
    return escape_xml(chosen);
  }

  std::unordered_set<std::string> used_;
  std::unordered_map<const FtNode*, std::string> names_;
};

/// Reference to `node` inside a gate formula. Leaves are referenced as
/// basic/house events; gates by their document-wide name.
void write_reference(const FtNode& node, const GateNames& gates,
                     std::string& out, const std::string& indent) {
  if (node.kind() == NodeKind::kGate) {
    out += indent + "<gate name=\"" + gates[&node] + "\"/>\n";
    return;
  }
  const std::string name = escape_xml(node.name().view());
  switch (node.kind()) {
    case NodeKind::kHouse:
      out += indent + "<house-event name=\"" + name + "\"/>\n";
      return;
    default:
      out += indent + "<basic-event name=\"" + name + "\"/>\n";
      return;
  }
}

void write_formula(const FtNode& gate, const GateNames& gates,
                   std::string& out) {
  const char* connective = nullptr;
  switch (gate.gate()) {
    case GateKind::kAnd:
      connective = "and";
      break;
    case GateKind::kOr:
      connective = "or";
      break;
    case GateKind::kNot:
      connective = "not";
      break;
    case GateKind::kPand:
      // The MEF has no ordered conjunction; exporting kPand as <and>
      // would silently drop the ordering semantics.
      throw Error(ErrorKind::kAnalysis,
                  "cannot export Priority-AND gate '" +
                      std::string(gate.name().view()) + "' to Open-PSA");
  }
  out += "      <" + std::string(connective) + ">\n";
  for (const FtNode* child : gate.children())
    write_reference(*child, gates, out, "        ");
  out += "      </" + std::string(connective) + ">\n";
}

void write_gate(const FtNode& gate, const std::string& label,
                const GateNames& gates, std::string& out) {
  out += "    <define-gate name=\"" + gates[&gate] + "\">\n";
  if (!label.empty())
    out += "      <label>" + escape_xml(label) + "</label>\n";
  write_formula(gate, gates, out);
  out += "    </define-gate>\n";
}

void write_fault_tree(const FaultTree& tree, GateNames& gates,
                      std::string& out) {
  out += "  <define-fault-tree name=\"" + escape_xml(tree.name()) + "\">\n";
  gates.name_tree(tree);
  const FtNode* top = tree.top();
  if (top == nullptr) {
    // Impossible top: a constant-false root gate imports back to the
    // null-top convention (probability 0).
    out += "    <define-gate name=\"" + gates[nullptr] + "\">\n";
    if (!tree.top_description().empty()) {
      out += "      <label>" + escape_xml(tree.top_description()) +
             "</label>\n";
    }
    out += "      <bool value=\"false\"/>\n";
    out += "    </define-gate>\n";
    out += "  </define-fault-tree>\n";
    return;
  }
  if (top->is_leaf()) {
    // A bare-leaf top needs a wrapper gate; single-operand connectives
    // collapse on import, so the wrapper leaves no structural trace.
    out += "    <define-gate name=\"" + gates[nullptr] + "\">\n";
    if (!tree.top_description().empty()) {
      out += "      <label>" + escape_xml(tree.top_description()) +
             "</label>\n";
    }
    out += "      <and>\n";
    write_reference(*top, gates, out, "        ");
    out += "      </and>\n";
    out += "    </define-gate>\n";
    out += "  </define-fault-tree>\n";
    return;
  }
  // Root gate first (it carries the top description as its label), then
  // the other gates children-before-parents.
  write_gate(*top, tree.top_description(), gates, out);
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.kind() != NodeKind::kGate || &node == top) return;
    write_gate(node, node.description(), gates, out);
  });
  out += "  </define-fault-tree>\n";
}

void write_leaf_definition(const FtNode& leaf, std::string& out) {
  const std::string name = escape_xml(leaf.name().view());
  if (leaf.kind() == NodeKind::kHouse) {
    out += "    <define-house-event name=\"" + name + "\">\n";
    if (!leaf.description().empty())
      out += "      <label>" + escape_xml(leaf.description()) + "</label>\n";
    out += "      <constant value=\"true\"/>\n";
    out += "    </define-house-event>\n";
    return;
  }
  out += "    <define-basic-event name=\"" + name + "\">\n";
  if (!leaf.description().empty())
    out += "      <label>" + escape_xml(leaf.description()) + "</label>\n";
  if (leaf.kind() == NodeKind::kUndeveloped || leaf.kind() == NodeKind::kLoop) {
    out += "      <attributes>\n";
    out += std::string("        <attribute name=\"ftsynth-kind\" value=\"") +
           (leaf.kind() == NodeKind::kUndeveloped ? "undeveloped" : "loop") +
           "\"/>\n";
    out += "      </attributes>\n";
  }
  if (leaf.has_fixed_probability()) {
    out += "      <float value=\"" + format_double(leaf.fixed_probability()) +
           "\"/>\n";
  }
  if (leaf.rate() > 0.0) {
    out += "      <exponential>\n";
    out += "        <float value=\"" + format_double(leaf.rate()) + "\"/>\n";
    out += "        <system-mission-time/>\n";
    out += "      </exponential>\n";
  }
  out += "    </define-basic-event>\n";
}

}  // namespace

std::string write_openpsa(const std::vector<const FaultTree*>& trees) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  std::string name = trees.size() == 1 ? trees.front()->name() : "ftsynth";
  out += "<opsa-mef name=\"" + escape_xml(name) + "\">\n";
  GateNames gates;
  for (const FaultTree* tree : trees) write_fault_tree(*tree, gates, out);
  // Leaf definitions, deduplicated by name across trees (equal names are
  // the cross-tree common-cause convention and must stay one definition).
  out += "  <model-data>\n";
  std::unordered_set<Symbol> defined;
  for (const FaultTree* tree : trees) {
    tree->for_each_reachable([&](const FtNode& node) {
      if (node.kind() == NodeKind::kGate) return;
      if (!defined.insert(node.name()).second) return;
      write_leaf_definition(node, out);
    });
  }
  out += "  </model-data>\n";
  out += "</opsa-mef>\n";
  return out;
}

std::string write_openpsa(const FaultTree& tree) {
  return write_openpsa(std::vector<const FaultTree*>{&tree});
}

}  // namespace ftsynth
