#include "src/core/tree_links.h"

#include "src/grammar/orders.h"

namespace slg {

RuleNode TreeChildOf(const Grammar& g, RuleNode rn) {
  LabelId rule = rn.rule;
  NodeId node = rn.node;
  // Algorithm 2: while the node is a nonterminal, descend to the root
  // of its rule.
  for (;;) {
    LabelId l = g.rhs(rule).label(node);
    if (!g.IsNonterminal(l)) return RuleNode{rule, node};
    rule = l;
    node = g.rhs(rule).root();
  }
}

NodeId FindParamNode(const Tree& t, const LabelTable& labels, int index) {
  const NodeId root = t.root();
  NodeId v = root;
  for (;;) {
    if (labels.ParamIndex(t.label(v)) == index) return v;
    if (t.first_child(v) != kNilNode) {
      v = t.first_child(v);
      continue;
    }
    while (v != root && t.next_sibling(v) == kNilNode) v = t.parent(v);
    SLG_CHECK_MSG(v != root, "rule does not contain the parameter");
    v = t.next_sibling(v);
  }
}

NodeId FindParamNode(const Grammar& g, LabelId r, int index) {
  return FindParamNode(g.rhs(r), g.labels(), index);
}

TreeParentResult TreeParentOf(const Grammar& g, RuleNode rn) {
  LabelId rule = rn.rule;
  NodeId node = rn.node;
  // Algorithm 3: while the parent within the current rule is a
  // nonterminal P (the node is plugged into P's i-th parameter),
  // continue from P's parameter node y_i inside t_P.
  for (;;) {
    const Tree& t = g.rhs(rule);
    NodeId p = t.parent(node);
    SLG_CHECK_MSG(p != kNilNode, "TreeParentOf called on a rule root");
    LabelId pl = t.label(p);
    if (!g.IsNonterminal(pl)) {
      return TreeParentResult{RuleNode{rule, p}, t.ChildIndex(node)};
    }
    int i = t.ChildIndex(node);
    rule = pl;
    node = FindParamNode(g, rule, i);
  }
}

std::unordered_map<LabelId, RuleInterface> ComputeInterfaces(
    const Grammar& g) {
  std::unordered_map<LabelId, RuleInterface> out;
  const LabelTable& labels = g.labels();
  // Anti-SL order: callee interfaces are final before callers need them.
  for (LabelId r : AntiSlOrder(g)) {
    const Tree& t = g.rhs(r);
    RuleInterface iface;
    LabelId root_label = t.label(t.root());
    iface.root_label =
        g.IsNonterminal(root_label) ? out[root_label].root_label : root_label;
    int rank = labels.Rank(r);
    iface.param_parent.resize(static_cast<size_t>(rank));
    t.VisitPreorder(t.root(), [&](NodeId v) {
      int pidx = labels.ParamIndex(t.label(v));
      if (pidx == 0) return;
      NodeId p = t.parent(v);
      LabelId pl = t.label(p);
      int i = t.ChildIndex(v);
      if (g.IsNonterminal(pl)) {
        iface.param_parent[static_cast<size_t>(pidx - 1)] =
            out[pl].param_parent[static_cast<size_t>(i - 1)];
      } else {
        iface.param_parent[static_cast<size_t>(pidx - 1)] = {pl, i};
      }
    });
    out[r] = std::move(iface);
  }
  return out;
}

}  // namespace slg
