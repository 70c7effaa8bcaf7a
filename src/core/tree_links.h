// TREECHILD / TREEPARENT (paper Algorithms 2 and 3) and rule interface
// signatures.
//
// In an SLCF grammar, the two terminal endpoints of a digram occurrence
// generated at node (C, n) may live in other rules: the tree child is
// found by descending through rule roots while the label is a
// nonterminal, the tree parent by ascending into the rules whose
// parameters the node is plugged into. A label counts as a nonterminal
// here iff the *grammar currently has a rule for it*; the pending
// digram nonterminals X of a GrammarRePair run are not yet rules and
// therefore behave as terminals, exactly as the paper prescribes
// ("F := F ∪ X").

#ifndef SLG_CORE_TREE_LINKS_H_
#define SLG_CORE_TREE_LINKS_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "src/grammar/grammar.h"

namespace slg {

// TREECHILD: the terminal node corresponding to (rule, node), reached
// by descending through rule roots.
RuleNode TreeChildOf(const Grammar& g, RuleNode rn);

struct TreeParentResult {
  RuleNode parent;  // terminal node
  int child_index;  // i: the occurrence is (parent, i, child)
};

// TREEPARENT: the terminal tree parent of (rule, node) plus the child
// index. `node` must not be the root of its rule.
TreeParentResult TreeParentOf(const Grammar& g, RuleNode rn);

// Locates the parameter node y<index> in `t`, a rule body over
// `labels`: a preorder walk that stops at the parameter.
NodeId FindParamNode(const Tree& t, const LabelTable& labels, int index);

// The same in rule r's right-hand side.
NodeId FindParamNode(const Grammar& g, LabelId r, int index);

// "Interface" of a rule as seen from digram scans in other rules: the
// terminal label its root derives, and for each parameter the terminal
// (label, child index) of the parameter's eventual parent. Digram
// occurrences in a rule C depend only on t_C plus the interfaces of
// the rules C (transitively) calls, so a rule needs rescanning iff its
// own tree changed or some callee's interface changed — the basis of
// the incremental counting mode.
struct RuleInterface {
  LabelId root_label = kNoLabel;
  std::vector<std::pair<LabelId, int>> param_parent;

  bool operator==(const RuleInterface& o) const {
    return root_label == o.root_label && param_parent == o.param_parent;
  }
};

std::unordered_map<LabelId, RuleInterface> ComputeInterfaces(const Grammar& g);

}  // namespace slg

#endif  // SLG_CORE_TREE_LINKS_H_
