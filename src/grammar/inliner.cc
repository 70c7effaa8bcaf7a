#include "src/grammar/inliner.h"

#include <vector>

namespace slg {

NodeId InlineCall(const Grammar& g, Tree* host, NodeId call,
                  const Tree& body, std::vector<NodeId>* new_calls) {
  const LabelTable& labels = g.labels();

  // Detach the argument subtrees (1-based by parameter index).
  std::vector<NodeId> args;
  for (NodeId c = host->first_child(call); c != kNilNode;) {
    NodeId next = host->next_sibling(c);
    args.push_back(c);
    c = next;
  }
  for (NodeId a : args) host->Detach(a);

  // Copy the body into the host, splicing args at parameter nodes.
  // Work items: (body node, host parent). A kNilNode parent marks the
  // body root.
  struct Work {
    NodeId body_node;
    NodeId host_parent;
  };
  NodeId copy_root = kNilNode;
  std::vector<Work> stack = {{body.root(), kNilNode}};
  while (!stack.empty()) {
    Work w = stack.back();
    stack.pop_back();
    LabelId l = body.label(w.body_node);
    int pidx = labels.ParamIndex(l);
    if (pidx > 0) {
      SLG_CHECK_MSG(pidx <= static_cast<int>(args.size()),
                    "call has fewer arguments than rule parameters");
      NodeId arg = args[static_cast<size_t>(pidx - 1)];
      SLG_CHECK(w.host_parent != kNilNode);  // body root is never a param
      host->AppendChild(w.host_parent, arg);
      continue;
    }
    NodeId d = host->NewNode(l);
    if (w.host_parent == kNilNode) {
      copy_root = d;
    } else {
      host->AppendChild(w.host_parent, d);
    }
    if (new_calls != nullptr && g.IsNonterminal(l)) new_calls->push_back(d);
    // Push children in reverse so they are appended in order.
    std::vector<NodeId> kids;
    for (NodeId c = body.first_child(w.body_node); c != kNilNode;
         c = body.next_sibling(c)) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, d});
    }
  }
  SLG_CHECK(copy_root != kNilNode);
  host->ReplaceWith(call, copy_root);
  host->FreeSubtree(call);
  return copy_root;
}

NodeId InlineCall(const Grammar& g, Tree* host, NodeId call,
                  std::vector<NodeId>* new_calls) {
  LabelId q = host->label(call);
  SLG_CHECK_MSG(g.HasRule(q), "inlining a label that has no rule");
  return InlineCall(g, host, call, g.rhs(q), new_calls);
}

}  // namespace slg
