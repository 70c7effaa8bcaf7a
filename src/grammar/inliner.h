// Rule inlining — the elementary derivation step (paper §II).
//
// Inlining a rule Q -> t_Q at a call node v (labeled Q) replaces v by a
// copy of t_Q in which the j-th parameter node is replaced by v's j-th
// argument subtree (moved, not copied). This is the inverse of digram
// replacement / fragment export and preserves val(G).

#ifndef SLG_GRAMMAR_INLINER_H_
#define SLG_GRAMMAR_INLINER_H_

#include <vector>

#include "src/grammar/grammar.h"
#include "src/tree/label_table.h"
#include "src/tree/tree.h"

namespace slg {

// Replaces `call` in `host` with an instantiated copy of `body`.
// Returns the root of the inlined copy. If `new_calls` is non-null,
// every node of the copied body whose label is a nonterminal of `g` is
// appended to it, in the body's preorder (argument subtrees are NOT
// rescanned: their call nodes existed in `host` before and keep their
// NodeIds).
NodeId InlineCall(const Grammar& g, Tree* host, NodeId call,
                  const Tree& body, std::vector<NodeId>* new_calls = nullptr);

// Convenience: inline g's rule for the label of `call`.
NodeId InlineCall(const Grammar& g, Tree* host, NodeId call,
                  std::vector<NodeId>* new_calls = nullptr);

}  // namespace slg

#endif  // SLG_GRAMMAR_INLINER_H_
