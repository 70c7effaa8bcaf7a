// GrammarCursor — navigation over val(G) without decompression.
//
// The paper's premise is that SLCF grammars are "queryable without
// decompression" (citing the traversal results of [2,4]); this cursor
// provides that capability: constant-space-per-level navigation over
// the derived tree, maintaining a stack of (rule, node) frames through
// call and parameter boundaries. Down/Up are amortized O(grammar
// depth); the cursor never materializes any part of the tree.
//
// Per-step rule metadata (is-nonterminal, rank, param index, rhs root,
// parameter positions) comes from the version's RuleIndex — dense
// arrays indexed by LabelId instead of the grammar's hash lookups —
// which the cursor shares with every other reader of the version
// (GrammarSnapshot::Cursor()), so creating or copying a cursor costs
// a frame stack and a refcount.
//
// Navigation operates on the binary encoding; element-level helpers
// (FirstChildElement / NextSiblingElement) skip the ⊥ slots.
//
// The cursor observes a snapshot: it must not outlive the grammar and
// must be discarded after any mutation (updates, recompression).

#ifndef SLG_CORE_CURSOR_H_
#define SLG_CORE_CURSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/grammar/rule_index.h"

namespace slg {

class GrammarCursor {
 public:
  // Positions the cursor at the root of val(g), sharing `index`, which
  // must be the RuleIndex of *g. The grammar must be valid and
  // non-empty.
  GrammarCursor(const Grammar* g, std::shared_ptr<const RuleIndex> index);

  // Label of the current derived node.
  LabelId Label() const;
  const std::string& LabelName() const;
  bool IsNull() const { return Label() == kNullLabel; }

  // Number of children of the current derived node (= rank of its
  // label).
  int NumChildren() const;

  // Moves to the i-th (1-based) child. Returns false (and stays put)
  // if the node has fewer than i children.
  bool Down(int i);

  // Moves to the parent. Returns false at the derived root.
  bool Up();

  // Moves to the next / previous sibling. Returns false at the last /
  // first child (or at the root).
  bool Right();
  bool Left();

  bool AtRoot() const;
  void ToRoot();

  // Depth in the derived tree (root = 0). O(1) (maintained).
  int Depth() const { return depth_; }

  // --- binary-XML helpers (rank-2 encodings) ---------------------------

  // First child element of the current element: Down(1), skipping if ⊥.
  bool FirstChildElement();
  // Next sibling element: Down(2) from the current element, skipping ⊥.
  bool NextSiblingElement();
  // Parent *element* (follows next-sibling chains upward).
  bool ParentElement();

 private:
  struct Frame {
    LabelId rule;
    NodeId call;  // call node in this rule whose callee we are inside
  };

  const Tree& RuleTree(LabelId rule) const { return index_->Rhs(rule); }

  // Resolves cur_ (which may sit on a parameter or a call) to a
  // terminal node, adjusting the frame stack.
  void ResolveDown();

  // 1-based index of the current derived node under its derived
  // parent; 0 at the derived root. Does not move the cursor.
  int DerivedChildIndex() const;

  const Grammar* g_;
  std::shared_ptr<const RuleIndex> index_;
  // Stack of enclosing call sites; the current position is node cur_
  // within rule cur_rule_.
  std::vector<Frame> stack_;
  LabelId cur_rule_ = kNoLabel;
  NodeId cur_ = kNilNode;
  int depth_ = 0;
};

}  // namespace slg

#endif  // SLG_CORE_CURSOR_H_
