// Arena-based ranked labeled ordered tree.
//
// Nodes live in a free-listed arena owned by the Tree; a NodeId is an
// index into that arena and stays valid until the node is freed. The
// child list is a doubly-linked sibling chain (first_child /
// next_sibling / prev_sibling), which gives O(1) splice operations —
// the workhorse of digram replacement and rule inlining — without any
// per-node heap allocation. Child ranks in this library are small
// (binary XML terminals have rank 2, digram nonterminals at most kin),
// so the O(rank) child-walk accessors are effectively constant time.
//
// A Tree is used both for full documents and for the right-hand sides
// of grammar rules.

#ifndef SLG_TREE_TREE_H_
#define SLG_TREE_TREE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/tree/label_table.h"

namespace slg {

using NodeId = int32_t;
inline constexpr NodeId kNilNode = -1;

class Tree {
 public:
  Tree() = default;

  Tree(const Tree&) = default;
  Tree& operator=(const Tree&) = default;
  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;

  // --- Construction -------------------------------------------------

  // Allocates a detached node with the given label.
  NodeId NewNode(LabelId label);

  // Makes `v` (which must be detached) the root.
  void SetRoot(NodeId v);

  // Appends `child` (detached) as the last child of `parent`.
  void AppendChild(NodeId parent, NodeId child);

  // Inserts `child` (detached) immediately before sibling `pos` (which
  // must have a parent).
  void InsertBefore(NodeId pos, NodeId child);

  // --- Accessors ------------------------------------------------------

  NodeId root() const { return root_; }
  bool empty() const { return root_ == kNilNode; }

  LabelId label(NodeId v) const { return node(v).label; }
  void set_label(NodeId v, LabelId l) { node(v).label = l; }

  NodeId parent(NodeId v) const { return node(v).parent; }
  NodeId first_child(NodeId v) const { return node(v).first_child; }
  NodeId next_sibling(NodeId v) const { return node(v).next_sibling; }
  NodeId prev_sibling(NodeId v) const { return node(v).prev_sibling; }

  // i-th child, 1-based (the paper's convention). O(1) for the first
  // two slots (the whole binary-XML encoding); walks the chain beyond.
  NodeId Child(NodeId v, int i) const;

  // 1-based index of v in its parent's child list.
  int ChildIndex(NodeId v) const;

  int NumChildren(NodeId v) const;

  // Number of live (allocated, not freed) nodes.
  int LiveCount() const { return live_count_; }

  // Number of nodes in the subtree rooted at v.
  int SubtreeSize(NodeId v) const;

  // --- Structural editing ----------------------------------------------

  // Detaches v from its parent (or from the root slot). v keeps its
  // subtree and becomes a floating root.
  void Detach(NodeId v);

  // Splices `replacement` (detached) into the position currently held
  // by `old_node`; `old_node` becomes detached (subtree intact).
  void ReplaceWith(NodeId old_node, NodeId replacement);

  // Frees v and its entire subtree. v must be detached.
  void FreeSubtree(NodeId v);

  // Renumbers the nodes reachable from the root in preorder (root 0)
  // and drops every other slot. Edits leave freed slots behind (a
  // repaired document's start rule keeps about one live node in ten),
  // and every NodeId-indexed table and walk over the tree pays for the
  // holes; after Compact() the arena holds exactly the tree, laid out
  // in the order walks visit it. Invalidates all NodeIds.
  void Compact();

  // Detaches and frees in one step.
  void DetachAndFree(NodeId v) {
    Detach(v);
    FreeSubtree(v);
  }

  // Copies the subtree rooted at src_root in src into this tree;
  // returns the detached copy's root. If `mapping` is non-null it
  // receives src NodeId -> copy NodeId for every copied node.
  NodeId CopySubtreeFrom(const Tree& src, NodeId src_root,
                         std::unordered_map<NodeId, NodeId>* mapping = nullptr);

  // --- Traversal --------------------------------------------------------

  // All nodes of the subtree rooted at v (default: whole tree) in
  // preorder.
  std::vector<NodeId> Preorder(NodeId v = kNilNode) const;

  // Preorder position (1-based, the paper's (R, n) convention) of v
  // within the whole tree.
  int PreorderIndexOf(NodeId v) const;

  // Node at 1-based preorder position n, or kNilNode if out of range.
  // Takes int64_t because callers address positions in val(G), whose
  // preorder space outgrows int even when this tree itself does not.
  NodeId AtPreorderIndex(int64_t n) const;

  // Calls fn(NodeId) for every node of the subtree rooted at v in
  // preorder, without materializing a vector.
  template <typename Fn>
  void VisitPreorder(NodeId v, Fn&& fn) const {
    if (v == kNilNode) return;
    NodeId cur = v;
    for (;;) {
      fn(cur);
      if (first_child(cur) != kNilNode) {
        cur = first_child(cur);
        continue;
      }
      while (cur != v && next_sibling(cur) == kNilNode) cur = parent(cur);
      if (cur == v) return;
      cur = next_sibling(cur);
    }
  }

  // Verifies arena/link invariants (parent/child/sibling consistency,
  // live count). Used by tests; O(n).
  bool CheckConsistency() const;

 private:
  struct Node {
    LabelId label = kNoLabel;
    NodeId parent = kNilNode;
    NodeId first_child = kNilNode;
    NodeId next_sibling = kNilNode;
    NodeId prev_sibling = kNilNode;
    bool free = false;
  };

  Node& node(NodeId v) {
    SLG_DCHECK(v >= 0 && v < static_cast<NodeId>(nodes_.size()));
    SLG_DCHECK(!nodes_[static_cast<size_t>(v)].free);
    return nodes_[static_cast<size_t>(v)];
  }
  const Node& node(NodeId v) const {
    return const_cast<Tree*>(this)->node(v);
  }

  NodeId root_ = kNilNode;
  std::vector<Node> nodes_;
  std::vector<NodeId> free_list_;
  int live_count_ = 0;
};

// Child/ChildIndex/NumChildren are inline: they sit on the cursor and
// digram-replacement hot paths, and ranks here are tiny (binary XML
// terminals have rank 2, digram nonterminals at most kin), so the
// call overhead would dominate the walk.

inline NodeId Tree::Child(NodeId v, int i) const {
  SLG_DCHECK(i >= 1);
  // Two-slot fast path: i is 1 or 2 for every label of the rank-2
  // binary encoding, each a single link load.
  NodeId c = node(v).first_child;
  if (i == 1 || c == kNilNode) return c;
  c = node(c).next_sibling;
  for (int k = 2; k < i && c != kNilNode; ++k) c = node(c).next_sibling;
  return c;
}

inline int Tree::ChildIndex(NodeId v) const {
  int i = 1;
  for (NodeId s = prev_sibling(v); s != kNilNode; s = prev_sibling(s)) ++i;
  return i;
}

inline int Tree::NumChildren(NodeId v) const {
  int n = 0;
  for (NodeId c = first_child(v); c != kNilNode; c = next_sibling(c)) ++n;
  return n;
}

}  // namespace slg

#endif  // SLG_TREE_TREE_H_
