#include "src/update/update_ops.h"

#include <string>
#include <utility>
#include <vector>

#include "src/update/batch.h"
#include "src/update/path_isolation.h"

namespace slg {

int CollectGarbageRules(Grammar* g) {
  std::vector<int32_t> refs(static_cast<size_t>(g->labels().size()), 0);
  g->ForEachRule([&](LabelId, const Tree& rhs) {
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      LabelId l = rhs.label(v);
      if (g->IsNonterminal(l)) ++refs[static_cast<size_t>(l)];
    });
  });
  return RemoveUnreferencedRules(g, std::move(refs));
}

int RemoveUnreferencedRules(Grammar* g, std::vector<int32_t> refs) {
  // Single-pass worklist: when a dead rule is removed, decrement the
  // counts of its callees and enqueue the ones that hit zero. The
  // removed set is the fixpoint of repeated sweeps (the call graph is
  // acyclic), at O(rules + removed bodies).
  std::vector<LabelId> dead;
  for (LabelId r : g->Nonterminals()) {
    if (r != g->start() && refs[static_cast<size_t>(r)] == 0) {
      dead.push_back(r);
    }
  }
  int removed = 0;
  while (!dead.empty()) {
    LabelId r = dead.back();
    dead.pop_back();
    const Tree& rhs = g->rhs(r);
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      LabelId l = rhs.label(v);
      if (g->IsNonterminal(l) && --refs[static_cast<size_t>(l)] == 0 &&
          l != g->start()) {
        dead.push_back(l);
      }
    });
    g->RemoveRule(r);
    ++removed;
  }
  return removed;
}

NodeId RightmostLeaf(const Tree& t, NodeId v) {
  for (;;) {
    NodeId c = t.first_child(v);
    if (c == kNilNode) return v;
    while (t.next_sibling(c) != kNilNode) c = t.next_sibling(c);
    v = c;
  }
}

// The atomic operations are one-op batches (src/update/batch.h): each
// builds a fresh snapshot, applies the single edit, and — for deletes,
// matching the historical contract — garbage-collects immediately.
// Callers applying sequences should hold a BatchUpdater themselves.

Status RenameNode(Grammar* g, int64_t preorder, std::string_view new_label) {
  BatchUpdater batch(g);
  return batch.Rename(preorder, new_label);
}

Status InsertTreeBefore(Grammar* g, int64_t preorder, const Tree& s) {
  BatchUpdater batch(g);
  return batch.InsertBefore(preorder, s);
}

Status DeleteSubtree(Grammar* g, int64_t preorder) {
  BatchUpdater batch(g);
  Status st = batch.Delete(preorder);
  if (!st.ok()) return st;
  batch.Finish();  // drops the snapshot, then garbage-collects
  return Status::Ok();
}

void ApplyInsertToTree(Tree* t, int64_t preorder, const Tree& s) {
  NodeId u = t->AtPreorderIndex(preorder);
  SLG_CHECK(u != kNilNode);
  NodeId copy = t->CopySubtreeFrom(s, s.root());
  NodeId hole = RightmostLeaf(*t, copy);
  SLG_CHECK(t->label(hole) == kNullLabel);
  if (t->label(u) == kNullLabel) {
    t->ReplaceWith(u, copy);
    t->FreeSubtree(u);
    return;
  }
  NodeId after = t->next_sibling(u);
  NodeId parent = t->parent(u);
  t->Detach(u);
  if (parent == kNilNode) {
    t->SetRoot(copy);
  } else if (after != kNilNode) {
    t->InsertBefore(after, copy);
  } else {
    t->AppendChild(parent, copy);
  }
  t->ReplaceWith(hole, u);
  t->FreeSubtree(hole);
}

void ApplyDeleteToTree(Tree* t, int64_t preorder) {
  NodeId u = t->AtPreorderIndex(preorder);
  SLG_CHECK(u != kNilNode && t->label(u) != kNullLabel);
  NodeId ns = t->Child(u, 2);
  t->Detach(ns);
  t->ReplaceWith(u, ns);
  t->FreeSubtree(u);
}

void ApplyRenameToTree(Tree* t, int64_t preorder, LabelId label) {
  NodeId u = t->AtPreorderIndex(preorder);
  SLG_CHECK(u != kNilNode);
  t->set_label(u, label);
}

StatusOr<std::string> ReadLabel(Grammar* g, int64_t preorder) {
  StatusOr<NodeId> u = IsolateNode(g, preorder);
  if (!u.ok()) return u.status();
  return g->labels().Name(g->rhs(g->start()).label(u.value()));
}

}  // namespace slg
