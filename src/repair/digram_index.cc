#include "src/repair/digram_index.h"

#include <algorithm>

namespace slg {

void TreeDigramIndex::Build(const Tree& t) {
  table_.Clear();
  node_head_.clear();
  std::vector<NodeId> order = t.Preorder();
  // Reverse preorder visits children before parents; sibling order is
  // irrelevant for overlap (occurrences overlap only via parent-child
  // sharing).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId v = *it;
    int i = 0;
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      ++i;
      Add(t, v, i);
    }
  }
}

OccId TreeDigramIndex::OccOfNode(NodeId v, DigramId id) const {
  if (static_cast<size_t>(v) >= node_head_.size()) return kNilId;
  for (OccId o = node_head_[static_cast<size_t>(v)]; o != kNilId;
       o = table_.occ(o).nnext) {
    if (table_.occ(o).digram == id) return o;
  }
  return kNilId;
}

void TreeDigramIndex::LinkNode(OccId o) {
  Occ& occ = table_.occ(o);
  size_t v = static_cast<size_t>(occ.parent);
  if (v >= node_head_.size()) node_head_.resize(v + 1, kNilId);
  occ.nprev = kNilId;
  occ.nnext = node_head_[v];
  if (occ.nnext != kNilId) table_.occ(occ.nnext).nprev = o;
  node_head_[v] = o;
}

void TreeDigramIndex::UnlinkNode(OccId o) {
  const Occ& occ = table_.occ(o);
  if (occ.nprev != kNilId) {
    table_.occ(occ.nprev).nnext = occ.nnext;
  } else {
    node_head_[static_cast<size_t>(occ.parent)] = occ.nnext;
  }
  if (occ.nnext != kNilId) table_.occ(occ.nnext).nprev = occ.nprev;
}

void TreeDigramIndex::Add(const Tree& t, NodeId v, int child_index) {
  NodeId w = t.Child(v, child_index);
  LabelId a = t.label(v);
  LabelId b = t.label(w);
  if (labels_->IsParam(a) || labels_->IsParam(b)) return;
  DigramId id = table_.Intern(Digram{a, child_index, b}, *labels_);
  // A node parents at most one occurrence per digram (the child index
  // is part of the key); duplicates are silently ignored.
  if (OccOfNode(v, id) != kNilId) return;
  if (a == b) {
    // Greedy non-overlap: reject if w already parents a stored
    // occurrence, or if v is already the child of one (v's parent p
    // stored and v sits at the digram's child index under p).
    if (OccOfNode(w, id) != kNilId) return;
    NodeId p = t.parent(v);
    if (p != kNilNode && t.label(p) == a) {
      OccId po = OccOfNode(p, id);
      if (po != kNilId && table_.occ(po).child == v) return;
    }
  }
  OccId o = table_.AddOcc(id, 1);
  table_.occ(o).parent = v;
  table_.occ(o).child = w;
  LinkNode(o);
}

void TreeDigramIndex::Remove(const Digram& d, NodeId v) {
  DigramId id = table_.Find(d);
  if (id == kNilId) return;
  OccId o = OccOfNode(v, id);
  if (o == kNilId) return;
  UnlinkNode(o);
  table_.RemoveOcc(o, 1);
}

std::vector<NodeId> TreeDigramIndex::Take(const Digram& d) {
  std::vector<NodeId> out = table_.Take<NodeId>(d, [&](OccId o) {
    UnlinkNode(o);
    return table_.occ(o).parent;
  });
  // Deterministic processing order regardless of insertion order.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace slg
