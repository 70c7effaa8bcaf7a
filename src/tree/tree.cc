#include "src/tree/tree.h"

#include <vector>

namespace slg {

NodeId Tree::NewNode(LabelId label) {
  NodeId v;
  if (!free_list_.empty()) {
    v = free_list_.back();
    free_list_.pop_back();
    nodes_[static_cast<size_t>(v)] = Node{};
  } else {
    v = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[static_cast<size_t>(v)].label = label;
  ++live_count_;
  return v;
}

void Tree::SetRoot(NodeId v) {
  SLG_DCHECK(node(v).parent == kNilNode);
  root_ = v;
}

void Tree::AppendChild(NodeId parent_id, NodeId child) {
  Node& c = node(child);
  SLG_DCHECK(c.parent == kNilNode && child != root_);
  c.parent = parent_id;
  NodeId last = node(parent_id).first_child;
  if (last == kNilNode) {
    node(parent_id).first_child = child;
    return;
  }
  while (node(last).next_sibling != kNilNode) last = node(last).next_sibling;
  node(last).next_sibling = child;
  c.prev_sibling = last;
}

void Tree::InsertBefore(NodeId pos, NodeId child) {
  NodeId p = node(pos).parent;
  SLG_DCHECK(p != kNilNode);
  Node& c = node(child);
  SLG_DCHECK(c.parent == kNilNode);
  c.parent = p;
  NodeId before = node(pos).prev_sibling;
  c.prev_sibling = before;
  c.next_sibling = pos;
  node(pos).prev_sibling = child;
  if (before == kNilNode) {
    node(p).first_child = child;
  } else {
    node(before).next_sibling = child;
  }
}

int Tree::SubtreeSize(NodeId v) const {
  int n = 0;
  VisitPreorder(v, [&n](NodeId) { ++n; });
  return n;
}

void Tree::Detach(NodeId v) {
  Node& n = node(v);
  if (n.parent == kNilNode) {
    if (root_ == v) root_ = kNilNode;
    return;
  }
  Node& p = node(n.parent);
  if (n.prev_sibling != kNilNode) {
    node(n.prev_sibling).next_sibling = n.next_sibling;
  } else {
    p.first_child = n.next_sibling;
  }
  if (n.next_sibling != kNilNode) {
    node(n.next_sibling).prev_sibling = n.prev_sibling;
  }
  n.parent = kNilNode;
  n.prev_sibling = kNilNode;
  n.next_sibling = kNilNode;
}

void Tree::ReplaceWith(NodeId old_node, NodeId replacement) {
  SLG_DCHECK(node(replacement).parent == kNilNode);
  NodeId p = node(old_node).parent;
  if (p == kNilNode) {
    SLG_DCHECK(root_ == old_node);
    Detach(old_node);
    SetRoot(replacement);
    return;
  }
  NodeId after = node(old_node).next_sibling;
  Detach(old_node);
  if (after != kNilNode) {
    InsertBefore(after, replacement);
  } else {
    AppendChild(p, replacement);
  }
}

void Tree::FreeSubtree(NodeId v) {
  SLG_DCHECK(node(v).parent == kNilNode && v != root_);
  // Iterative post-order free via explicit stack.
  std::vector<NodeId> stack = {v};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    for (NodeId c = first_child(cur); c != kNilNode;) {
      NodeId next = next_sibling(c);
      stack.push_back(c);
      c = next;
    }
    Node& n = node(cur);
    n.free = true;
    n.label = kNoLabel;
    n.parent = n.first_child = n.next_sibling = n.prev_sibling = kNilNode;
    free_list_.push_back(cur);
    --live_count_;
  }
}

void Tree::Compact() {
  std::vector<NodeId> id(nodes_.size(), kNilNode);
  std::vector<Node> out;
  out.reserve(static_cast<size_t>(live_count_));
  VisitPreorder(root_, [&](NodeId v) {
    id[static_cast<size_t>(v)] = static_cast<NodeId>(out.size());
    out.push_back(nodes_[static_cast<size_t>(v)]);
  });
  auto remap = [&](NodeId v) {
    return v == kNilNode ? kNilNode : id[static_cast<size_t>(v)];
  };
  for (Node& n : out) {
    n.parent = remap(n.parent);
    n.first_child = remap(n.first_child);
    n.next_sibling = remap(n.next_sibling);
    n.prev_sibling = remap(n.prev_sibling);
  }
  root_ = remap(root_);
  nodes_ = std::move(out);
  free_list_.clear();
  free_list_.shrink_to_fit();
  live_count_ = static_cast<int>(nodes_.size());
}

NodeId Tree::CopySubtreeFrom(const Tree& src, NodeId src_root,
                             std::unordered_map<NodeId, NodeId>* mapping) {
  NodeId dst_root = NewNode(src.label(src_root));
  if (mapping != nullptr) (*mapping)[src_root] = dst_root;
  // Parallel BFS-style queue of (src node, dst parent); per-parent
  // sibling order is preserved because children are enqueued
  // left-to-right and appended in dequeue order.
  std::vector<std::pair<NodeId, NodeId>> queue;
  for (NodeId c = src.first_child(src_root); c != kNilNode;
       c = src.next_sibling(c)) {
    queue.emplace_back(c, dst_root);
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    auto [s, dparent] = queue[i];
    NodeId d = NewNode(src.label(s));
    if (mapping != nullptr) (*mapping)[s] = d;
    AppendChild(dparent, d);
    for (NodeId c = src.first_child(s); c != kNilNode;
         c = src.next_sibling(c)) {
      queue.emplace_back(c, d);
    }
  }
  return dst_root;
}

std::vector<NodeId> Tree::Preorder(NodeId v) const {
  std::vector<NodeId> out;
  if (v == kNilNode) v = root_;
  if (v == kNilNode) return out;
  VisitPreorder(v, [&out](NodeId n) { out.push_back(n); });
  return out;
}

int Tree::PreorderIndexOf(NodeId v) const {
  int idx = 0;
  int found = -1;
  VisitPreorder(root_, [&](NodeId n) {
    ++idx;
    if (n == v && found < 0) found = idx;
  });
  SLG_CHECK_MSG(found > 0, "node not reachable from root");
  return found;
}

NodeId Tree::AtPreorderIndex(int64_t n) const {
  int64_t idx = 0;
  NodeId found = kNilNode;
  VisitPreorder(root_, [&](NodeId v) {
    ++idx;
    if (idx == n && found == kNilNode) found = v;
  });
  return found;
}

bool Tree::CheckConsistency() const {
  int reachable = 0;
  bool ok = true;
  if (root_ != kNilNode) {
    if (nodes_[static_cast<size_t>(root_)].parent != kNilNode) return false;
    VisitPreorder(root_, [&](NodeId v) {
      ++reachable;
      int prev_index = 0;
      for (NodeId c = first_child(v); c != kNilNode; c = next_sibling(c)) {
        if (parent(c) != v) ok = false;
        if (prev_sibling(c) == kNilNode) {
          if (first_child(v) != c) ok = false;
        } else if (next_sibling(prev_sibling(c)) != c) {
          ok = false;
        }
        ++prev_index;
      }
    });
  }
  return ok && reachable == live_count_;
}

}  // namespace slg
