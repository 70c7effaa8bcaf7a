#include "src/grammar/rule_meta.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/grammar/orders.h"
#include "src/grammar/value.h"

namespace slg {

void RuleMeta::AppendLabels(const LabelTable& labels) {
  for (size_t l = rank_.size(); l < static_cast<size_t>(labels.size()); ++l) {
    LabelId id = static_cast<LabelId>(l);
    rank_.push_back(labels.Rank(id));
    param_index_.push_back(labels.ParamIndex(id));
    rhs_.push_back(nullptr);
    rhs_root_.push_back(kNilNode);
    param_offset_.push_back(-1);
    seg_offset_.push_back(-1);
    // Terminals derive exactly their own node; parameters derive
    // nothing of their rule's value.
    seg_total_.push_back(labels.ParamIndex(id) > 0 ? 0 : 1);
    outer_refs_.push_back(0);
  }
}

void RuleMeta::CountCalls(const Tree& t, int32_t delta) {
  t.VisitPreorder(t.root(), [&](NodeId v) {
    LabelId l = t.label(v);
    if (IsNonterminal(l)) outer_refs_[static_cast<size_t>(l)] += delta;
  });
}

void RuleMeta::ExtendForNewLabels(const Grammar& g) {
  for (LabelId l = num_labels(); l < g.labels().size(); ++l) {
    SLG_CHECK_MSG(!g.HasRule(l),
                  "ExtendForNewLabels: new label has a rule; rebuild instead");
  }
  AppendLabels(g.labels());
}

void RuleMeta::SetRule(LabelId lhs, const Tree& rhs) {
  size_t l = static_cast<size_t>(lhs);
  rhs_[l] = &rhs;
  rhs_root_[l] = rhs.root();
  if (param_offset_[l] < 0) {
    param_offset_[l] = static_cast<int32_t>(param_nodes_.size());
    param_nodes_.resize(param_nodes_.size() + static_cast<size_t>(rank_[l]),
                        kNilNode);
  }
  if (rank_[l] == 0) return;  // no parameters to find
  rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
    int pidx = param_index_[static_cast<size_t>(rhs.label(v))];
    if (pidx > 0) {
      param_nodes_[static_cast<size_t>(param_offset_[l] + pidx - 1)] = v;
    }
  });
}

RuleMeta RuleMeta::Build(const Grammar& g, bool with_sizes) {
  RuleMeta m;
  m.start_ = g.start();
  m.AppendLabels(g.labels());
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) { m.SetRule(lhs, rhs); });
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    if (lhs != m.start_) m.CountCalls(rhs, +1);
  });
  if (!with_sizes) return m;
  // Anti-SL order guarantees callees precede callers.
  for (LabelId a : AntiSlOrder(g)) m.ComputeSizes(a);
  return m;
}

RuleMeta RuleMeta::Derive(const RuleMeta& parent, const Grammar& g,
                          const std::vector<LabelId>& rebuilt,
                          const std::vector<LabelId>& removed,
                          const std::vector<int64_t>& start_sizes) {
  RuleMeta m = parent;
  m.AppendLabels(g.labels());
  // Outer call counts: drop the parent's bodies of the dropped and
  // rebuilt rules, then count the rebuilt rules' new bodies.
  const bool same_start = g.start() == parent.start_;
  if (same_start) {
    for (const std::vector<LabelId>* rules : {&removed, &rebuilt}) {
      for (LabelId r : *rules) {
        if (r != parent.start_ && r < parent.num_labels() &&
            parent.IsNonterminal(r)) {
          m.CountCalls(parent.Rhs(r), -1);
        }
      }
    }
  }
  for (LabelId r : removed) {
    size_t l = static_cast<size_t>(r);
    m.rhs_[l] = nullptr;
    m.rhs_root_[l] = kNilNode;
    m.param_offset_[l] = -1;
    m.seg_offset_[l] = -1;
    m.seg_total_[l] = m.param_index_[l] > 0 ? 0 : 1;
    m.outer_refs_[l] = 0;
  }
  for (LabelId r : rebuilt) m.SetRule(r, g.rhs(r));
  m.start_ = g.start();
  if (same_start) {
    for (LabelId r : rebuilt) {
      if (r != m.start_) m.CountCalls(g.rhs(r), +1);
    }
  } else {
    std::fill(m.outer_refs_.begin(), m.outer_refs_.end(), 0);
    g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
      if (lhs != m.start_) m.CountCalls(rhs, +1);
    });
  }
  for (LabelId r : rebuilt) {
    size_t l = static_cast<size_t>(r);
    if (r == g.start() && m.rank_[l] == 0 && !start_sizes.empty()) {
      // One segment: everything the body derives.
      if (m.seg_offset_[l] < 0) {
        m.seg_offset_[l] = static_cast<int32_t>(m.seg_sizes_.size());
        m.seg_sizes_.push_back(0);
      }
      int64_t total = start_sizes[static_cast<size_t>(m.rhs_root_[l])];
      m.seg_sizes_[static_cast<size_t>(m.seg_offset_[l])] = total;
      m.seg_total_[l] = total;
      continue;
    }
    m.ComputeSizes(r);
  }
  return m;
}

void RuleMeta::ComputeSizes(LabelId a) {
  // Parameter-segment sizes (paper §III-A): one preorder walk of the
  // rhs accumulating into the segment of the last parameter seen,
  // reading callee segments from the already-filled flat arrays.
  size_t la = static_cast<size_t>(a);
  const Tree& t = *rhs_[la];
  int rank = rank_[la];
  if (seg_offset_[la] < 0) {
    seg_offset_[la] = static_cast<int32_t>(seg_sizes_.size());
    seg_sizes_.resize(seg_sizes_.size() + static_cast<size_t>(rank) + 1);
  }
  int32_t off = seg_offset_[la];
  std::fill_n(seg_sizes_.begin() + off, rank + 1, 0);
  // `cur` is the segment currently being filled: the index of the
  // last parameter seen in the preorder walk of val(A).
  int cur = 0;

  // Recursive walk expressed with an explicit stack. Each frame is
  // either "visit node" or "account callee segment i after the i-th
  // argument subtree finished".
  struct Frame {
    NodeId node;     // kNilNode for callee-segment frames
    LabelId callee;  // for segment frames
    int segment;     // for segment frames
  };
  std::vector<Frame> stack = {{t.root(), kNoLabel, -1}};
  std::vector<NodeId> kids;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    auto seg_at = [&](int i) -> int64_t& {
      return seg_sizes_[static_cast<size_t>(off + i)];
    };
    if (f.node == kNilNode) {
      // Post-argument accounting of callee segment f.segment.
      seg_at(cur) = SizeSatAdd(
          seg_at(cur),
          SegSize(f.callee, f.segment));
      continue;
    }
    LabelId l = t.label(f.node);
    int pidx = param_index_[static_cast<size_t>(l)];
    if (pidx > 0) {
      SLG_CHECK_MSG(pidx == cur + 1, "parameters not in preorder order");
      cur = pidx;
      continue;
    }
    kids.clear();
    for (NodeId c = t.first_child(f.node); c != kNilNode;
         c = t.next_sibling(c)) {
      kids.push_back(c);
    }
    if (IsNonterminal(l)) {
      seg_at(cur) = SizeSatAdd(seg_at(cur), SegSize(l, 0));
      // Push in reverse: after argument i, account callee segment i.
      for (int i = static_cast<int>(kids.size()); i >= 1; --i) {
        stack.push_back({kNilNode, l, i});
        stack.push_back({kids[static_cast<size_t>(i - 1)], kNoLabel, -1});
      }
      continue;
    }
    // Terminal: one node in the current segment, then its children.
    seg_at(cur) = SizeSatAdd(seg_at(cur), 1);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, kNoLabel, -1});
    }
  }
  SLG_CHECK_MSG(cur == rank, "rule does not use all its parameters");
  int64_t total = 0;
  for (int i = 0; i <= rank; ++i) {
    total = SizeSatAdd(total, seg_sizes_[static_cast<size_t>(off + i)]);
  }
  seg_total_[la] = total;
}

}  // namespace slg
