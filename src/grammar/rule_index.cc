#include "src/grammar/rule_index.h"

#include <algorithm>

#include "src/grammar/orders.h"

namespace slg {

struct RuleIndex::Scratch {
  std::vector<NodeId> order;  // the body being built, in preorder
  // Segment walk: a node to visit, or (node == kNilNode) callee
  // segment `segment` to account after that argument finished.
  struct SegFrame {
    NodeId node;
    LabelId callee;
    int segment;
  };
  std::vector<SegFrame> stack;
  std::vector<NodeId> kids;
};

void RuleIndex::AppendLabels(const LabelTable& labels) {
  for (size_t l = rank_.size(); l < static_cast<size_t>(labels.size()); ++l) {
    LabelId id = static_cast<LabelId>(l);
    rank_.push_back(labels.Rank(id));
    param_index_.push_back(labels.ParamIndex(id));
    rhs_.push_back(nullptr);
    rhs_root_.push_back(kNilNode);
    // Terminals derive exactly their own node; parameters derive
    // nothing of their rule's value.
    seg_total_.push_back(labels.ParamIndex(id) > 0 ? 0 : 1);
    outer_refs_.push_back(0);
    views_.emplace_back();
    entries_.emplace_back();
  }
}

void RuleIndex::CountCalls(const Tree& t, int32_t delta) {
  t.VisitPreorder(t.root(), [&](NodeId v) {
    LabelId l = t.label(v);
    if (IsNonterminal(l)) outer_refs_[static_cast<size_t>(l)] += delta;
  });
}

RuleIndex RuleIndex::Build(const Grammar& g) {
  RuleIndex x;
  x.AppendLabels(g.labels());
  x.start_ = g.start();
  Scratch s;
  // Anti-SL order: every entry a rule reads of its callees is final.
  for (LabelId r : AntiSlOrder(g)) x.BuildRule(r, g.rhs(r), {}, s);
  x.Finish();
  return x;
}

RuleIndex RuleIndex::Derive(const RuleIndex& parent, const Grammar& g,
                            const std::vector<LabelId>& rebuilt,
                            const std::vector<LabelId>& removed,
                            std::vector<int64_t> start_sizes) {
  RuleIndex x = parent;
  x.AppendLabels(g.labels());
  // Outer call counts: drop the parent's bodies of the dropped and
  // rebuilt rules; BuildRule counts the rebuilt rules' new bodies.
  const bool same_start = g.start() == parent.start_;
  if (same_start) {
    for (const std::vector<LabelId>* rules : {&removed, &rebuilt}) {
      for (LabelId r : *rules) {
        if (r != parent.start_ && r < parent.num_labels() &&
            parent.IsNonterminal(r)) {
          x.CountCalls(parent.Rhs(r), -1);
        }
      }
    }
  }
  for (LabelId r : removed) {
    size_t l = static_cast<size_t>(r);
    x.ReleaseEntry(r);
    x.rhs_[l] = nullptr;
    x.rhs_root_[l] = kNilNode;
    x.seg_total_[l] = x.param_index_[l] > 0 ? 0 : 1;
    x.outer_refs_[l] = 0;
  }
  x.start_ = g.start();
  Scratch s;
  for (LabelId r : rebuilt) {
    x.ReleaseEntry(r);
    bool take_sizes = r == x.start_ && !start_sizes.empty();
    x.BuildRule(r, g.rhs(r),
                take_sizes ? std::move(start_sizes) : std::vector<int64_t>(),
                s);
  }
  if (!same_start) {
    std::fill(x.outer_refs_.begin(), x.outer_refs_.end(), 0);
    g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
      if (lhs != x.start_) x.CountCalls(rhs, +1);
    });
  }
  x.Finish();
  return x;
}

void RuleIndex::ReleaseEntry(LabelId r) {
  std::shared_ptr<const Entry>& e = entries_[static_cast<size_t>(r)];
  if (e == nullptr) return;
  edges_ -= e->nodes - 1;
  e.reset();
  views_[static_cast<size_t>(r)] = View();
}

void RuleIndex::BuildRule(LabelId r, const Tree& t,
                          std::vector<int64_t> static_size, Scratch& s) {
  const size_t lr = static_cast<size_t>(r);
  const int rank = rank_[lr];
  const bool is_start = r == start_;
  rhs_[lr] = &t;
  rhs_root_[lr] = t.root();
  auto e = std::make_shared<Entry>();

  s.order.clear();
  NodeId max_id = 0;
  t.VisitPreorder(t.root(), [&](NodeId v) {
    s.order.push_back(v);
    max_id = std::max(max_id, v);
  });
  const size_t n = static_cast<size_t>(max_id) + 1;

  // Children before parents: static sizes (SegTotal of each label plus
  // the children's) unless given and, for a rule with parameters, the
  // parameter interval under each node.
  const bool count_sizes = static_size.empty();
  if (count_sizes) static_size.assign(n, 0);
  e->static_size = std::move(static_size);
  if (rank > 0) {
    e->param_lo.assign(n, kNoParamBelow);
    e->param_hi.assign(n, 0);
  }
  if (count_sizes || rank > 0) {
    int64_t* size = e->static_size.data();
    for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
      const size_t v = static_cast<size_t>(*it);
      const size_t l = static_cast<size_t>(t.label(*it));
      if (count_sizes) {
        int64_t k = seg_total_[l];
        for (NodeId c = t.first_child(*it); c != kNilNode;
             c = t.next_sibling(c)) {
          k = SizeSatAdd(k, size[static_cast<size_t>(c)]);
        }
        size[v] = k;
      }
      if (rank > 0) {
        int32_t lo = kNoParamBelow;
        int32_t hi = 0;
        if (int pj = param_index_[l]; pj > 0) lo = hi = pj;
        for (NodeId c = t.first_child(*it); c != kNilNode;
             c = t.next_sibling(c)) {
          lo = std::min(lo, e->param_lo[static_cast<size_t>(c)]);
          hi = std::max(hi, e->param_hi[static_cast<size_t>(c)]);
        }
        e->param_lo[v] = lo;
        e->param_hi[v] = hi;
      }
    }
  }

  // Preorder: call counts, parameter nodes, label filter and element
  // count (a call contributes its callee's).
  e->param_nodes.assign(static_cast<size_t>(rank), kNilNode);
  if (is_start) e->calls.assign(static_cast<size_t>(num_labels()), 0);
  int64_t elems = 0;
  for (NodeId v : s.order) {
    const LabelId l = t.label(v);
    const size_t li = static_cast<size_t>(l);
    if (rhs_[li] != nullptr) {
      if (is_start) {
        ++e->calls[li];
      } else {
        ++outer_refs_[li];
      }
      const View& cv = views_[li];
      for (size_t i = 0; i < 4; ++i) e->filter[i] |= cv.filter[i];
      elems = SizeSatAdd(elems, cv.material_elements);
    } else if (int pj = param_index_[li]; pj > 0) {
      e->param_nodes[static_cast<size_t>(pj - 1)] = v;
    } else {
      uint32_t h = FilterHash(l);
      e->filter[h >> 6] |= uint64_t{1} << (h & 63);
      if (l != kNullLabel) elems = SizeSatAdd(elems, 1);
    }
  }
  e->material_elements = elems;
  e->nodes = static_cast<int64_t>(s.order.size());

  if (rank == 0) {
    // One segment: everything the body derives.
    e->seg_sizes.assign(1, e->static_size[static_cast<size_t>(t.root())]);
  } else {
    BuildSegments(r, t, *e, s);
  }
  int64_t total = 0;
  for (int64_t k : e->seg_sizes) total = SizeSatAdd(total, k);
  seg_total_[lr] = total;

  edges_ += e->nodes - 1;
  View v;
  v.static_size = e->static_size.data();
  v.param_lo = e->param_lo.empty() ? nullptr : e->param_lo.data();
  v.param_hi = e->param_hi.empty() ? nullptr : e->param_hi.data();
  v.param_nodes = e->param_nodes.data();
  v.seg_sizes = e->seg_sizes.data();
  v.filter = e->filter;
  v.material_elements = e->material_elements;
  views_[lr] = v;
  entries_[lr] = std::move(e);
}

void RuleIndex::BuildSegments(LabelId r, const Tree& t, Entry& e,
                              Scratch& s) const {
  // Parameter-segment sizes (paper §III-A): walk the body in derived
  // order, accumulating into the segment of the last parameter seen.
  // A subtree with no parameter below lies in one segment whole, so it
  // adds its static size without a visit; only the paths to the
  // parameters are walked, reading callee segments where they pass
  // through a call.
  const int rank = rank_[static_cast<size_t>(r)];
  std::vector<int64_t>& seg = e.seg_sizes;
  seg.assign(static_cast<size_t>(rank) + 1, 0);
  int cur = 0;
  s.stack.clear();
  s.stack.push_back({t.root(), kNoLabel, -1});
  while (!s.stack.empty()) {
    Scratch::SegFrame f = s.stack.back();
    s.stack.pop_back();
    int64_t& into = seg[static_cast<size_t>(cur)];
    if (f.node == kNilNode) {
      into = SizeSatAdd(into, SegSize(f.callee, f.segment));
      continue;
    }
    const size_t vi = static_cast<size_t>(f.node);
    if (e.param_lo[vi] > e.param_hi[vi]) {
      into = SizeSatAdd(into, e.static_size[vi]);
      continue;
    }
    LabelId l = t.label(f.node);
    if (int pj = param_index_[static_cast<size_t>(l)]; pj > 0) {
      SLG_CHECK_MSG(pj == cur + 1, "parameters not in preorder order");
      cur = pj;
      continue;
    }
    s.kids.clear();
    for (NodeId c = t.first_child(f.node); c != kNilNode;
         c = t.next_sibling(c)) {
      s.kids.push_back(c);
    }
    if (IsNonterminal(l)) {
      into = SizeSatAdd(into, SegSize(l, 0));
      // Push in reverse: after argument i, account callee segment i.
      for (int i = static_cast<int>(s.kids.size()); i >= 1; --i) {
        s.stack.push_back({kNilNode, l, i});
        s.stack.push_back({s.kids[static_cast<size_t>(i - 1)], kNoLabel, -1});
      }
      continue;
    }
    // Terminal: one node in the current segment, then its children.
    into = SizeSatAdd(into, 1);
    for (auto it = s.kids.rbegin(); it != s.kids.rend(); ++it) {
      s.stack.push_back({*it, kNoLabel, -1});
    }
  }
  SLG_CHECK_MSG(cur == rank, "rule does not use all its parameters");
}

void RuleIndex::Finish() {
  derived_size_ = StaticSize(start_, RhsRoot(start_));
  derived_elements_ = MaterialElements(start_);
}

}  // namespace slg
