#include "src/grammar/rule_index.h"

#include <algorithm>
#include <numeric>

#include "src/grammar/orders.h"

namespace slg {

namespace {

// First-occurrence tables are only built for rules whose bodies stay
// below this node count — every digram-sized rule TreeRePair mints
// qualifies, while adversarial hand-written bodies fall back to the
// plain descent. Bounds both the build recursion depth and the walk
// cost. (The start rule never gets one; see BuildRule.)
constexpr int64_t kFirstOccBodyCap = 4096;
// Total first-occurrence entries across all rules; beyond this the
// remaining rules simply go without tables.
constexpr int64_t kFirstOccTotalCap = int64_t{1} << 21;

}  // namespace

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
  // First-occurrence walk: records in derived order, and per label the
  // stamp of the last table that recorded it.
  struct Rec {
    LabelId label;
    int64_t offset;
    int32_t params_before;
  };
  std::vector<Rec> recs;
  std::vector<int32_t> perm;
  std::vector<uint32_t> seen;
  uint32_t stamp = 0;
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
  if (e->fo_exact) fo_total_ -= static_cast<int64_t>(e->fo_labels.size());
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
  bool callees_exact = true;
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
      if (!is_start) callees_exact = callees_exact && entries_[li]->fo_exact;
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

  // Merging a callee's table requires it to be exact — a missing
  // callee table could hide an earlier occurrence. No descent consults
  // the start rule's table: descents begin there.
  if (!is_start && callees_exact) BuildFirstOcc(r, t, *e, s);

  edges_ += e->nodes - 1;
  if (e->fo_exact) fo_total_ += static_cast<int64_t>(e->fo_labels.size());
  View v;
  v.static_size = e->static_size.data();
  v.param_lo = e->param_lo.empty() ? nullptr : e->param_lo.data();
  v.param_hi = e->param_hi.empty() ? nullptr : e->param_hi.data();
  v.param_nodes = e->param_nodes.data();
  v.seg_sizes = e->seg_sizes.data();
  v.filter = e->filter;
  v.material_elements = e->material_elements;
  if (e->fo_exact) {
    v.fo_labels = e->fo_labels.data();
    v.fo_offsets = e->fo_offsets.data();
    v.fo_params = e->fo_params.data();
    v.fo_count = e->fo_labels.size();
  }
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

void RuleIndex::BuildFirstOcc(LabelId r, const Tree& t, Entry& b,
                              Scratch& s) const {
  if (b.nodes > kFirstOccBodyCap) return;
  if (fo_total_ >= kFirstOccTotalCap) return;
  if (s.seen.size() < static_cast<size_t>(num_labels())) {
    s.seen.resize(static_cast<size_t>(num_labels()), 0);
  }
  if (++s.stamp == 0) {
    std::fill(s.seen.begin(), s.seen.end(), 0);
    s.stamp = 1;
  }
  s.recs.clear();

  // Walk the body in *derived* order, tracking for every node its
  // static offset (material nodes before it, arguments of nested calls
  // included — they are this rule's material — but this rule's own
  // parameter substitutions excluded) and the count of this rule's
  // parameters already passed. First record per label wins, which is
  // exactly the first derived occurrence because the walk order is the
  // derived order.
  struct Walk {
    const RuleIndex& x;
    const Tree& t;
    const Entry& b;
    Scratch& s;
    int32_t params_passed = 0;
    bool overflow = false;

    void Record(LabelId l, int64_t off) {
      if (off >= kSizeCap) {
        overflow = true;
        return;
      }
      uint32_t& seen = s.seen[static_cast<size_t>(l)];
      if (seen == s.stamp) return;
      seen = s.stamp;
      s.recs.push_back(Scratch::Rec{l, off, params_passed});
    }

    // Recursion depth is bounded by the body node count (≤ cap above).
    void Visit(NodeId v, int64_t base) {
      if (base >= kSizeCap) {
        overflow = true;
        return;
      }
      LabelId l = t.label(v);
      if (x.ParamIndex(l) > 0) {
        ++params_passed;
        return;
      }
      if (x.IsNonterminal(l)) {
        // The callee's material and this call's argument subtrees
        // interleave in derived order: segment h of the callee (its
        // entries with params_before == h), then argument h+1, and so
        // on. A callee entry at static offset d with p of the callee's
        // parameters before it sits at base + d + (sizes of the first
        // p arguments); argument h+1 starts after the callee's first
        // h+1 segments and the first h arguments.
        const Entry& cb = *x.entries_[static_cast<size_t>(l)];
        const int m = x.Rank(l);
        size_t oi = 0;
        int64_t seg = 0;
        int64_t args_before = 0;  // sizes of arguments 1..h
        NodeId arg = t.first_child(v);
        for (int h = 0; h <= m; ++h) {
          while (oi < cb.fo_order.size() &&
                 cb.fo_params[static_cast<size_t>(cb.fo_order[oi])] == h) {
            size_t e = static_cast<size_t>(cb.fo_order[oi++]);
            Record(cb.fo_labels[e],
                   SizeSatAdd(base, SizeSatAdd(cb.fo_offsets[e], args_before)));
          }
          if (h < m) {
            seg = SizeSatAdd(seg, x.SegSize(l, h));
            Visit(arg, SizeSatAdd(base, SizeSatAdd(seg, args_before)));
            args_before = SizeSatAdd(
                args_before, b.static_size[static_cast<size_t>(arg)]);
            arg = t.next_sibling(arg);
          }
        }
        return;
      }
      // Terminal: itself, then its children in order.
      Record(l, base);
      int64_t off = SizeSatAdd(base, 1);
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        Visit(c, off);
        off = SizeSatAdd(off, b.static_size[static_cast<size_t>(c)]);
      }
    }
  };
  Walk walk{*this, t, b, s};
  walk.Visit(RhsRoot(r), 0);
  if (walk.overflow) return;

  // Store sorted by label (lookup is a binary search); fo_order keeps
  // the derived order — (params_before, offset) ascending, which the
  // walk produced directly — as indices into the sorted table.
  const std::vector<Scratch::Rec>& recs = s.recs;
  const size_t n = recs.size();
  std::vector<int32_t>& perm = s.perm;
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](int32_t a, int32_t c) {
    return recs[static_cast<size_t>(a)].label <
           recs[static_cast<size_t>(c)].label;
  });
  b.fo_labels.resize(n);
  b.fo_offsets.resize(n);
  b.fo_params.resize(n);
  b.fo_order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Scratch::Rec& rec = recs[static_cast<size_t>(perm[i])];
    b.fo_labels[i] = rec.label;
    b.fo_offsets[i] = rec.offset;
    b.fo_params[i] = rec.params_before;
    b.fo_order[static_cast<size_t>(perm[i])] = static_cast<int32_t>(i);
  }
  b.fo_exact = true;
}

void RuleIndex::Finish() {
  derived_size_ = StaticSize(start_, RhsRoot(start_));
  derived_elements_ = MaterialElements(start_);
}

std::optional<RuleIndex::FirstOcc> RuleIndex::FirstOccurrence(
    LabelId rule, LabelId label) const {
  if (rule < 0 || static_cast<size_t>(rule) >= views_.size()) {
    return std::nullopt;
  }
  const View& b = views_[static_cast<size_t>(rule)];
  if (b.fo_labels == nullptr) return std::nullopt;
  const LabelId* end = b.fo_labels + b.fo_count;
  const LabelId* it = std::lower_bound(b.fo_labels, end, label);
  if (it == end || *it != label) return std::nullopt;
  size_t i = static_cast<size_t>(it - b.fo_labels);
  return FirstOcc{b.fo_offsets[i], b.fo_params[i]};
}

}  // namespace slg
