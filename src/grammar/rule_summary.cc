#include "src/grammar/rule_summary.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_set>

#include "src/grammar/orders.h"

namespace slg {

namespace {

// First-occurrence tables are only built for rules whose bodies stay
// below this node count — every digram-sized rule TreeRePair mints
// qualifies, while adversarial hand-written bodies fall back to the
// plain descent. Bounds both the build recursion depth and the walk
// cost. (The start rule never gets one; see BuildRule.)
constexpr size_t kFirstOccBodyCap = 4096;
// Total first-occurrence entries across all rules; beyond this the
// remaining rules simply go without tables.
constexpr int64_t kFirstOccTotalCap = int64_t{1} << 21;

}  // namespace

std::vector<int64_t> ComputeStaticSizes(const Tree& t, const RuleMeta& meta) {
  std::vector<NodeId> order = t.Preorder();
  NodeId max_id = 0;
  for (NodeId v : order) max_id = std::max(max_id, v);
  std::vector<int64_t> sizes(static_cast<size_t>(max_id) + 1, 0);
  // Children before parents. SegTotal is 1 for terminals, 0 for
  // parameters and the flattened segment total for nonterminals — all
  // a single array load.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId v = *it;
    int64_t n = meta.SegTotal(t.label(v));
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      n = SizeSatAdd(n, sizes[static_cast<size_t>(c)]);
    }
    sizes[static_cast<size_t>(v)] = n;
  }
  return sizes;
}

RuleSummary RuleSummary::Build(const Grammar& g, const RuleMeta& meta) {
  RuleSummary s;
  s.views_.resize(static_cast<size_t>(meta.num_labels()));
  s.entries_.resize(s.views_.size());
  // Callees before callers: label filters, element totals and
  // first-occurrence tables each need the callee's version.
  for (LabelId r : AntiSlOrder(g)) {
    const Tree& t = g.rhs(r);
    s.BuildRule(r, t, meta, r == g.start(), ComputeStaticSizes(t, meta));
  }
  s.Finish(g, meta);
  return s;
}

RuleSummary RuleSummary::Derive(const RuleSummary& parent, const Grammar& g,
                                const RuleMeta& meta,
                                const std::vector<LabelId>& rebuilt,
                                const std::vector<LabelId>& removed,
                                std::vector<int64_t> start_sizes) {
  RuleSummary s = parent;
  s.views_.resize(static_cast<size_t>(meta.num_labels()));
  s.entries_.resize(s.views_.size());
  for (LabelId r : removed) s.DropRule(r);
  for (LabelId r : rebuilt) {
    s.DropRule(r);
    const Tree& t = g.rhs(r);
    bool is_start = r == g.start();
    s.BuildRule(r, t, meta, is_start,
                is_start && !start_sizes.empty()
                    ? std::move(start_sizes)
                    : ComputeStaticSizes(t, meta));
  }
  s.Finish(g, meta);
  return s;
}

void RuleSummary::DropRule(LabelId r) {
  std::shared_ptr<const Entry>& e = entries_[static_cast<size_t>(r)];
  if (e == nullptr) return;
  edges_ -= e->nodes - 1;
  if (e->fo_exact) fo_total_ -= static_cast<int64_t>(e->fo_labels.size());
  e.reset();
  views_[static_cast<size_t>(r)] = View();
}

void RuleSummary::BuildRule(LabelId r, const Tree& t, const RuleMeta& meta,
                            bool is_start, std::vector<int64_t> static_size) {
  auto e = std::make_shared<Entry>();
  e->static_size = std::move(static_size);
  if (meta.Rank(r) > 0) {
    // Parameter intervals, one bottom-up sweep (a rank-0 body has none
    // anywhere and keeps no table).
    size_t n = e->static_size.size();
    e->param_lo.assign(n, kNoParamBelow);
    e->param_hi.assign(n, 0);
    std::vector<NodeId> order = t.Preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId v = *it;
      int32_t lo = kNoParamBelow;
      int32_t hi = 0;
      if (int pj = meta.ParamIndex(t.label(v)); pj > 0) lo = hi = pj;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        size_t ci = static_cast<size_t>(c);
        lo = std::min(lo, e->param_lo[ci]);
        hi = std::max(hi, e->param_hi[ci]);
      }
      e->param_lo[static_cast<size_t>(v)] = lo;
      e->param_hi[static_cast<size_t>(v)] = hi;
    }
  }

  e->material_size = e->static_size[static_cast<size_t>(t.root())];
  int64_t elems = 0;
  int64_t nodes = 0;
  if (is_start) e->calls.assign(static_cast<size_t>(meta.num_labels()), 0);
  t.VisitPreorder(t.root(), [&](NodeId v) {
    ++nodes;
    LabelId l = t.label(v);
    if (meta.IsNonterminal(l)) {
      if (is_start) ++e->calls[static_cast<size_t>(l)];
      const Entry& ce = *entries_[static_cast<size_t>(l)];
      for (size_t i = 0; i < 4; ++i) e->filter[i] |= ce.filter[i];
      elems = SizeSatAdd(elems, ce.material_elements);
    } else if (meta.ParamIndex(l) == 0) {
      uint32_t h = FilterHash(l);
      e->filter[h >> 6] |= uint64_t{1} << (h & 63);
      if (l != kNullLabel) elems = SizeSatAdd(elems, 1);
    }
  });
  e->material_elements = elems;
  e->nodes = nodes;
  // No descent consults the start rule's table: descents begin there.
  if (!is_start) BuildFirstOcc(r, t, meta, *e);

  edges_ += e->nodes - 1;
  if (e->fo_exact) fo_total_ += static_cast<int64_t>(e->fo_labels.size());
  View v;
  v.static_size = e->static_size.data();
  v.param_lo = e->param_lo.empty() ? nullptr : e->param_lo.data();
  v.param_hi = e->param_hi.empty() ? nullptr : e->param_hi.data();
  v.filter = e->filter;
  v.material_size = e->material_size;
  v.material_elements = e->material_elements;
  if (e->fo_exact) {
    v.fo_labels = e->fo_labels.data();
    v.fo_offsets = e->fo_offsets.data();
    v.fo_params = e->fo_params.data();
    v.fo_count = e->fo_labels.size();
  }
  views_[static_cast<size_t>(r)] = v;
  entries_[static_cast<size_t>(r)] = std::move(e);
}

void RuleSummary::Finish(const Grammar& g, const RuleMeta& meta) {
  LabelId start = g.start();
  derived_size_ = StaticSize(start, meta.RhsRoot(start));
  derived_elements_ = MaterialElements(start);
}

void RuleSummary::BuildFirstOcc(LabelId r, const Tree& t, const RuleMeta& meta,
                                Entry& b) {
  if (b.nodes > static_cast<int64_t>(kFirstOccBodyCap)) return;
  if (fo_total_ >= kFirstOccTotalCap) return;
  // Merging a callee's table requires it to be exact — a missing
  // callee table could hide an earlier occurrence.
  bool callees_exact = true;
  t.VisitPreorder(t.root(), [&](NodeId v) {
    LabelId l = t.label(v);
    if (meta.IsNonterminal(l) && !entries_[static_cast<size_t>(l)]->fo_exact) {
      callees_exact = false;
    }
  });
  if (!callees_exact) return;

  // Walk the body in *derived* order, tracking for every node its
  // static offset (material nodes before it, arguments of nested calls
  // included — they are this rule's material — but this rule's own
  // parameter substitutions excluded) and the count of this rule's
  // parameters already passed. First record per label wins, which is
  // exactly the first derived occurrence because the walk order is the
  // derived order.
  struct Rec {
    LabelId label;
    int64_t offset;
    int32_t params_before;
  };
  std::vector<Rec> recs;
  std::unordered_set<LabelId> seen;
  int32_t params_passed = 0;
  bool overflow = false;
  auto record = [&](LabelId l, int64_t off, int32_t p) {
    if (off >= kSizeCap) {
      overflow = true;
      return;
    }
    if (seen.insert(l).second) recs.push_back(Rec{l, off, p});
  };
  // Recursion depth is bounded by the body node count (≤ cap above).
  std::function<void(NodeId, int64_t)> visit = [&](NodeId v, int64_t base) {
    if (base >= kSizeCap) {
      overflow = true;
      return;
    }
    LabelId l = t.label(v);
    if (meta.ParamIndex(l) > 0) {
      ++params_passed;
      return;
    }
    if (meta.IsNonterminal(l)) {
      // The callee's material and this call's argument subtrees
      // interleave in derived order: segment h of the callee (its
      // entries with params_before == h), then argument h+1, and so
      // on. A callee entry at static offset d with p of the callee's
      // parameters before it sits at base + d + (sizes of the first p
      // arguments); argument h+1 starts after the callee's first h+1
      // segments and the first h arguments.
      const Entry& cb = *entries_[static_cast<size_t>(l)];
      const std::vector<int32_t>& corder = cb.fo_order;
      int m = meta.Rank(l);
      std::vector<NodeId> args;
      std::vector<int64_t> asp(static_cast<size_t>(m) + 1, 0);
      args.reserve(static_cast<size_t>(m));
      size_t j = 0;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        args.push_back(c);
        asp[j + 1] =
            SizeSatAdd(asp[j], b.static_size[static_cast<size_t>(c)]);
        ++j;
      }
      size_t oi = 0;
      int64_t seg = 0;
      for (int h = 0; h <= m; ++h) {
        while (oi < corder.size() &&
               cb.fo_params[static_cast<size_t>(corder[oi])] == h) {
          int32_t e = corder[oi++];
          record(cb.fo_labels[static_cast<size_t>(e)],
                 SizeSatAdd(base,
                            SizeSatAdd(cb.fo_offsets[static_cast<size_t>(e)],
                                       asp[static_cast<size_t>(h)])),
                 params_passed);
        }
        if (h < m) {
          seg = SizeSatAdd(seg, meta.SegSize(l, h));
          visit(args[static_cast<size_t>(h)],
                SizeSatAdd(base, SizeSatAdd(seg, asp[static_cast<size_t>(h)])));
        }
      }
      return;
    }
    // Terminal: itself, then its children in order.
    record(l, base, params_passed);
    int64_t off = SizeSatAdd(base, 1);
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      visit(c, off);
      off = SizeSatAdd(off, b.static_size[static_cast<size_t>(c)]);
    }
  };
  visit(meta.RhsRoot(r), 0);
  if (overflow) return;

  // Store sorted by label (lookup is a binary search); fo_order keeps
  // the derived order — (params_before, offset) ascending, which the
  // walk produced directly — as indices into the sorted table.
  size_t n = recs.size();
  std::vector<int32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](int32_t a, int32_t c) {
    return recs[static_cast<size_t>(a)].label <
           recs[static_cast<size_t>(c)].label;
  });
  b.fo_labels.resize(n);
  b.fo_offsets.resize(n);
  b.fo_params.resize(n);
  std::vector<int32_t>& ord = b.fo_order;
  ord.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Rec& rec = recs[static_cast<size_t>(perm[i])];
    b.fo_labels[i] = rec.label;
    b.fo_offsets[i] = rec.offset;
    b.fo_params[i] = rec.params_before;
    ord[static_cast<size_t>(perm[i])] = static_cast<int32_t>(i);
  }
  b.fo_exact = true;
}

std::optional<RuleSummary::FirstOcc> RuleSummary::FirstOccurrence(
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
