#include "src/core/snapshot_nav.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/grammar/value.h"

namespace slg {

SnapshotNav::SnapshotNav(const Grammar* g, const RuleIndex* index)
    : g_(g), index_(index), derived_size_(index->DerivedSize()) {}

StatusOr<LabelId> SnapshotNav::LabelAt(int64_t preorder) const {
  if (preorder < 1 || preorder > derived_size_) {
    return Status::OutOfRange("preorder position outside the document");
  }
  // k counts positions remaining within the derived subtree of the
  // current node; k == 1 at a terminal means "this is the node".
  int64_t k = preorder;
  std::vector<Frame> frames;
  frames.push_back(Frame{g_->start(), kNilNode, {}, {}});
  LabelId rule = g_->start();
  NodeId v = index_->RhsRoot(rule);
  for (;;) {
    ResolveToTerminal(
        *index_, rule, v,
        [&]() -> std::pair<LabelId, NodeId> {
          // Parameter: the derived subtree is the call's argument —
          // resume there, in the caller's context. k is unchanged.
          NodeId call = frames.back().call;
          frames.pop_back();
          return {frames.back().rule, call};
        },
        [&](LabelId callee) {
          // Call: precompute the argument-size prefix sums the body's
          // parameter ranges need.
          const Frame& f = frames.back();
          const Tree& t = index_->Rhs(rule);
          Frame nf;
          nf.rule = callee;
          nf.call = v;
          nf.size_prefix.resize(static_cast<size_t>(index_->Rank(callee)) + 1);
          nf.size_prefix[0] = 0;
          size_t j = 0;
          for (NodeId c = t.first_child(v); c != kNilNode;
               c = t.next_sibling(c)) {
            nf.size_prefix[j + 1] =
                SizeSatAdd(nf.size_prefix[j], DerivedIn(f, c));
            ++j;
          }
          frames.push_back(std::move(nf));
          return true;
        });
    // Terminal: this node holds preorder position 1 of its subtree.
    const Frame& f = frames.back();
    const Tree& t = index_->Rhs(rule);
    LabelId l = t.label(v);
    if (k == 1) return l;
    --k;
    NodeId next = kNilNode;
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      int64_t d = DerivedIn(f, c);
      if (k <= d) {
        next = c;
        break;
      }
      k -= d;
    }
    SLG_CHECK_MSG(next != kNilNode, "derived-size index inconsistent");
    v = next;
  }
}

void SnapshotNav::BuildOccIndex(LabelId want, OccIndex* occ) const {
  size_t num_labels = static_cast<size_t>(index_->num_labels());
  occ->val.assign(num_labels, -1);
  occ->static_occ.resize(num_labels);
  // Iterative post-order over the rule DAG: a rule is computed once
  // every callee's count is known. Straight-line grammars are acyclic,
  // so the worklist terminates; a rule re-pushed by several callers
  // pops immediately once computed.
  std::vector<LabelId> stack;
  stack.push_back(g_->start());
  while (!stack.empty()) {
    LabelId r = stack.back();
    if (occ->val[static_cast<size_t>(r)] >= 0) {
      stack.pop_back();
      continue;
    }
    const Tree& t = index_->Rhs(r);
    std::vector<NodeId> order = t.Preorder();
    bool ready = true;
    for (NodeId v : order) {
      LabelId l = t.label(v);
      if (index_->IsNonterminal(l) && occ->val[static_cast<size_t>(l)] < 0) {
        stack.push_back(l);
        ready = false;
      }
    }
    if (!ready) continue;
    NodeId max_id = 0;
    for (NodeId v : order) max_id = std::max(max_id, v);
    std::vector<int64_t>& so = occ->static_occ[static_cast<size_t>(r)];
    so.assign(static_cast<size_t>(max_id) + 1, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId v = *it;
      LabelId l = t.label(v);
      int64_t o = 0;
      if (index_->IsNonterminal(l)) {
        o = occ->val[static_cast<size_t>(l)];
      } else if (index_->ParamIndex(l) == 0 && l == want) {
        o = 1;
      }
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        o = SizeSatAdd(o, so[static_cast<size_t>(c)]);
      }
      so[static_cast<size_t>(v)] = o;
    }
    occ->val[static_cast<size_t>(r)] = so[static_cast<size_t>(t.root())];
    stack.pop_back();
  }
}

StatusOr<int64_t> SnapshotNav::FindLabel(LabelId want, int64_t k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (want == kNoLabel ||
      static_cast<size_t>(want) >= static_cast<size_t>(index_->num_labels())) {
    return Status::NotFound("tag never occurs");
  }
  OccIndex occ;
  BuildOccIndex(want, &occ);
  if (occ.val[static_cast<size_t>(g_->start())] < k) {
    return Status::NotFound("fewer than k occurrences of tag");
  }
  // Same descent as LabelAt, steering by occurrence counts while
  // accumulating the preorder position from subtree sizes. pos counts
  // the nodes strictly before the current subtree.
  int64_t pos = 0;
  std::vector<Frame> frames;
  frames.push_back(Frame{g_->start(), kNilNode, {}, {}});
  LabelId rule = g_->start();
  NodeId v = index_->RhsRoot(rule);
  for (;;) {
    int64_t shortcut = -1;
    ResolveToTerminal(
        *index_, rule, v,
        [&]() -> std::pair<LabelId, NodeId> {
          NodeId call = frames.back().call;
          frames.pop_back();
          return {frames.back().rule, call};
        },
        [&](LabelId callee) {
          const Frame& f = frames.back();
          const Tree& t = index_->Rhs(rule);
          Frame nf;
          nf.rule = callee;
          nf.call = v;
          size_t rank = static_cast<size_t>(index_->Rank(callee));
          nf.size_prefix.resize(rank + 1);
          nf.occ_prefix.resize(rank + 1);
          nf.size_prefix[0] = 0;
          nf.occ_prefix[0] = 0;
          size_t j = 0;
          for (NodeId c = t.first_child(v); c != kNilNode;
               c = t.next_sibling(c)) {
            nf.size_prefix[j + 1] =
                SizeSatAdd(nf.size_prefix[j], DerivedIn(f, c));
            nf.occ_prefix[j + 1] =
                SizeSatAdd(nf.occ_prefix[j], OccIn(occ, f, c));
            ++j;
          }
          // O(1) finish: the target is the first occurrence inside
          // this call and the arguments carry none, so it is the
          // callee's first material occurrence — whose derived offset
          // is its static offset plus the sizes of the arguments
          // preceding it (the index's first-occurrence table).
          if (k == 1 && nf.occ_prefix[rank] == 0) {
            if (std::optional<RuleIndex::FirstOcc> fo =
                    index_->FirstOccurrence(callee, want)) {
              shortcut = SizeSatAdd(
                  pos,
                  SizeSatAdd(
                      SizeSatAdd(fo->offset,
                                 nf.size_prefix[static_cast<size_t>(
                                     fo->params_before)]),
                      1));
              return false;
            }
          }
          frames.push_back(std::move(nf));
          return true;
        });
    if (shortcut >= 0) return shortcut;
    const Frame& f = frames.back();
    const Tree& t = index_->Rhs(rule);
    LabelId l = t.label(v);
    if (l == want) {
      if (k == 1) return pos + 1;
      --k;
    }
    pos = SizeSatAdd(pos, 1);
    NodeId next = kNilNode;
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      int64_t oc = OccIn(occ, f, c);
      if (k <= oc) {
        next = c;
        break;
      }
      k -= oc;
      pos = SizeSatAdd(pos, DerivedIn(f, c));
    }
    SLG_CHECK_MSG(next != kNilNode, "occurrence index inconsistent");
    v = next;
  }
}

}  // namespace slg
