#include "src/core/snapshot_nav.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/grammar/value.h"

namespace slg {

SnapshotNav::SnapshotNav(const Grammar* g, const RuleIndex* index)
    : g_(g), index_(index), derived_size_(index->DerivedSize()) {}

SnapshotNav::Frames::Frames(LabelId start) {
  stack.push_back(Frame{start, kNilNode, 0});
  sizes.push_back(0);
}

void SnapshotNav::Frames::Pop() {
  sizes.resize(stack.back().base);
  stack.pop_back();
}

StatusOr<LabelId> SnapshotNav::LabelAt(int64_t preorder,
                                       NavStats* stats) const {
  if (preorder < 1 || preorder > derived_size_) {
    return Status::OutOfRange("preorder position outside the document");
  }
  NavStats work;
  // k counts positions remaining within the derived subtree of the
  // current node; k == 1 at a terminal means "this is the node".
  int64_t k = preorder;
  LabelId rule = g_->start();
  NodeId v = index_->RhsRoot(rule);
  // The descent never leaves a rule it entered, so it keeps only the
  // current rule's argument-size prefix sums (the start rule has no
  // arguments) and builds a callee's from them on entry.
  std::vector<int64_t> prefix = {0};
  std::vector<int64_t> callee_prefix;
  for (;;) {
    ++work.steps;
    const Tree& t = index_->Rhs(rule);
    LabelId l = t.label(v);
    SLG_CHECK_MSG(index_->ParamIndex(l) == 0,
                  "descent entered a callee outside its material");
    if (index_->IsNonterminal(l)) {
      NodeId arg = LocateInCall(*index_, t, v, k, [&](NodeId a) {
        return index_->DerivedIn(rule, a, prefix.data());
      });
      if (arg != kNilNode) {
        v = arg;
        continue;
      }
      // The position lies in the callee's material: enter its body with
      // the prefix sums its parameter ranges need.
      callee_prefix.assign(1, 0);
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        int64_t d = index_->DerivedIn(rule, c, prefix.data());
        callee_prefix.push_back(SizeSatAdd(callee_prefix.back(), d));
      }
      prefix.swap(callee_prefix);
      ++work.frames_entered;
      rule = l;
      v = index_->RhsRoot(l);
      continue;
    }
    // Terminal: this node holds preorder position 1 of its subtree.
    if (k == 1) {
      if (stats != nullptr) *stats = work;
      return l;
    }
    --k;
    NodeId next = kNilNode;
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      int64_t d = index_->DerivedIn(rule, c, prefix.data());
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

int64_t OccTable::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(
      sizeof(OccTable) + val.capacity() * sizeof(int64_t) +
      static_occ.capacity() * sizeof(std::vector<int64_t>));
  for (const std::vector<int64_t>& so : static_occ) {
    bytes += static_cast<int64_t>(so.capacity() * sizeof(int64_t));
  }
  return bytes;
}

StatusOr<int64_t> SnapshotNav::FindLabel(LabelId want, int64_t k,
                                         NavStats* stats) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (want == kNoLabel ||
      static_cast<size_t>(want) >= static_cast<size_t>(index_->num_labels())) {
    return Status::NotFound("tag never occurs");
  }
  if (stats != nullptr) *stats = NavStats{};
  return FindLabel(CountOccurrences(want, stats), k, stats);
}

OccTable SnapshotNav::CountOccurrences(LabelId want, NavStats* stats) const {
  SLG_CHECK_MSG(want >= 0 && want < index_->num_labels(),
                "occurrence pass for a label outside the grammar");
  size_t num_labels = static_cast<size_t>(index_->num_labels());
  OccTable occ;
  occ.want = want;
  occ.val.assign(num_labels, -1);
  occ.static_occ.resize(num_labels);
  int64_t walked = 0;
  // Depth-first post-order over the rule DAG, each rule visited once:
  // a visit scans its body for callees not yet counted, suspends at
  // each one while the callee's visit runs, and counts its own nodes
  // once every callee's count is known. Straight-line grammars are
  // acyclic, so a rule is never met while its own visit is open. The
  // visits' preorders share one buffer: visit i's sits at
  // order[begin, end), where end is the next visit's begin (or the
  // buffer's size for the innermost one). val[l] is -2 while l's visit
  // is open.
  struct Visit {
    LabelId rule;
    size_t begin;
    size_t next;  // next body node to scan for callees
    NodeId max_id;
  };
  std::vector<Visit> visits;
  std::vector<NodeId> order;
  auto open = [&](LabelId r) -> bool {
    if (!index_->MayContain(r, want)) {
      // No occurrence in the whole sub-DAG: the filter covers callees.
      occ.val[static_cast<size_t>(r)] = 0;
      return false;
    }
    occ.val[static_cast<size_t>(r)] = -2;  // open
    Visit vis{r, order.size(), order.size(), 0};
    const Tree& t = index_->Rhs(r);
    t.VisitPreorder(t.root(), [&](NodeId v) {
      order.push_back(v);
      vis.max_id = std::max(vis.max_id, v);
    });
    walked += static_cast<int64_t>(order.size() - vis.begin);
    visits.push_back(vis);
    return true;
  };
  open(g_->start());
  while (!visits.empty()) {
    Visit& vis = visits.back();
    const Tree& t = index_->Rhs(vis.rule);
    bool suspended = false;
    while (!suspended && vis.next < order.size()) {
      LabelId l = t.label(order[vis.next++]);
      if (index_->IsNonterminal(l) && occ.val[static_cast<size_t>(l)] == -1) {
        suspended = open(l);  // invalidates vis when it opens
      }
    }
    if (suspended) continue;
    std::vector<int64_t>& so = occ.static_occ[static_cast<size_t>(vis.rule)];
    so.assign(static_cast<size_t>(vis.max_id) + 1, 0);
    for (size_t i = order.size(); i-- > vis.begin;) {
      NodeId v = order[i];
      LabelId l = t.label(v);
      int64_t o = 0;
      if (index_->IsNonterminal(l)) {
        o = occ.val[static_cast<size_t>(l)];
        SLG_DCHECK(o >= 0);
      } else if (index_->ParamIndex(l) == 0 && l == want) {
        o = 1;
      }
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        o = SizeSatAdd(o, so[static_cast<size_t>(c)]);
      }
      so[static_cast<size_t>(v)] = o;
    }
    occ.val[static_cast<size_t>(vis.rule)] = so[static_cast<size_t>(t.root())];
    order.resize(vis.begin);
    visits.pop_back();
  }
  occ.total = occ.val[static_cast<size_t>(g_->start())];
  if (stats != nullptr) stats->steps += walked;
  return occ;
}

StatusOr<int64_t> SnapshotNav::FindLabel(const OccTable& occ, int64_t k,
                                         NavStats* stats) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (occ.total < k) {
    return Status::NotFound("fewer than k occurrences of tag");
  }
  NavStats work;
  // Same descent as LabelAt, steering by occurrence counts while
  // accumulating the preorder position from subtree sizes. pos counts
  // the nodes strictly before the current subtree.
  int64_t pos = 0;
  Frames fs(g_->start());
  std::vector<int64_t> occ_prefix = {0};  // parallel to fs.sizes
  LabelId rule = g_->start();
  NodeId v = index_->RhsRoot(rule);
  for (;;) {
    ResolveToTerminal(
        *index_, rule, v,
        [&]() -> std::pair<LabelId, NodeId> {
          ++work.steps;
          NodeId call = fs.top().call;
          occ_prefix.resize(fs.top().base);
          fs.Pop();
          return {fs.top().rule, call};
        },
        [&](LabelId callee) {
          ++work.steps;
          ++work.frames_entered;
          const Frame& f = fs.top();
          const Tree& t = index_->Rhs(rule);
          size_t base = fs.sizes.size();
          fs.sizes.push_back(0);
          occ_prefix.push_back(0);
          for (NodeId c = t.first_child(v); c != kNilNode;
               c = t.next_sibling(c)) {
            int64_t d = DerivedIn(fs, f, c);
            int64_t o = OccIn(occ, occ_prefix, f, c);
            fs.sizes.push_back(SizeSatAdd(fs.sizes.back(), d));
            occ_prefix.push_back(SizeSatAdd(occ_prefix.back(), o));
          }
          fs.stack.push_back(Frame{callee, v, base});
        });
    ++work.steps;
    const Frame& f = fs.top();
    const Tree& t = index_->Rhs(rule);
    LabelId l = t.label(v);
    if (l == occ.want) {
      if (k == 1) {
        if (stats != nullptr) {
          stats->steps += work.steps;
          stats->frames_entered += work.frames_entered;
        }
        return SizeSatAdd(pos, 1);
      }
      --k;
    }
    pos = SizeSatAdd(pos, 1);
    NodeId next = kNilNode;
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      int64_t oc = OccIn(occ, occ_prefix, f, c);
      if (k <= oc) {
        next = c;
        break;
      }
      k -= oc;
      pos = SizeSatAdd(pos, DerivedIn(fs, f, c));
    }
    SLG_CHECK_MSG(next != kNilNode, "occurrence index inconsistent");
    v = next;
  }
}

}  // namespace slg
