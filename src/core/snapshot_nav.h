// SnapshotNav — derived-position queries over an immutable grammar,
// without mutation and without decompression.
//
// Path isolation (BatchUpdater::Isolate) answers "what sits at binary
// preorder position n of val(G)" by partially decompressing the path
// into the start rule — it *damages* the grammar, which is fine on the
// write path (the damage feeds the next recompression) but unusable
// for serving reads from a shared immutable snapshot. SnapshotNav is
// the read-only counterpart: instead of inlining calls it descends
// *into* rule bodies, carrying a stack of call frames whose argument
// sizes tell it which child subtree covers the requested position.
//
// The per-rule facts the descent needs — static sizes, parameter
// intervals, first-occurrence offsets — come from the version's
// RuleIndex (grammar/rule_index.h), built once per snapshot and
// shared with the cursor and the query engine; with per-call
// prefix sums over the actual argument sizes, the derived size of any
// body node in context is O(1):
//   derived(v | args) = static_size[v] + sum(args[lo..hi]).
//
// LabelAt descends root-to-target in O(depth · rank); FindLabel
// additionally computes per-rule occurrence counts of the wanted label
// (one O(|G|) pass per query) and then descends the same way — both
// sub-linear in the document, neither touching the grammar. When the
// remaining target is the first occurrence inside a call whose
// arguments carry none, the index's first-occurrence offset finishes
// the descent in O(1) instead of walking the rest of the spine.
//
// All sizes saturate at kSizeCap (value.h); positions beyond the cap
// are not addressable, matching every other size computation in the
// library.
//
// A SnapshotNav borrows the grammar and its RuleIndex, and must be
// discarded after any mutation — GrammarSnapshot (service/) bundles
// both with shared ownership. Queries are const and touch no mutable
// state, so any number of threads may query one instance
// concurrently.

#ifndef SLG_CORE_SNAPSHOT_NAV_H_
#define SLG_CORE_SNAPSHOT_NAV_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_index.h"

namespace slg {

class SnapshotNav {
 public:
  // Borrows g and index (the RuleIndex of *g) for its lifetime; does
  // no per-construction work of its own.
  SnapshotNav(const Grammar* g, const RuleIndex* index);

  SnapshotNav(SnapshotNav&&) = default;
  SnapshotNav& operator=(SnapshotNav&&) = default;

  // Number of nodes of val(S) (the ⊥-inclusive binary preorder
  // space), saturating at kSizeCap.
  int64_t DerivedSize() const { return derived_size_; }

  // Label at the 1-based binary preorder position of val(S).
  // OutOfRange outside [1, DerivedSize()].
  StatusOr<LabelId> LabelAt(int64_t preorder) const;

  // 1-based binary preorder position of the k-th (1-based) node of
  // val(S) labeled `want`. InvalidArgument when k < 1; NotFound when
  // fewer than k occur.
  StatusOr<int64_t> FindLabel(LabelId want, int64_t k) const;

 private:
  // A call frame of the descent: the rule we are inside, the call node
  // in the *enclosing* rule's body that got us here, and prefix sums
  // over this rule's argument sizes (prefix[j] = derived sizes of
  // arguments 1..j summed; prefix[0] = 0). FindLabel carries a second
  // prefix over argument occurrence counts.
  struct Frame {
    LabelId rule;
    NodeId call;
    std::vector<int64_t> size_prefix;
    std::vector<int64_t> occ_prefix;
  };

  // derived(v | frame's arguments) for a body node of frame.rule.
  int64_t DerivedIn(const Frame& f, NodeId v) const {
    return index_->DerivedIn(f.rule, v, f.size_prefix);
  }

  // Per-rule occurrence counts of `want` (occ[l] = occurrences in
  // val(l), parameters contributing nothing) plus per-node static
  // occurrence counts, computed by an iterative pass over the
  // reachable rule DAG. Purely local to one query — SnapshotNav keeps
  // no mutable state, so concurrent queries stay race-free.
  struct OccIndex {
    std::vector<int64_t> val;                       // by LabelId; -1 unset
    std::vector<std::vector<int64_t>> static_occ;   // by LabelId, by NodeId
  };
  void BuildOccIndex(LabelId want, OccIndex* occ) const;
  int64_t OccIn(const OccIndex& occ, const Frame& f, NodeId v) const {
    return index_->InContext(
        f.rule, v, occ.static_occ[static_cast<size_t>(f.rule)], f.occ_prefix);
  }

  const Grammar* g_;
  const RuleIndex* index_;
  int64_t derived_size_ = 0;
};

}  // namespace slg

#endif  // SLG_CORE_SNAPSHOT_NAV_H_
