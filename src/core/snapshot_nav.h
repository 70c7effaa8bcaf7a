// SnapshotNav — derived-position queries over an immutable grammar,
// without mutation and without decompression.
//
// Path isolation (BatchUpdater::Isolate) answers "what sits at binary
// preorder position n of val(G)" by partially decompressing the path
// into the start rule — it *damages* the grammar, which is fine on the
// write path (the damage feeds the next recompression) but unusable
// for serving reads from a shared immutable snapshot. SnapshotNav is
// the read-only counterpart: instead of inlining calls it descends
// *into* rule bodies, carrying the argument sizes of the calls it
// entered, which tell it which child subtree covers the requested
// position.
//
// The per-rule facts the descent needs — static sizes, parameter
// intervals, segment sizes, label filters — come from the version's
// RuleIndex (grammar/rule_index.h), built once per snapshot and
// shared with the cursor and the query engine; with per-call
// prefix sums over the actual argument sizes, the derived size of any
// body node in context is O(1):
//   derived(v | args) = static_size[v] + sum(args[lo..hi]).
//
// LabelAt steps over arguments the way path isolation does: at a call
// it scans the callee's segment sizes size(B, i) against the
// arguments' derived sizes (LocateInCall) and moves straight to the
// argument that holds the position, staying in the current rule; it
// enters the callee only when the position lies in the callee's own
// material. Each rule entered is entered for good — the descent never
// meets a parameter (it checks that) — so it keeps no frame stack,
// only the current rule's argument-size prefix sums; a call costs
// O(rank) and the whole descent O(body nodes on the root-to-target
// path + rank per call on it).
//
// FindLabel has two halves. The occurrence pass (CountOccurrences)
// computes per-rule occurrence counts of the wanted label in one pass
// over the rules whose filter admits it, and returns them as an
// immutable OccTable. The descent (FindLabel over a table) then steers
// by those counts, entering every call on its path and popping back to
// the caller at a parameter (a stack of call frames). The table
// depends only on the version and the label, so a caller that keeps
// it pays the pass once per (version, label): GrammarSnapshot memoizes
// them (service/snapshot.h). Both halves are sub-linear in the
// document and neither touches the grammar.
//
// All sizes saturate at kSizeCap (value.h); positions beyond the cap
// are not addressable (FindLabel reports any of them as kSizeCap),
// matching every other size computation in the library.
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

// Work of one navigation call: body nodes it walked (for a find, the
// occurrence pass's plus the descent's) and rules it entered at a
// call.
struct NavStats {
  int64_t steps = 0;
  int64_t frames_entered = 0;
};

// Occurrences of one label in one grammar version: val[l] is the count
// in val(l) (parameters contribute nothing; -1 for a rule the pass
// never reached) and static_occ[l][v] the
// count under body node v of rule l with every parameter substituted
// by the empty context. A rule whose label filter rejects the label
// counts 0 and keeps an empty per-node vector (RuleIndex::InContext
// reads it as all-zero). Built by SnapshotNav::CountOccurrences and
// immutable afterwards, so any number of descents may share one.
struct OccTable {
  LabelId want = kNoLabel;
  int64_t total = 0;         // occurrences in val(S)
  std::vector<int64_t> val;  // by LabelId
  std::vector<std::vector<int64_t>> static_occ;  // by LabelId, by NodeId

  // Heap and object bytes the table holds.
  int64_t MemoryBytes() const;
};

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
  // OutOfRange outside [1, DerivedSize()]. `stats`, when non-null,
  // receives the descent's work.
  StatusOr<LabelId> LabelAt(int64_t preorder, NavStats* stats = nullptr) const;

  // 1-based binary preorder position of the k-th (1-based) node of
  // val(S) labeled `want`: CountOccurrences, then the descent over its
  // table. InvalidArgument when k < 1; NotFound when fewer than k
  // occur. `stats`, when non-null, receives the work of both halves.
  StatusOr<int64_t> FindLabel(LabelId want, int64_t k,
                              NavStats* stats = nullptr) const;

  // The occurrence pass: the table of `want` (a label of the grammar),
  // from one depth-first pass over the reachable rules whose label
  // filter admits it. `stats`, when non-null, has the body nodes the
  // pass walked added to its steps.
  OccTable CountOccurrences(LabelId want, NavStats* stats = nullptr) const;

  // The descent: the position of the k-th occurrence of the label
  // `occ` counts (a table of this version). InvalidArgument when
  // k < 1; NotFound when fewer than k occur. `stats`, when non-null,
  // has the descent's work added to it.
  StatusOr<int64_t> FindLabel(const OccTable& occ, int64_t k,
                              NavStats* stats = nullptr) const;

 private:
  // The call frames of FindLabel's descent, innermost last: the rule
  // we are inside and the call node in the *enclosing* rule's body that
  // got us there. Prefix sums over a frame's argument sizes sit in one flat
  // buffer at sizes[base .. base + rank] (sizes[base + j] = derived
  // sizes of arguments 1..j summed, sizes[base] = 0); FindLabel keeps
  // the same sums over argument occurrence counts at the same offsets
  // of a second buffer.
  struct Frame {
    LabelId rule;
    NodeId call;
    size_t base;
  };
  struct Frames {
    std::vector<Frame> stack;
    std::vector<int64_t> sizes;
    // The start rule's frame (rank 0: no arguments).
    explicit Frames(LabelId start);
    const Frame& top() const { return stack.back(); }
    // Removes the innermost frame and its prefix sums.
    void Pop();
  };

  // derived(v | frame's arguments) for a body node of f.rule.
  int64_t DerivedIn(const Frames& fs, const Frame& f, NodeId v) const {
    return index_->DerivedIn(f.rule, v, fs.sizes.data() + f.base);
  }

  // Occurrences in the derived subtree of body node v of f.rule, with
  // f's occurrence prefix sums at occ_prefix[f.base ..].
  int64_t OccIn(const OccTable& occ, const std::vector<int64_t>& occ_prefix,
                const Frame& f, NodeId v) const {
    return index_->InContext(f.rule, v,
                             occ.static_occ[static_cast<size_t>(f.rule)],
                             occ_prefix.data() + f.base);
  }

  const Grammar* g_;
  const RuleIndex* index_;
  int64_t derived_size_ = 0;
};

}  // namespace slg

#endif  // SLG_CORE_SNAPSHOT_NAV_H_
