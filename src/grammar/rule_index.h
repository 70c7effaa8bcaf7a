// RuleIndex — the one per-rule index of a grammar version.
//
// Every consumer of a grammar needs the same per-rule facts, and needs
// them on every step: path isolation walks down through rules by their
// parameter-segment sizes (paper §III-A); GrammarCursor, SnapshotNav
// and the query engine descend through call and parameter boundaries
// and answer positions from per-node static sizes, parameter
// intervals and label filters. The Grammar answers the structural
// questions through hash lookups and tree searches; a RuleIndex is all
// of those answers computed once, in one bottom-up pass over the rule
// DAG, and shared by every reader of the version.
//
// Layout follows the access pattern:
//   * the label facts every descent step reads — parameter index, body
//     pointer (non-null iff the label has a rule), body root, rank and
//     SegTotal — are dense arrays indexed by LabelId, one load each;
//   * everything else about a rule lives in one immutable entry shared
//     by every version whose grammar still holds the same body over
//     the same callees, reached through a per-version array of plain
//     views (pointers into the entry), so a read costs the loads it
//     would on an inline table. Per rule the entry holds
//       - the parameter nodes and the segment sizes size(A, 0..rank):
//         nodes of val(A) before y1, between consecutive parameters,
//         after the last one (val(A) = f(y1, g(h(a,y2), g(a,y3)))
//         gives {1, 3, 2, 0});
//       - per body node v, static_size[v] (nodes of the tree v derives
//         with every parameter substituted by the empty context) and
//         the interval of parameter indices under v (parameters occur
//         once each, in preorder — the TreeRePair invariant — so the
//         indices under a subtree form an interval). With per-call
//         prefix sums over actual argument sizes, any additive
//         per-node measure in context is O(1) (DerivedIn / InContext);
//       - a 256-bit hashed filter over the labels of the rule's
//         material (false positives possible, false negatives never)
//         and the element (non-⊥) count of the material;
//       - for the start rule only, the call sites of each rule in its
//         body (the garbage-collection counts a batch starts from).
//     A rule's material size is SegTotal (the dense array), stored
//     once.
//
// All sizes saturate at kSizeCap (value.h).
//
// A RuleIndex borrows the grammar's rule bodies: it is only valid for
// the grammar it was built from and must be discarded after a change
// of the rule set or of a body. Derive() brings an index forward to an
// edited clone of its grammar at the cost of the rules that changed
// (after a batch, just the start rule). All queries are const — share
// one instance between any number of threads.

#ifndef SLG_GRAMMAR_RULE_INDEX_H_
#define SLG_GRAMMAR_RULE_INDEX_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/grammar.h"
#include "src/grammar/value.h"

namespace slg {

class RuleIndex {
 public:
  // Sentinel for "no parameter below this node": any real parameter
  // index compares smaller.
  static constexpr int32_t kNoParamBelow = std::numeric_limits<int32_t>::max();

  // One bottom-up pass over the rule DAG (callees first).
  static RuleIndex Build(const Grammar& g);

  // The index of g, a clone of parent's grammar that was edited since:
  // parent's entries, shared, minus the `removed` rules, with the
  // `rebuilt` ones (callees first) recomputed. Every other rule of g
  // must still hold the very body parent indexes, over callees whose
  // entries are unchanged. `start_sizes`, when non-empty, are the
  // static sizes of g's start rule by NodeId (the table BatchUpdater
  // maintains), taken instead of a recount. Equals Build(g).
  static RuleIndex Derive(const RuleIndex& parent, const Grammar& g,
                          const std::vector<LabelId>& rebuilt,
                          const std::vector<LabelId>& removed,
                          std::vector<int64_t> start_sizes);

  RuleIndex(RuleIndex&&) = default;
  RuleIndex& operator=(RuleIndex&&) = default;

  // --- per label (dense) ------------------------------------------------

  int num_labels() const { return static_cast<int>(rank_.size()); }

  bool IsNonterminal(LabelId l) const {
    return rhs_[static_cast<size_t>(l)] != nullptr;
  }
  int Rank(LabelId l) const { return rank_[static_cast<size_t>(l)]; }
  // 1-based parameter index, 0 when l is not a parameter.
  int ParamIndex(LabelId l) const {
    return param_index_[static_cast<size_t>(l)];
  }
  // Right-hand side of nonterminal l (IsNonterminal must hold).
  const Tree& Rhs(LabelId l) const { return *rhs_[static_cast<size_t>(l)]; }
  NodeId RhsRoot(LabelId l) const { return rhs_root_[static_cast<size_t>(l)]; }
  // Nodes of val(l) excluding parameter substitutions (a rule's
  // material size); 1 for terminals (their own node), 0 for
  // parameters.
  int64_t SegTotal(LabelId l) const {
    return seg_total_[static_cast<size_t>(l)];
  }
  // Call sites of rule l in the bodies of every rule but the start
  // rule (whose calls a batch tracks itself, BatchUpdater); 0 for
  // non-rules.
  int32_t OuterRefs(LabelId l) const {
    return outer_refs_[static_cast<size_t>(l)];
  }

  // --- per rule (through the version's view of the rule's entry) --------

  // Node of parameter y_j (1-based) in l's right-hand side.
  NodeId ParamNode(LabelId l, int j) const {
    return views_[static_cast<size_t>(l)].param_nodes[j - 1];
  }
  // size(l, i) for i in 0..Rank(l) (paper §III-A).
  int64_t SegSize(LabelId l, int i) const {
    return views_[static_cast<size_t>(l)].seg_sizes[i];
  }

  int64_t StaticSize(LabelId rule, NodeId v) const {
    return views_[static_cast<size_t>(rule)]
        .static_size[static_cast<size_t>(v)];
  }
  // Non-⊥ material nodes of val(rule) (parameters contributing
  // nothing).
  int64_t MaterialElements(LabelId rule) const {
    return views_[static_cast<size_t>(rule)].material_elements;
  }

  // derived(v | arguments): static size plus the argument-size prefix
  // over the parameter interval under v. size_prefix[j] = derived
  // sizes of arguments 1..j summed, size_prefix[0] = 0 (Rank(rule) + 1
  // entries; never read for a rank-0 rule).
  int64_t DerivedIn(LabelId rule, NodeId v, const int64_t* size_prefix) const {
    const View& b = views_[static_cast<size_t>(rule)];
    return Combine(b, v, b.static_size[static_cast<size_t>(v)], size_prefix);
  }

  // The same combinator for any additive per-node measure: a caller
  // supplied per-node static value (occurrence counts, match counts;
  // an empty vector reads as all-zero) plus the caller's per-argument
  // prefix sums over the parameter interval under v.
  int64_t InContext(LabelId rule, NodeId v, const std::vector<int64_t>& values,
                    const int64_t* prefix) const {
    return Combine(views_[static_cast<size_t>(rule)], v,
                   values.empty() ? 0 : values[static_cast<size_t>(v)],
                   prefix);
  }

  // Whether `label` may occur in the material of val(rule). Hashed:
  // false positives possible, false negatives never.
  bool MayContain(LabelId rule, LabelId label) const {
    const View& b = views_[static_cast<size_t>(rule)];
    uint32_t h = FilterHash(label);
    return (b.filter[h >> 6] >> (h & 63)) & 1;
  }

  // Parameter interval under a body node (lo > hi means none below):
  // what DerivedIn and InContext combine with the caller's prefix
  // sums. Only tests read it directly.
  int32_t ParamLo(LabelId rule, NodeId v) const {
    const View& b = views_[static_cast<size_t>(rule)];
    return b.param_lo == nullptr ? kNoParamBelow
                                 : b.param_lo[static_cast<size_t>(v)];
  }
  int32_t ParamHi(LabelId rule, NodeId v) const {
    const View& b = views_[static_cast<size_t>(rule)];
    return b.param_hi == nullptr ? 0 : b.param_hi[static_cast<size_t>(v)];
  }

  // The static sizes of a rule's body nodes by NodeId (dead ids hold
  // 0), copied — e.g. to seed a BatchUpdater on the start rule.
  std::vector<int64_t> StaticSizes(LabelId rule) const {
    return entries_[static_cast<size_t>(rule)]->static_size;
  }
  // Call sites of each rule in the start rule's body, by LabelId
  // (labels interned after the build are absent: no calls), copied —
  // the other half of a BatchUpdater's seed.
  std::vector<int32_t> StartCalls(LabelId start) const {
    return entries_[static_cast<size_t>(start)]->calls;
  }

  // --- document totals --------------------------------------------------

  // Nodes of val(S) (the ⊥-inclusive binary preorder space) / its
  // non-⊥ element count, both saturating at kSizeCap.
  int64_t DerivedSize() const { return derived_size_; }
  int64_t DerivedElementCount() const { return derived_elements_; }
  // Grammar size in edges: body nodes minus one, summed over the rules
  // (ComputeStats' edge_count).
  int64_t EdgeCount() const { return edges_; }

 private:
  // One rule's entry. Immutable once built: versions share it.
  struct Entry {
    // All indexed by NodeId of the rule's rhs arena; the parameter
    // intervals stay empty for a rank-0 rule (none below any node).
    std::vector<int64_t> static_size;
    std::vector<int32_t> param_lo;
    std::vector<int32_t> param_hi;
    std::vector<NodeId> param_nodes;  // Rank entries
    std::vector<int64_t> seg_sizes;   // Rank + 1 entries
    // Hashed label filter over the rule's material (256 bits).
    std::array<uint64_t, 4> filter = {0, 0, 0, 0};
    int64_t material_elements = 0;
    int64_t nodes = 0;           // body nodes, for EdgeCount()
    std::vector<int32_t> calls;  // start rule only: StartCalls()
  };

  // A version's plain view of one rule's entry: the per-label array
  // element every per-rule read goes through.
  struct View {
    const int64_t* static_size = nullptr;
    const int32_t* param_lo = nullptr;  // null: a rank-0 rule
    const int32_t* param_hi = nullptr;
    const NodeId* param_nodes = nullptr;
    const int64_t* seg_sizes = nullptr;
    std::array<uint64_t, 4> filter = {0, 0, 0, 0};
    int64_t material_elements = 0;
  };

  // Scratch buffers one Build or Derive reuses across rules.
  struct Scratch;

  RuleIndex() = default;
  // Shares every entry; only Derive copies, then replaces some.
  RuleIndex(const RuleIndex&) = default;

  static uint32_t FilterHash(LabelId l) {
    return (static_cast<uint32_t>(l) * 2654435761u) >> 24;
  }

  static int64_t Combine(const View& b, NodeId v, int64_t x,
                         const int64_t* prefix) {
    if (b.param_lo == nullptr) return x;
    size_t vi = static_cast<size_t>(v);
    int32_t lo = b.param_lo[vi];
    int32_t hi = b.param_hi[vi];
    if (lo <= hi) {
      x = SizeSatAdd(x, prefix[static_cast<size_t>(hi)] -
                            prefix[static_cast<size_t>(lo) - 1]);
    }
    return x;
  }

  // Appends the label-level entries of labels [num_labels(), size).
  void AppendLabels(const LabelTable& labels);
  // Adds `delta` to OuterRefs of every call in t.
  void CountCalls(const Tree& t, int32_t delta);
  // Builds and installs rule r's entry and dense facts from body t;
  // its callees' must be final. `static_size`, when non-empty, is the
  // body's static-size table, taken instead of a recount. Counts t's
  // calls into OuterRefs unless r is the start rule.
  void BuildRule(LabelId r, const Tree& t, std::vector<int64_t> static_size,
                 Scratch& s);
  // Rule r's segment sizes into e from its static sizes and parameter
  // intervals.
  void BuildSegments(LabelId r, const Tree& t, Entry& e, Scratch& s) const;
  // Releases rule r's entry (if any) and its share of the totals.
  void ReleaseEntry(LabelId r);
  // Document totals, once every entry is final.
  void Finish();

  // Dense, indexed by LabelId (size = labels().size()).
  std::vector<int32_t> rank_;
  std::vector<int32_t> param_index_;
  std::vector<const Tree*> rhs_;  // nullptr for non-rules
  std::vector<NodeId> rhs_root_;  // kNilNode for non-rules
  std::vector<int64_t> seg_total_;
  std::vector<int32_t> outer_refs_;
  std::vector<View> views_;                            // empty for non-rules
  std::vector<std::shared_ptr<const Entry>> entries_;  // null for non-rules
  LabelId start_ = kNoLabel;
  int64_t derived_size_ = 0;
  int64_t derived_elements_ = 0;
  int64_t edges_ = 0;
};

// Where position k (1-based, in preorder of the call's derived
// subtree) lies under `call`, a call node of body t (paper §III-A):
// scans the callee's segment sizes size(B, 0..rank) against the
// arguments' derived sizes, arg_size(arg) in the caller's context.
// Returns the argument node whose derived subtree holds the position,
// with k rebased to it — the descent moves there and stays in the
// caller's body — or kNilNode when the position lies in the callee's
// own material, k unchanged: the callee's body root derives the same
// subtree as the call, so the descent enters the callee exactly when
// it must. Shared by SnapshotNav::LabelAt and BatchUpdater::Isolate
// (which inlines the call instead of entering it).
template <typename ArgSizeFn>
inline NodeId LocateInCall(const RuleIndex& index, const Tree& t,
                           NodeId call, int64_t& k, ArgSizeFn&& arg_size) {
  LabelId callee = t.label(call);
  int rank = index.Rank(callee);
  int64_t rest = k;
  NodeId arg = t.first_child(call);
  for (int i = 0; i < rank && arg != kNilNode;
       ++i, arg = t.next_sibling(arg)) {
    int64_t seg = index.SegSize(callee, i);
    if (rest <= seg) return kNilNode;
    rest -= seg;
    int64_t n = arg_size(arg);
    if (rest <= n) {
      k = rest;
      return arg;
    }
    rest -= n;
  }
  return kNilNode;
}

// Shared boundary-resolution core of the descents that enter every
// call on their path: GrammarCursor::ResolveDown, which walks the
// derived tree's structure, and SnapshotNav::FindLabel and the query
// engine's first-match descent, which steer by occurrence or match
// counts (the index keeps no per-segment totals for those).
// SnapshotNav::LabelAt steers by sizes and steps over arguments with
// LocateInCall instead. Advances (rule, node) — which may
// sit on a parameter or a call — across derivation boundaries until
// node is a terminal of rule's body:
//   * parameter y_j: pop() must remove the innermost frame and return
//     the enclosing (rule, call-node) pair; the descent resumes at the
//     call's j-th argument, in the caller's context;
//   * call to B: push(B) is invoked with (rule, node) still at the
//     call so the caller can capture its frame (argument prefix sums,
//     context); the descent then enters B's body root — the body root
//     derives the same subtree as the call, so any position/count
//     bookkeeping is unchanged.
template <typename PopFn, typename PushFn>
inline void ResolveToTerminal(const RuleIndex& index, LabelId& rule,
                              NodeId& node, PopFn&& pop, PushFn&& push) {
  for (;;) {
    const Tree& t = index.Rhs(rule);
    LabelId l = t.label(node);
    if (int pj = index.ParamIndex(l); pj > 0) {
      std::pair<LabelId, NodeId> up = pop();
      rule = up.first;
      node = index.Rhs(rule).Child(up.second, pj);
      continue;
    }
    if (index.IsNonterminal(l)) {
      push(l);
      rule = l;
      node = index.RhsRoot(l);
      continue;
    }
    return;  // terminal
  }
}

}  // namespace slg

#endif  // SLG_GRAMMAR_RULE_INDEX_H_
