// RuleMeta — flat, cache-resident per-label metadata for the
// navigation hot paths.
//
// GrammarCursor, path isolation and the size computations all need the
// same per-rule facts on every step: is this label a nonterminal, what
// is its rank, where is its right-hand side's root, where does its
// j-th parameter sit, and how large are its parameter segments
// (paper §III-A). The Grammar answers these through unordered_map
// lookups (rule_index_) and tree searches (FindParamNode) — hash
// tables on the critical path. A RuleMeta is a snapshot of those
// answers in contiguous vectors indexed by LabelId, so every per-step
// query is a bounds-free array load.
//
// A RuleMeta is a *snapshot*: it borrows the grammar's rule trees and
// must be discarded after any mutation of the grammar's rule set or
// label table. Mutating the *interior* of an rhs tree (e.g. path
// isolation inlining calls into the start rule) keeps the snapshot
// valid: rule identity, ranks, roots, parameters and segment sizes of
// the rules themselves are unchanged. Derive() brings a snapshot
// forward to an edited clone of its grammar at the cost of the rules
// that changed.

#ifndef SLG_GRAMMAR_RULE_META_H_
#define SLG_GRAMMAR_RULE_META_H_

#include <cstdint>
#include <vector>

#include "src/grammar/grammar.h"

namespace slg {

class RuleMeta {
 public:
  // Builds the structural tables; when `with_sizes` is set, also the
  // flattened parameter-segment sizes (one extra bottom-up grammar
  // pass — skip it for pure cursor navigation, which never needs
  // sizes).
  static RuleMeta Build(const Grammar& g, bool with_sizes);

  // Appends entries for labels interned after this snapshot was built.
  // Only valid while the rule set is unchanged — every new label must
  // be a terminal (or parameter), e.g. fresh rename targets during a
  // batched update run. Keeps the snapshot usable without the full
  // O(|G|) rebuild.
  void ExtendForNewLabels(const Grammar& g);

  // The with-sizes snapshot of g, a clone of parent's grammar that was
  // edited since: parent's flat arrays, extended for new labels, with
  // the `removed` rules cleared and the `rebuilt` rules (callees first)
  // recomputed. Every other rule of g must still hold the very body
  // parent indexes, with callees whose sizes are unchanged.
  // `start_sizes`, when non-empty, are the static sizes of g's start
  // rule by NodeId; a rebuilt rank-0 start rule then takes its one
  // segment from the root's entry instead of a walk.
  static RuleMeta Derive(const RuleMeta& parent, const Grammar& g,
                         const std::vector<LabelId>& rebuilt,
                         const std::vector<LabelId>& removed,
                         const std::vector<int64_t>& start_sizes);

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

  // Node of parameter y_j (1-based) in l's right-hand side.
  NodeId ParamNode(LabelId l, int j) const {
    return param_nodes_[static_cast<size_t>(
        param_offset_[static_cast<size_t>(l)] + j - 1)];
  }

  // size(l, i) for i in 0..Rank(l): nodes of val(l) before y1, between
  // consecutive parameters, and after the last one. Only available
  // when built with_sizes.
  int64_t SegSize(LabelId l, int i) const {
    return seg_sizes_[static_cast<size_t>(
        seg_offset_[static_cast<size_t>(l)] + i)];
  }
  // Total nodes of val(l) excluding parameter substitutions; 1 for
  // terminals (their own node), 0 for parameters.
  int64_t SegTotal(LabelId l) const {
    return seg_total_[static_cast<size_t>(l)];
  }

  // Call sites of rule l in the bodies of every rule but the start
  // rule (whose calls a batch tracks itself, BatchUpdater); 0 for
  // non-rules.
  int32_t OuterRefs(LabelId l) const {
    return outer_refs_[static_cast<size_t>(l)];
  }

 private:
  // Appends the label-level entries of labels [num_labels(), size).
  void AppendLabels(const LabelTable& labels);
  // Rule lhs's structural entries (body root, parameter nodes); a rule
  // that had a parameter slot keeps it (a label's rank never changes).
  void SetRule(LabelId lhs, const Tree& rhs);
  // Rule a's parameter-segment sizes; its callees' must be final.
  void ComputeSizes(LabelId a);
  // Adds `delta` to OuterRefs of every call in t (calls per this
  // snapshot's rule set).
  void CountCalls(const Tree& t, int32_t delta);

  // All vectors below are indexed by LabelId (size = labels().size()).
  std::vector<int32_t> rank_;
  std::vector<int32_t> param_index_;
  std::vector<const Tree*> rhs_;       // nullptr for non-rules
  std::vector<NodeId> rhs_root_;       // kNilNode for non-rules
  std::vector<int32_t> param_offset_;  // into param_nodes_; -1 non-rules
  std::vector<NodeId> param_nodes_;    // Rank(l) entries per rule
  std::vector<int32_t> seg_offset_;    // into seg_sizes_; -1 non-rules
  std::vector<int64_t> seg_sizes_;     // Rank(l)+1 entries per rule
  std::vector<int64_t> seg_total_;
  std::vector<int32_t> outer_refs_;
  LabelId start_ = kNoLabel;
};

}  // namespace slg

#endif  // SLG_GRAMMAR_RULE_META_H_
