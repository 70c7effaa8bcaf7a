// RuleSummary — the shared per-rule summary layer of the read stack.
//
// Every read surface used to re-derive the same per-rule facts
// privately: SnapshotNav built static-size/parameter-interval tables
// in its constructor, GrammarCursor kept its own descent
// boundary-resolution loop, and snapshot statistics re-walked the DAG
// through ValueElementCount / DerivedSubtreeSizes. A RuleSummary is
// that knowledge computed once — at snapshot publish time, off the
// writer lock — and consumed by SnapshotNav, GrammarCursor (via the
// shared descent helper below), the CompressedXmlTree /
// DocumentService read surfaces and the query engine (src/query/).
//
// Per rule body node v it stores
//   static_size[v] — nodes of the tree v derives with every parameter
//       substituted by the empty context (sum of SegTotal over the
//       subtree), and
//   the contiguous interval of parameter indices occurring under v
//       (parameters occur exactly once each, in preorder order — the
//       TreeRePair invariant — so the indices under any subtree form
//       an interval).
// With per-call prefix sums over actual argument sizes, any additive
// per-node measure in context is then O(1) (DerivedIn / InContext).
//
// Per rule it additionally stores
//   * a 256-bit hashed label filter over the material of val(rule)
//     (descendant-label reachability; false positives possible, false
//     negatives never) — the query engine's pruning index,
//   * the element (non-⊥) count of the rule's material, giving
//     document element counts without ValueElementCount's extra pass,
//   * exact first-occurrence offsets: for each label occurring in the
//     material of val(rule), the number of material nodes before its
//     first occurrence in derived order plus the count of the rule's
//     parameters preceding it — enough to compute the absolute derived
//     position of that occurrence at any call site in O(1) from the
//     argument-size prefix (built only for rules whose bodies are
//     small, which is every rule TreeRePair mints, and never for the
//     start rule, whose table no descent consults since descents begin
//     there; consumers fall back to the plain descent when absent),
// and for the start rule only, the call sites of each rule in its body
// (the garbage-collection counts a batch starts from).
//
// All sizes saturate at kSizeCap (value.h); a first-occurrence table
// that would saturate is dropped rather than stored approximately.
//
// A RuleSummary is a snapshot: it borrows nothing but is only valid
// for the grammar/meta it was built from and must be discarded after
// any mutation. All queries are const — share one instance between
// any number of threads.
//
// Each rule's summary is an immutable entry shared by every version
// whose grammar still holds the same body over the same callees:
// Derive() brings a summary forward to an edited clone of its grammar
// by rebuilding only the entries of the rules that changed (after a
// batch, just the start rule). A version keeps a flat per-label array
// of plain views into the entries, so a read costs the loads it would
// on an inline table.

#ifndef SLG_GRAMMAR_RULE_SUMMARY_H_
#define SLG_GRAMMAR_RULE_SUMMARY_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/value.h"

namespace slg {

// Bottom-up static sizes for every node of one rule body (or the
// start rule's tree), indexed by NodeId (dead ids hold 0). The one
// implementation shared by RuleSummary::Build and the update path's
// DerivedSubtreeSizes. `meta` must be a with-sizes snapshot.
std::vector<int64_t> ComputeStaticSizes(const Tree& t, const RuleMeta& meta);

class RuleSummary {
 public:
  // Sentinel for "no parameter below this node": any real parameter
  // index compares smaller.
  static constexpr int32_t kNoParamBelow = std::numeric_limits<int32_t>::max();

  // First occurrence of a label in a rule's material: `offset`
  // material nodes precede it in derived order, `params_before` of the
  // rule's parameters precede it. Its absolute offset inside any
  // instantiation is offset + sum of the first params_before argument
  // sizes.
  struct FirstOcc {
    int64_t offset = 0;
    int32_t params_before = 0;
  };

  // One bottom-up pass per rule body plus one anti-SL pass over the
  // rule DAG. `meta` must be a with-sizes snapshot of g.
  static RuleSummary Build(const Grammar& g, const RuleMeta& meta);

  // The summary of g, a clone of parent's grammar that was edited
  // since (the same contract as RuleMeta::Derive, whose result `meta`
  // is): parent's entries, shared, minus the `removed` rules, with the
  // `rebuilt` ones (callees first) recomputed. `start_sizes`, when
  // non-empty, are the static sizes of g's start rule by NodeId (the
  // table BatchUpdater maintains), taken instead of a recount. Equals
  // Build(g, meta) as long as the first-occurrence entry total stays
  // under its cap; past it, which rules keep a table may differ (never
  // an answer: a missing table is a fallback).
  static RuleSummary Derive(const RuleSummary& parent, const Grammar& g,
                            const RuleMeta& meta,
                            const std::vector<LabelId>& rebuilt,
                            const std::vector<LabelId>& removed,
                            std::vector<int64_t> start_sizes);

  RuleSummary(RuleSummary&&) = default;
  RuleSummary& operator=(RuleSummary&&) = default;

  int num_labels() const { return static_cast<int>(views_.size()); }

  // Nodes of val(S) (the ⊥-inclusive binary preorder space) / its
  // non-⊥ element count, both saturating at kSizeCap.
  int64_t DerivedSize() const { return derived_size_; }
  int64_t DerivedElementCount() const { return derived_elements_; }
  // Grammar size in edges: body nodes minus one, summed over the rules
  // (ComputeStats' edge_count).
  int64_t EdgeCount() const { return edges_; }

  int64_t StaticSize(LabelId rule, NodeId v) const {
    return views_[static_cast<size_t>(rule)]
        .static_size[static_cast<size_t>(v)];
  }
  // Material nodes / non-⊥ material nodes of val(rule) (parameters
  // contributing nothing).
  int64_t MaterialSize(LabelId rule) const {
    return views_[static_cast<size_t>(rule)].material_size;
  }
  int64_t MaterialElements(LabelId rule) const {
    return views_[static_cast<size_t>(rule)].material_elements;
  }

  // derived(v | arguments): static size plus the argument-size prefix
  // over the parameter interval under v. size_prefix[j] = derived
  // sizes of arguments 1..j summed, size_prefix[0] = 0.
  int64_t DerivedIn(LabelId rule, NodeId v,
                    const std::vector<int64_t>& size_prefix) const {
    const View& b = views_[static_cast<size_t>(rule)];
    return Combine(b, v, b.static_size[static_cast<size_t>(v)], size_prefix);
  }

  // The same combinator for any additive per-node measure: a caller
  // supplied per-node static value (occurrence counts, match counts;
  // an empty vector reads as all-zero) plus the caller's per-argument
  // prefix sums over the parameter interval under v.
  int64_t InContext(LabelId rule, NodeId v, const std::vector<int64_t>& values,
                    const std::vector<int64_t>& prefix) const {
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

  // First occurrence of `label` in the material of val(rule), or
  // nullopt when the rule's first-occurrence table was not built (big
  // body, saturated sizes, capped) — never a wrong answer.
  std::optional<FirstOcc> FirstOccurrence(LabelId rule, LabelId label) const;

  // Parameter interval under a body node (lo > hi means none below) —
  // exposed for consumers that roll their own prefix combination.
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

 private:
  // One rule's summary. Immutable once built: versions share it.
  struct Entry {
    // All indexed by NodeId of the rule's rhs arena; the parameter
    // intervals stay empty for a rank-0 rule (none below any node).
    std::vector<int64_t> static_size;
    std::vector<int32_t> param_lo;
    std::vector<int32_t> param_hi;
    // Hashed label filter over the rule's material (256 bits).
    std::array<uint64_t, 4> filter = {0, 0, 0, 0};
    int64_t material_size = 0;
    int64_t material_elements = 0;
    int64_t nodes = 0;  // body nodes, for EdgeCount()
    std::vector<int32_t> calls;  // start rule only: StartCalls()
    // First-occurrence table, parallel vectors sorted by label;
    // fo_exact marks it as built (absent tables are a fallback, not an
    // error). fo_order holds the table indices in derived order, which
    // callers' table builds consume.
    bool fo_exact = false;
    std::vector<LabelId> fo_labels;
    std::vector<int64_t> fo_offsets;
    std::vector<int32_t> fo_params;
    std::vector<int32_t> fo_order;
  };

  // A version's plain view of one rule's entry: the per-label array
  // element every read goes through.
  struct View {
    const int64_t* static_size = nullptr;
    const int32_t* param_lo = nullptr;  // null: a rank-0 rule
    const int32_t* param_hi = nullptr;
    std::array<uint64_t, 4> filter = {0, 0, 0, 0};
    int64_t material_size = 0;
    int64_t material_elements = 0;
    const LabelId* fo_labels = nullptr;  // null: no table
    const int64_t* fo_offsets = nullptr;
    const int32_t* fo_params = nullptr;
    size_t fo_count = 0;
  };

  RuleSummary() = default;
  // Shares every entry; only Derive copies, then replaces some.
  RuleSummary(const RuleSummary&) = default;

  static uint32_t FilterHash(LabelId l) {
    return (static_cast<uint32_t>(l) * 2654435761u) >> 24;
  }

  static int64_t Combine(const View& b, NodeId v, int64_t x,
                         const std::vector<int64_t>& prefix) {
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

  // Builds and installs rule r's entry from its body's static sizes;
  // its callees' entries must be final.
  void BuildRule(LabelId r, const Tree& t, const RuleMeta& meta, bool is_start,
                 std::vector<int64_t> static_size);
  // Removes rule r's entry (if any) and its share of the totals.
  void DropRule(LabelId r);
  // Rule r's first-occurrence table into e (respecting the body-size
  // and total-entry caps).
  void BuildFirstOcc(LabelId r, const Tree& t, const RuleMeta& meta,
                     Entry& e);
  // Start-rule totals, once every entry is final.
  void Finish(const Grammar& g, const RuleMeta& meta);

  std::vector<View> views_;  // by LabelId; empty for non-rules
  std::vector<std::shared_ptr<const Entry>> entries_;  // by LabelId
  int64_t derived_size_ = 0;
  int64_t derived_elements_ = 0;
  int64_t edges_ = 0;
  int64_t fo_total_ = 0;  // first-occurrence entries over all tables
};

// Shared boundary-resolution core of every root-to-position descent
// (GrammarCursor::ResolveDown, SnapshotNav's walks, the query
// engine's first-match descent). Advances (rule, node) — which may
// sit on a parameter or a call — across derivation boundaries until
// node is a terminal of rule's body:
//   * parameter y_j: pop() must remove the innermost frame and return
//     the enclosing (rule, call-node) pair; the descent resumes at the
//     call's j-th argument, in the caller's context;
//   * call to B: push(B) is invoked with (rule, node) still at the
//     call so the caller can capture its frame (argument prefix sums,
//     context); returning true enters B's body root — the body root
//     derives the same subtree as the call, so any position/count
//     bookkeeping is unchanged — while false stops the resolution at
//     the call node (e.g. a shortcut answered the query).
template <typename PopFn, typename PushFn>
inline void ResolveToTerminal(const RuleMeta& meta, LabelId& rule,
                              NodeId& node, PopFn&& pop, PushFn&& push) {
  for (;;) {
    const Tree& t = meta.Rhs(rule);
    LabelId l = t.label(node);
    if (int pj = meta.ParamIndex(l); pj > 0) {
      std::pair<LabelId, NodeId> up = pop();
      rule = up.first;
      node = meta.Rhs(rule).Child(up.second, pj);
      continue;
    }
    if (meta.IsNonterminal(l)) {
      if (!push(l)) return;
      rule = l;
      node = meta.RhsRoot(l);
      continue;
    }
    return;  // terminal
  }
}

}  // namespace slg

#endif  // SLG_GRAMMAR_RULE_SUMMARY_H_
