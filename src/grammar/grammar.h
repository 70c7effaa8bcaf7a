// Straight-line linear context-free (SLCF) tree grammar (paper §II).
//
// A Grammar owns a LabelTable and a set of rules  A -> t_A,  where A is
// a label (the nonterminal) of rank m and t_A is a tree over terminals,
// nonterminals and the parameters y1..ym (each occurring exactly once,
// in preorder order — the TreeRePair invariant all algorithms here
// maintain). A label is a *nonterminal* of the grammar iff the grammar
// currently has a rule for it; everything else (except parameters) is a
// terminal. The distinguished start nonterminal S has rank 0 and is not
// referenced by any rule.
//
// Rule iteration order is the order of rule creation and is
// deterministic, which keeps every algorithm in the library (and thus
// every benchmark number) reproducible.
//
// Rule bodies are shared between clones, copy-on-write: Clone() copies
// the rule table, not the trees, and shares the label table (which
// copies itself on its first mutation, see label_table.h). rhs() is a
// read-only view and never copies; mutable_rhs() is the one way to
// edit a body, and copies it first when another grammar still holds
// it. So an edit never reaches a clone, and a clone costs O(rules)
// however large the bodies and the alphabet are. A reference from rhs() stays
// valid until this grammar's next mutable_rhs()/set_rhs()/RemoveRule()
// of the same rule — take it again after editing.

#ifndef SLG_GRAMMAR_GRAMMAR_H_
#define SLG_GRAMMAR_GRAMMAR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/tree/label_table.h"
#include "src/tree/tree.h"

namespace slg {

// A node inside a specific rule's right-hand side: the implementation
// counterpart of the paper's (R, n) addressing, with a stable NodeId
// instead of a preorder index.
struct RuleNode {
  LabelId rule = kNoLabel;
  NodeId node = kNilNode;

  bool operator==(const RuleNode& o) const {
    return rule == o.rule && node == o.node;
  }
};

struct RuleNodeHash {
  size_t operator()(const RuleNode& rn) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(rn.rule)) << 32) ^
        static_cast<uint32_t>(rn.node));
  }
};

class Grammar {
 public:
  Grammar() = default;

  // Grammars are heavyweight; copying is explicit via Clone().
  Grammar(const Grammar&) = delete;
  Grammar& operator=(const Grammar&) = delete;
  Grammar(Grammar&&) = default;
  Grammar& operator=(Grammar&&) = default;

  // A grammar deriving the same document whose rules share this one's
  // bodies until either side edits them. Safe to call concurrently
  // with edits of other grammars sharing the same bodies.
  Grammar Clone() const;

  LabelTable& labels() { return labels_; }
  const LabelTable& labels() const { return labels_; }

  // Adds rule lhs -> rhs. lhs must not already have a rule. The rank of
  // lhs (from the label table) must equal the number of parameters in
  // rhs; checked lazily by Validate(), eagerly only in debug builds.
  void AddRule(LabelId lhs, Tree rhs);

  // Removes the rule for lhs. The caller is responsible for having
  // removed or inlined all references first.
  void RemoveRule(LabelId lhs);

  bool HasRule(LabelId l) const {
    return static_cast<size_t>(l) < rule_index_.size() &&
           rule_index_[static_cast<size_t>(l)] >= 0;
  }
  bool IsNonterminal(LabelId l) const { return HasRule(l); }
  bool IsTerminal(LabelId l) const {
    return !HasRule(l) && !labels_.IsParam(l);
  }

  const Tree& rhs(LabelId l) const { return *rules_[IndexOf(l)].rhs; }
  // The body for editing: unshared first (one copy) if another grammar
  // holds it too.
  Tree& mutable_rhs(LabelId l);
  // Replaces l's body outright (no copy of the old one).
  void set_rhs(LabelId l, Tree rhs);
  // Tree::Compact() on every body no other grammar shares: the ones
  // this grammar built or edited. Shared bodies are left alone, so a
  // clone keeps sharing them (and, in a derived snapshot, their index
  // entries). NodeIds of the compacted bodies change; the derived
  // document does not.
  void CompactOwnedBodies();

  LabelId start() const { return start_; }
  void set_start(LabelId s) { start_ = s; }

  int RuleCount() const { return live_rules_; }

  // Nonterminals in rule-creation order (deterministic).
  std::vector<LabelId> Nonterminals() const;

  template <typename Fn>
  void ForEachRule(Fn&& fn) const {
    for (const StoredRule& r : rules_) {
      if (r.rhs != nullptr) fn(r.lhs, *r.rhs);
    }
  }

  // Convenience for the very common pattern "grammar for a plain tree":
  // wraps `t` as the single start rule S -> t.
  static Grammar ForTree(Tree t, LabelTable labels);

 private:
  struct StoredRule {
    LabelId lhs = kNoLabel;
    std::shared_ptr<Tree> rhs;  // null once the rule is removed
  };

  size_t IndexOf(LabelId l) const {
    SLG_CHECK_MSG(HasRule(l), "no rule for label");
    return static_cast<size_t>(rule_index_[static_cast<size_t>(l)]);
  }

  LabelTable labels_;
  // Bodies live behind the pointers, so AddRule never invalidates
  // references to other rules' trees (algorithms hold them across rule
  // creation, e.g. fragment export during version processing).
  std::vector<StoredRule> rules_;
  // Dense LabelId -> rules_ slot (-1 = no rule). rhs()/HasRule() are
  // the hottest calls in the whole library — every digram resolution
  // through TREEPARENT/TREECHILD does several — so this is a flat
  // array, not a hash map.
  std::vector<int64_t> rule_index_;
  LabelId start_ = kNoLabel;
  int live_rules_ = 0;
};

}  // namespace slg

#endif  // SLG_GRAMMAR_GRAMMAR_H_
