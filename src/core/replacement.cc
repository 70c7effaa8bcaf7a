#include "src/core/replacement.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/fragment_export.h"
#include "src/core/tree_links.h"
#include "src/grammar/inliner.h"
#include "src/grammar/orders.h"

namespace slg {

int64_t ReplaceLocalOccurrences(Tree* t, const Digram& alpha, LabelId x,
                                const Grammar& g, TrackedRuleHooks* hooks) {
  (void)g;
  // Top-down greedy preorder scan. The cursor walk is restarted from
  // the new X node after each replacement (its merged children can
  // participate in further matches below it, but X itself cannot:
  // x != alpha.parent_label).
  int64_t replaced = 0;
  if (t->empty()) return 0;
  NodeId cur = t->root();
  NodeId stop_parent = kNilNode;  // parent of root region
  for (;;) {
    bool matched = false;
    if (t->label(cur) == alpha.parent_label) {
      NodeId w = t->Child(cur, alpha.child_index);
      if (w != kNilNode && t->label(w) == alpha.child_label) {
        if (hooks != nullptr) {
          hooks->BeforeReplace(*t, cur, alpha.child_index);
        }
        NodeId x_node = ReplaceDigramNodes(t, cur, alpha.child_index, x);
        if (hooks != nullptr) hooks->AfterReplace(*t, x_node);
        ++replaced;
        cur = x_node;
        matched = true;
      }
    }
    (void)matched;
    // Advance preorder.
    if (t->first_child(cur) != kNilNode) {
      cur = t->first_child(cur);
      continue;
    }
    while (cur != kNilNode && t->next_sibling(cur) == kNilNode) {
      cur = t->parent(cur);
      if (cur == stop_parent) return replaced;
    }
    if (cur == kNilNode) return replaced;
    cur = t->next_sibling(cur);
  }
}

namespace {

// Flag sets: sorted unique ints; 0 encodes 'r', i > 0 encodes 'y_i'.
using FlagSet = std::vector<int>;

void AddFlag(FlagSet* f, int flag) {
  auto it = std::lower_bound(f->begin(), f->end(), flag);
  if (it == f->end() || *it != flag) f->insert(it, flag);
}

struct VersionKey {
  LabelId rule;
  FlagSet flags;
  bool operator==(const VersionKey& o) const {
    return rule == o.rule && flags == o.flags;
  }
};

struct VersionKeyHash {
  size_t operator()(const VersionKey& k) const {
    uint64_t h = static_cast<uint32_t>(k.rule);
    for (int f : k.flags) {
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(f + 1);
    }
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

class Engine {
 public:
  Engine(Grammar* g, const Digram& alpha, LabelId x, bool optimize,
         TrackedRuleHooks* hooks, const std::vector<int>* refs0,
         const std::vector<LabelId>* stale_zero_refs)
      : g_(g), alpha_(alpha), x_(x), optimize_(optimize), hooks_(hooks),
        refs0_in_(refs0), stale_zero_refs_(stale_zero_refs) {}

  ReplacementResult Run(const std::vector<RuleNode>& generators) {
    if (refs0_in_ != nullptr) {
      refs0_ = *refs0_in_;
    } else {
      // No caller-supplied counts: recount, and seed the dead sweep
      // with every rule already at zero (with caller counts those are
      // covered by stale_zero_refs instead).
      refs0_.assign(g_->labels().size(), 0);
      for (const auto& [r, n] : ComputeRefCounts(*g_)) {
        refs0_[static_cast<size_t>(r)] = n;
        if (n == 0) dead_candidates_.push_back(r);
      }
    }
    // Live reference counts, maintained through every grammar mutation
    // below; RemoveDeadRules reads them and visits only the rules
    // whose count was decremented, instead of recounting O(|G|) and
    // sweeping O(#rules).
    refs_ = refs0_;
    CollectBaseFlags(generators);
    if (optimize_) {
      DiscoverVersions();
      // Deterministic processing order: sort version keys. (Export
      // rule naming and thus the whole output grammar stays stable
      // across runs and platforms.)
      std::vector<VersionKey> keys;
      keys.reserve(version_uses_.size());
      for (const auto& [key, uses] : version_uses_) {
        (void)uses;
        keys.push_back(key);
      }
      std::sort(keys.begin(), keys.end(),
                [](const VersionKey& a, const VersionKey& b) {
                  return a.rule != b.rule ? a.rule < b.rule
                                          : a.flags < b.flags;
                });
      for (const VersionKey& key : keys) ProcessVersion(key);
      ProcessBasesOptimized();
    } else {
      PropagateSimpleFlags();
      ProcessSimple();
    }
    RemoveDeadRules();
    return std::move(result_);
  }

 private:
  // ---- flag collection -------------------------------------------------

  void CollectBaseFlags(const std::vector<RuleNode>& generators) {
    for (const RuleNode& gen : generators) {
      const Tree& t = g_->rhs(gen.rule);
      if (base_rules_set_.insert(gen.rule).second) {
        base_rules_.push_back(gen.rule);  // generators arrive sorted
      }
      if (g_->IsNonterminal(t.label(gen.node))) {
        AddFlag(&base_flags_[gen.rule][gen.node], 0);  // r
      }
      NodeId p = t.parent(gen.node);
      if (g_->IsNonterminal(t.label(p))) {
        AddFlag(&base_flags_[gen.rule][p], t.ChildIndex(gen.node));
      }
    }
  }

  // Call-site flags of `rule` under incoming version flags F, computed
  // on the given tree (the rule's pre-round right-hand side).
  std::unordered_map<NodeId, FlagSet> CallsiteFlags(LabelId rule,
                                                    const Tree& t,
                                                    const FlagSet& f) {
    std::unordered_map<NodeId, FlagSet> cs = base_flags_[rule];
    for (int flag : f) {
      if (flag == 0) {
        NodeId root = t.root();
        if (g_->IsNonterminal(t.label(root))) AddFlag(&cs[root], 0);
      } else {
        NodeId pv = FindParamNode(t, g_->labels(), flag);
        NodeId q = t.parent(pv);
        if (g_->IsNonterminal(t.label(q))) {
          AddFlag(&cs[q], t.ChildIndex(pv));
        }
      }
    }
    return cs;
  }

  // ---- optimized mode (Algorithms 6-8) ----------------------------------

  // Sorted (node, flags) view of a call-site flag map, for
  // deterministic iteration.
  static std::vector<std::pair<NodeId, FlagSet>> Sorted(
      const std::unordered_map<NodeId, FlagSet>& m) {
    std::vector<std::pair<NodeId, FlagSet>> v(m.begin(), m.end());
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return v;
  }

  void DiscoverVersions() {
    std::vector<VersionKey> work;
    auto register_uses = [&](LabelId rule, const Tree& t, const FlagSet& f) {
      for (const auto& [node, flags] : Sorted(CallsiteFlags(rule, t, f))) {
        VersionKey key{t.label(node), flags};
        if (++version_uses_[key] == 1) work.push_back(key);
      }
    };
    for (LabelId rule : base_rules_) register_uses(rule, g_->rhs(rule), {});
    for (size_t i = 0; i < work.size(); ++i) {
      VersionKey key = work[i];
      register_uses(key.rule, g_->rhs(key.rule), key.flags);
    }
  }

  const Tree& ProcessVersion(const VersionKey& key) {
    auto it = versions_.find(key);
    if (it != versions_.end()) return it->second;

    const Tree& original = g_->rhs(key.rule);
    Tree t;
    std::unordered_map<NodeId, NodeId> map;
    t.SetRoot(t.CopySubtreeFrom(original, original.root(), &map));

    // Inline every flagged call site with its processed sub-version.
    for (const auto& [node, flags] :
         Sorted(CallsiteFlags(key.rule, original, key.flags))) {
      const Tree& body = ProcessVersion(VersionKey{original.label(node), flags});
      InlineCall(*g_, &t, map.at(node), body);
    }

    result_.replacements += ReplaceLocalOccurrences(&t, alpha_, x_, *g_);

    // Fragment export (Alg. 8): worthwhile only if the rule is
    // referenced more than once (the version content will otherwise
    // exist in a single place).
    if (refs0_[static_cast<size_t>(key.rule)] > 1) {
      std::unordered_set<NodeId> marked;
      for (int flag : key.flags) {
        if (flag == 0) {
          marked.insert(t.root());
        } else {
          marked.insert(t.parent(FindParamNode(t, g_->labels(), flag)));
        }
      }
      if (!marked.empty()) {
        std::vector<LabelId> made = ExportFragmentsToNewRules(g_, &t, marked);
        for (LabelId u : made) {
          // The exported body left the scratch version tree and became
          // a grammar rule: its call sites are live references now
          // (references *to* the export rule materialize when the
          // version body is inlined or adopted).
          CountTreeRefs(g_->rhs(u), +1);
          result_.added_rules.push_back(u);
        }
      }
    }

    return versions_.emplace(key, std::move(t)).first->second;
  }

  void ProcessBasesOptimized() {
    // A rule that has versions adopts one version's processed body as
    // its own right-hand side (the paper rewrites the rule and its
    // versions jointly; any version body is a semantically equivalent
    // rewrite of t_R, the marks only steer the export split). The
    // most-used version maximizes sharing of the exported rules.
    std::unordered_map<LabelId, VersionKey> best;
    for (const auto& [key, uses] : version_uses_) {
      auto it = best.find(key.rule);
      if (it == best.end()) {
        best.emplace(key.rule, key);
        continue;
      }
      int cur = version_uses_[it->second];
      if (uses > cur || (uses == cur && key.flags < it->second.flags)) {
        it->second = key;
      }
    }
    std::unordered_set<LabelId> done;
    for (const auto& [rule, key] : best) {
      // A version-adopting rule is a callee; the tracked rule (the
      // driver's start rule) is never called, so wholesale body
      // adoption — which the hooks could not express — cannot hit it.
      SLG_CHECK(HooksFor(rule) == nullptr);
      const Tree& body = versions_.at(key);
      Tree copy;
      copy.SetRoot(copy.CopySubtreeFrom(body, body.root()));
      CountTreeRefs(g_->rhs(rule), -1);
      CountTreeRefs(copy, +1);
      g_->set_rhs(rule, std::move(copy));
      result_.changed_rules.push_back(rule);
      done.insert(rule);
    }
    for (LabelId rule : base_rules_) {
      if (done.count(rule) > 0) continue;
      Tree& t = g_->mutable_rhs(rule);
      TrackedRuleHooks* hooks = HooksFor(rule);
      // Targeted path for the tracked rule on a != b digrams: every
      // occurrence is in the generator list (no equal-label overlap
      // discipline), and after the flagged inlines each one
      // materializes either at an inlined copy's root ('r' flag) or at
      // a re-attached argument ('y_i' flag) — so replacing at those
      // anchors replaces everything, without the O(|tree|) scan.
      const bool targeted =
          hooks != nullptr && !(alpha_.parent_label == alpha_.child_label);
      std::vector<NodeId> anchors;
      std::unordered_set<NodeId> anchor_set;
      for (const auto& [node, flags] : Sorted(base_flags_[rule])) {
        const Tree& body = ProcessVersion(VersionKey{t.label(node), flags});
        if (targeted && anchor_set.count(node) > 0) {
          // This call site was anchored as an argument of an earlier
          // inline, but it is itself flagged: the inline below frees
          // the node, so its anchor moves to the copy root.
          anchor_set.erase(node);
          anchors.erase(std::find(anchors.begin(), anchors.end(), node));
        }
        std::vector<NodeId> args;
        for (NodeId c = t.first_child(node); c != kNilNode;
             c = t.next_sibling(c)) {
          args.push_back(c);
        }
        NodeId copy_root = InlineFlaggedCall(&t, node, body, hooks, args);
        if (targeted) {
          for (int flag : flags) {
            NodeId anchor = kNilNode;
            if (flag == 0) {
              anchor = copy_root;
            } else if (static_cast<size_t>(flag) <= args.size()) {
              anchor = args[static_cast<size_t>(flag) - 1];
            }
            if (anchor != kNilNode && anchor_set.insert(anchor).second) {
              anchors.push_back(anchor);
            }
          }
        }
      }
      if (targeted) {
        for (NodeId anchor : anchors) {
          if (t.label(anchor) != alpha_.child_label) continue;
          NodeId p = t.parent(anchor);
          if (p == kNilNode || t.label(p) != alpha_.parent_label) continue;
          if (t.Child(p, alpha_.child_index) != anchor) continue;
          hooks->BeforeReplace(t, p, alpha_.child_index);
          NodeId x_node = ReplaceDigramNodes(&t, p, alpha_.child_index, x_);
          hooks->AfterReplace(t, x_node);
          ++result_.replacements;
        }
      } else {
        result_.replacements +=
            ReplaceLocalOccurrences(&t, alpha_, x_, *g_, hooks);
      }
      result_.changed_rules.push_back(rule);
    }
  }

  // ---- simple mode (Algorithm 5) -----------------------------------------

  void PropagateSimpleFlags() {
    // Rule-level incoming flags; monotone fixpoint over the (acyclic)
    // call graph. A rule's flagged call sites are its base flags plus
    // the flags induced by the union of all flags it is called with.
    simple_cs_flags_ = base_flags_;
    std::unordered_map<LabelId, FlagSet> incoming;
    std::vector<LabelId> work;
    auto push_incoming = [&](LabelId callee, const FlagSet& flags) {
      if (!g_->IsNonterminal(callee)) return;
      FlagSet& cur = incoming[callee];
      size_t before = cur.size();
      for (int fl : flags) AddFlag(&cur, fl);
      if (cur.size() != before) work.push_back(callee);
    };
    for (const auto& [rule, cs] : base_flags_) {
      for (const auto& [node, flags] : cs) {
        push_incoming(g_->rhs(rule).label(node), flags);
      }
    }
    for (size_t i = 0; i < work.size(); ++i) {
      LabelId rule = work[i];
      const Tree& t = g_->rhs(rule);
      for (const auto& [node, flags] :
           CallsiteFlags(rule, t, incoming[rule])) {
        FlagSet& cur = simple_cs_flags_[rule][node];
        FlagSet merged = cur;
        for (int fl : flags) AddFlag(&merged, fl);
        if (merged != cur) {
          cur = merged;
        }
        // Propagate this call site's full flag set downstream; the
        // callee's incoming-set growth check bounds the fixpoint.
        push_incoming(t.label(node), cur);
      }
    }
  }

  void ProcessSimple() {
    // Anti-SL: callees are fully processed before their bodies are
    // inlined into callers (Algorithm 5's bottom-up loop).
    for (LabelId rule : AntiSlOrder(*g_)) {
      auto it = simple_cs_flags_.find(rule);
      bool has_generators = base_rules_set_.count(rule) > 0;
      if (it == simple_cs_flags_.end() && !has_generators) continue;
      Tree& t = g_->mutable_rhs(rule);
      TrackedRuleHooks* hooks = HooksFor(rule);
      if (it != simple_cs_flags_.end()) {
        for (const auto& [node, flags] : Sorted(it->second)) {
          (void)flags;
          std::vector<NodeId> args;
          for (NodeId c = t.first_child(node); c != kNilNode;
               c = t.next_sibling(c)) {
            args.push_back(c);
          }
          InlineFlaggedCall(&t, node, g_->rhs(t.label(node)), hooks, args);
        }
      }
      result_.replacements += ReplaceLocalOccurrences(&t, alpha_, x_, *g_, hooks);
      result_.changed_rules.push_back(rule);
    }
  }

  // ---- tracked-rule hook plumbing ----------------------------------------

  TrackedRuleHooks* HooksFor(LabelId rule) const {
    return hooks_ != nullptr && hooks_->rule() == rule ? hooks_ : nullptr;
  }

  // InlineCall into a *grammar* rule body, with the hook bracket and
  // live reference-count maintenance: the consumed call releases one
  // reference, the inlined copy's own call sites add theirs. args keep
  // their NodeIds across the inline (arguments are moved), so the
  // hooks can delta-update exactly the fresh region.
  NodeId InlineFlaggedCall(Tree* t, NodeId call, const Tree& body,
                           TrackedRuleHooks* hooks,
                           const std::vector<NodeId>& args) {
    LabelId callee = t->label(call);
    --Ref(callee);
    dead_candidates_.push_back(callee);
    if (hooks != nullptr) hooks->BeforeInline(*t, call, args);
    std::vector<NodeId> new_calls;
    NodeId copy_root = InlineCall(*g_, t, call, body, &new_calls);
    for (NodeId n : new_calls) ++Ref(t->label(n));
    if (hooks != nullptr) hooks->AfterInline(*t, copy_root, args);
    return copy_root;
  }

  // Reference-count deltas for a whole tree entering (+1) or leaving
  // (-1) the grammar — version adoption and fragment export.
  // Decremented rules become dead-sweep candidates.
  void CountTreeRefs(const Tree& t, int delta) {
    t.VisitPreorder(t.root(), [&](NodeId v) {
      LabelId l = t.label(v);
      if (!g_->IsNonterminal(l)) return;
      Ref(l) += delta;
      if (delta < 0) dead_candidates_.push_back(l);
    });
  }

  // Live count slot for a label; fresh labels (export rules interned
  // mid-round, x_) live past the entry-time array size.
  int& Ref(LabelId l) {
    size_t idx = static_cast<size_t>(l);
    if (idx >= refs_.size()) refs_.resize(idx + 1, 0);
    return refs_[idx];
  }

  // ---- cleanup -----------------------------------------------------------

  void RemoveDeadRules() {
    // The live counts were maintained through every mutation above, so
    // no recount is needed — and only a rule whose count was
    // decremented this round (or that entered the round at zero:
    // stale_zero_refs / the recount fallback) can have reached zero,
    // so those candidates are the whole sweep. Removing a rule
    // releases its body's references, which may strand further rules
    // (worklist fixpoint). The dead set is a fixpoint independent of
    // visit order; candidates are sorted for a deterministic
    // removed_rules sequence.
    std::vector<LabelId> cand = std::move(dead_candidates_);
    if (stale_zero_refs_ != nullptr) {
      cand.insert(cand.end(), stale_zero_refs_->begin(),
                  stale_zero_refs_->end());
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    std::vector<LabelId> dead;
    for (LabelId r : cand) {
      if (g_->HasRule(r) && r != g_->start() && Ref(r) == 0) dead.push_back(r);
    }
    for (size_t i = 0; i < dead.size(); ++i) {
      LabelId r = dead[i];
      const Tree& body = g_->rhs(r);
      body.VisitPreorder(body.root(), [&](NodeId v) {
        LabelId l = body.label(v);
        if (!g_->IsNonterminal(l)) return;
        if (--Ref(l) == 0 && l != g_->start()) dead.push_back(l);
      });
      g_->RemoveRule(r);
      result_.removed_rules.push_back(r);
    }
    // changed_rules may contain rules that were subsequently removed;
    // filter them out.
    auto& cr = result_.changed_rules;
    cr.erase(std::remove_if(cr.begin(), cr.end(),
                            [&](LabelId r) { return !g_->HasRule(r); }),
             cr.end());
    auto& ar = result_.added_rules;
    ar.erase(std::remove_if(ar.begin(), ar.end(),
                            [&](LabelId r) { return !g_->HasRule(r); }),
             ar.end());
  }

  Grammar* g_;
  Digram alpha_;
  LabelId x_;
  bool optimize_;
  TrackedRuleHooks* hooks_;
  const std::vector<int>* refs0_in_;
  const std::vector<LabelId>* stale_zero_refs_;
  std::vector<int> refs_;
  std::vector<LabelId> dead_candidates_;

  std::vector<LabelId> base_rules_;
  std::unordered_set<LabelId> base_rules_set_;
  std::vector<int> refs0_;
  std::unordered_map<LabelId, std::unordered_map<NodeId, FlagSet>> base_flags_;
  std::unordered_map<VersionKey, int, VersionKeyHash> version_uses_;
  std::unordered_map<VersionKey, Tree, VersionKeyHash> versions_;
  std::unordered_map<LabelId, std::unordered_map<NodeId, FlagSet>>
      simple_cs_flags_;

  ReplacementResult result_;
};

}  // namespace

ReplacementResult ReplaceAllOccurrences(
    Grammar* g, const Digram& alpha, LabelId x,
    const std::vector<RuleNode>& generators, bool optimize,
    TrackedRuleHooks* hooks, const std::vector<int>* refs0,
    const std::vector<LabelId>* stale_zero_refs) {
  return Engine(g, alpha, x, optimize, hooks, refs0, stale_zero_refs)
      .Run(generators);
}

}  // namespace slg
