#include "src/pipeline/merge.h"

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/value.h"
#include "src/pipeline/partition.h"
#include "src/update/update_ops.h"

namespace slg {

namespace {

// Preorder (label, child-count) byte string — equal strings iff the
// trees are node-for-node identical.
std::string RhsKey(const Tree& rhs) {
  std::string key;
  rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
    int32_t fields[2] = {rhs.label(v), rhs.NumChildren(v)};
    key.append(reinterpret_cast<const char*>(fields), sizeof(fields));
  });
  return key;
}

// Relabels every alias occurrence to its canonical rule and removes
// the alias rules.
void ApplyAliases(Grammar* g,
                  const std::unordered_map<LabelId, LabelId>& alias) {
  for (LabelId r : g->Nonterminals()) {
    if (alias.count(r) != 0) continue;  // about to be removed
    std::vector<std::pair<NodeId, LabelId>> relabel;
    const Tree& rhs = g->rhs(r);
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      auto it = alias.find(rhs.label(v));
      if (it != alias.end()) relabel.emplace_back(v, it->second);
    });
    if (relabel.empty()) continue;  // a body without aliases stays shared
    Tree& edit = g->mutable_rhs(r);
    for (const auto& [v, kept] : relabel) edit.set_label(v, kept);
  }
  for (const auto& [dup, kept] : alias) {
    (void)kept;
    g->RemoveRule(dup);
  }
}

// Streams the derived pattern of a rule — val(rule) with the rule's
// own parameters as leaves — in preorder, one label per Next() call,
// without materializing the tree. In a valid grammar every derived
// node has exactly rank(label) children, so the label stream alone
// determines the tree.
class DerivedPatternWalker {
 public:
  DerivedPatternWalker(const Grammar& g, LabelId rule) : g_(g) {
    const Tree& body = g.rhs(rule);
    stack_.push_back(Node{&body, body.root(), -1});
  }

  // kNoLabel once the pattern is exhausted.
  LabelId Next() {
    while (!stack_.empty()) {
      Node n = stack_.back();
      stack_.pop_back();
      LabelId l = n.t->label(n.v);
      int pidx = g_.labels().ParamIndex(l);
      if (pidx > 0 && n.ctx >= 0) {
        // Inner parameter: continue into the argument bound at the
        // call that entered this rule body.
        stack_.push_back(ctxs_[static_cast<size_t>(n.ctx)]
                             .args[static_cast<size_t>(pidx - 1)]);
        continue;
      }
      if (g_.HasRule(l)) {
        // Call: derived tree continues with the callee's body, its
        // parameters bound to this node's children.
        Ctx c;
        for (NodeId ch = n.t->first_child(n.v); ch != kNilNode;
             ch = n.t->next_sibling(ch)) {
          c.args.push_back(Node{n.t, ch, n.ctx});
        }
        ctxs_.push_back(std::move(c));
        const Tree& body = g_.rhs(l);
        stack_.push_back(
            Node{&body, body.root(), static_cast<int>(ctxs_.size()) - 1});
        continue;
      }
      // Terminal — or a parameter of the walked rule itself (ctx -1),
      // which stays a leaf of the pattern.
      kids_.clear();
      for (NodeId ch = n.t->first_child(n.v); ch != kNilNode;
           ch = n.t->next_sibling(ch)) {
        kids_.push_back(ch);
      }
      for (auto it = kids_.rbegin(); it != kids_.rend(); ++it) {
        stack_.push_back(Node{n.t, *it, n.ctx});
      }
      return l;
    }
    return kNoLabel;
  }

 private:
  struct Node {
    const Tree* t;
    NodeId v;
    int ctx;  // -1: parameters are the walked rule's own
  };
  struct Ctx {
    std::vector<Node> args;
  };
  const Grammar& g_;
  std::vector<Ctx> ctxs_;
  std::vector<Node> stack_;
  std::vector<NodeId> kids_;
};

bool DerivedPatternsEqual(const Grammar& g, LabelId a, LabelId b) {
  DerivedPatternWalker wa(g, a);
  DerivedPatternWalker wb(g, b);
  for (;;) {
    LabelId la = wa.Next();
    LabelId lb = wb.Next();
    if (la != lb) return false;
    if (la == kNoLabel) return true;
  }
}

// FNV-1a over the derived label stream: one walk per candidate, so
// grouping costs O(pattern) per rule instead of O(pattern) per pair.
uint64_t DerivedPatternHash(const Grammar& g, LabelId r) {
  uint64_t h = 1469598103934665603ULL;
  DerivedPatternWalker w(g, r);
  for (LabelId l = w.Next(); l != kNoLabel; l = w.Next()) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(l))) *
        1099511628211ULL;
  }
  return h;
}

// Nodes of each rule's derived pattern (parameters count as leaves),
// saturating; memoized over the call graph with an explicit stack.
std::unordered_map<LabelId, int64_t> DerivedPatternSizes(const Grammar& g) {
  std::unordered_map<LabelId, int64_t> size;
  for (LabelId r : g.Nonterminals()) {
    if (size.count(r) != 0) continue;
    std::vector<LabelId> work{r};
    while (!work.empty()) {
      LabelId cur = work.back();
      int64_t total = 0;
      bool ready = true;
      const Tree& rhs = g.rhs(cur);
      rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
        LabelId l = rhs.label(v);
        if (!g.HasRule(l)) {
          total = SizeSatAdd(total, 1);
          return;
        }
        auto it = size.find(l);
        if (it == size.end()) {
          if (ready) work.push_back(l);
          ready = false;
          return;
        }
        // A call contributes its pattern minus the parameter leaves
        // the arguments (already counted as subtree nodes) replace.
        total = SizeSatAdd(total, it->second - g.labels().Rank(l));
      });
      if (ready) {
        size[cur] = total;
        work.pop_back();
      }
    }
  }
  return size;
}

// Patterns larger than this stay unshared: bounding the lockstep walk
// keeps dedup O(cap) per candidate pair.
constexpr int64_t kDedupPatternCap = int64_t{1} << 22;

}  // namespace

int DedupIdenticalRules(Grammar* g) {
  int removed_total = 0;
  for (;;) {
    std::unordered_map<std::string, LabelId> canon;
    std::unordered_map<LabelId, LabelId> alias;
    for (LabelId r : g->Nonterminals()) {
      if (r == g->start()) continue;
      auto inserted = canon.emplace(RhsKey(g->rhs(r)), r);
      if (!inserted.second) alias.emplace(r, inserted.first->second);
    }
    if (alias.empty()) return removed_total;
    ApplyAliases(g, alias);
    removed_total += static_cast<int>(alias.size());
  }
}

int DedupEquivalentRules(Grammar* g) {
  std::unordered_map<LabelId, int64_t> sizes = DerivedPatternSizes(*g);

  // Bucket by (rank, derived size): only same-size patterns can match.
  std::unordered_map<int64_t, std::vector<LabelId>> buckets;
  for (LabelId r : g->Nonterminals()) {
    if (r == g->start()) continue;
    int64_t sz = sizes.at(r);
    if (sz > kDedupPatternCap) continue;
    int64_t key = sz * 16 + g->labels().Rank(r);  // ranks are tiny
    buckets[key].push_back(r);  // Nonterminals() order: deterministic
  }

  std::unordered_map<LabelId, LabelId> alias;
  for (auto& [key, members] : buckets) {
    (void)key;
    if (members.size() < 2) continue;
    // Subgroup by pattern hash, then verify within each subgroup —
    // pairwise walks only ever run on (almost certainly equal)
    // hash twins, never across a whole same-size bucket.
    std::unordered_map<uint64_t, std::vector<LabelId>> by_hash;
    for (LabelId r : members) by_hash[DerivedPatternHash(*g, r)].push_back(r);
    for (auto& [h, twins] : by_hash) {
      (void)h;
      if (twins.size() < 2) continue;
      std::vector<LabelId> reps;
      for (LabelId r : twins) {
        bool joined = false;
        for (LabelId rep : reps) {
          if (DerivedPatternsEqual(*g, rep, r)) {
            alias.emplace(r, rep);
            joined = true;
            break;
          }
        }
        if (!joined) reps.push_back(r);
      }
    }
  }
  if (alias.empty()) return 0;
  // Derived-equality already sees through decomposition, so no new
  // equalities appear after relabeling: one pass suffices.
  ApplyAliases(g, alias);
  // Unlike structurally identical twins (whose callees the kept twin
  // still references), an equivalent rule may factorize through
  // private helpers that just lost their only caller — sweep them.
  CollectGarbageRules(g);
  return static_cast<int>(alias.size());
}

Grammar MergeShardGrammars(const std::vector<Grammar>& shards,
                           const LabelTable& base, LabelId hole) {
  SLG_CHECK_MSG(!shards.empty(), "nothing to merge");
  const int k = static_cast<int>(shards.size());

  Grammar merged;
  LabelTable& mt = merged.labels();
  // Seed with the partition table: terminals keep their ids, and
  // every document tag name is taken before any rule name is minted —
  // a document tag spelled "P0" or "X0" can therefore never collide
  // with a fresh rule label (Fresh skips taken names).
  mt = base;
  const LabelId base_size = static_cast<LabelId>(base.size());

  // Segment rules first, so P_1..P_k lead the rule order: inner
  // segments are rank 1 (the hole becomes y1), the last is rank 0.
  std::vector<LabelId> pid(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    pid[static_cast<size_t>(i)] = mt.Fresh("P", i + 1 < k ? 1 : 0);
  }

  for (int i = 0; i < k; ++i) {
    const Grammar& sg = shards[static_cast<size_t>(i)];
    const LabelTable& st = sg.labels();
    LabelId param1 = mt.Param(1);

    // Every shard nonterminal gets a fresh merged label up front —
    // different shards' "X0" are different rules and must not unify by
    // name the way terminals do.
    std::unordered_map<LabelId, LabelId> map;
    map.emplace(sg.start(), pid[static_cast<size_t>(i)]);
    for (LabelId r : sg.Nonterminals()) {
      if (r != sg.start()) map.emplace(r, mt.Fresh("X", st.Rank(r)));
    }

    bool in_start = false;
    auto map_label = [&](LabelId l) -> LabelId {
      auto it = map.find(l);
      if (it != map.end()) return it->second;
      if (l == hole) {
        // The partitioner puts the hole in the segment itself; it
        // occurs once, so TreeRePair can never fold it into a digram
        // rule — it must still sit in the start rule's body.
        SLG_CHECK_MSG(in_start, "hole leaked into a non-start rule");
        return param1;
      }
      // Base labels (terminals, pre-interned params) map to
      // themselves; anything the shard run appended beyond the base
      // is a parameter interned by MakePattern — its rules are all in
      // `map` already.
      if (l < base_size) return l;
      int pi = st.ParamIndex(l);
      SLG_CHECK_MSG(pi > 0, "unexpected shard-local non-param label");
      LabelId m = mt.Param(pi);
      map.emplace(l, m);
      return m;
    };

    for (LabelId r : sg.Nonterminals()) {
      in_start = r == sg.start();
      const Tree& rhs = sg.rhs(r);
      merged.AddRule(map.at(r),
                     CopySubtreeMapped(rhs, rhs.root(), kNilNode, kNoLabel,
                                       map_label));
    }
  }

  // Start-rule composition: S -> P_1(P_2(...P_k)).
  LabelId s = mt.Fresh("S", 0);
  Tree chain;
  NodeId prev = chain.NewNode(pid[0]);
  chain.SetRoot(prev);
  for (int i = 1; i < k; ++i) {
    NodeId c = chain.NewNode(pid[static_cast<size_t>(i)]);
    chain.AppendChild(prev, c);
    prev = c;
  }
  merged.AddRule(s, std::move(chain));
  merged.set_start(s);
  // Cheap structural pass first (shrinks the rule set), then the
  // derived-pattern pass for cross-shard towers that factorized
  // differently.
  DedupIdenticalRules(&merged);
  DedupEquivalentRules(&merged);
  return merged;
}

}  // namespace slg
