#include "src/dag/value_dag.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/grammar/orders.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tree/tree_hash.h"

namespace slg {

namespace {

uint64_t SigHash(LabelId label, const DagId* children, int num_children) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h ^= static_cast<uint64_t>(static_cast<uint32_t>(label));
  h *= 0x100000001b3ULL;
  for (int i = 0; i < num_children; ++i) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(children[i]));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

DagId DagPool::Intern(LabelId label, const DagId* children, int num_children) {
  uint64_t h = SigHash(label, children, num_children);
  std::vector<DagId>& bucket = buckets_[h];
  for (DagId cand : bucket) {
    const Node& n = nodes_[Index(cand)];
    if (n.label != label || n.num_children != num_children) continue;
    const DagId* kids = children_.data() + n.first_child;
    if (std::equal(kids, kids + num_children, children)) return cand;
  }
  Node n;
  n.label = label;
  n.first_child = static_cast<int32_t>(children_.size());
  n.num_children = num_children;
  for (int i = 0; i < num_children; ++i) {
    n.tree_size = SizeSatAdd(n.tree_size, TreeSize(children[i]));
  }
  children_.insert(children_.end(), children, children + num_children);
  DagId id = static_cast<DagId>(nodes_.size());
  nodes_.push_back(n);
  bucket.push_back(id);
  return id;
}

StatusOr<NodeId> DagPool::Unfold(DagId d, Tree* out, int64_t max_nodes) const {
  if (TreeSize(d) > max_nodes) {
    return Status::OutOfRange("DAG unfolding exceeds node budget of " +
                              std::to_string(max_nodes) + " nodes");
  }
  struct Work {
    DagId src;
    NodeId dst_parent;
  };
  std::vector<Work> stack = {{d, kNilNode}};
  NodeId root = kNilNode;
  while (!stack.empty()) {
    Work w = stack.back();
    stack.pop_back();
    NodeId v = out->NewNode(label(w.src));
    if (w.dst_parent == kNilNode) {
      root = v;
    } else {
      out->AppendChild(w.dst_parent, v);
    }
    const DagId* kids = children(w.src);
    for (int i = num_children(w.src) - 1; i >= 0; --i) {
      stack.push_back({kids[i], v});
    }
  }
  return root;
}

StatusOr<DagId> DagEvaluator::Eval(const Grammar& g, int64_t max_pool_nodes) {
  obs::TraceSpan eval_span("dag.eval");
  // memo_hits/misses are registry-global across every evaluator in the
  // process; per-session attribution stays on DagEvalStats.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter& memo_hits = reg.GetCounter("dag.memo_hits");
  static obs::Counter& memo_misses = reg.GetCounter("dag.memo_misses");
  static obs::Counter& rules_reused_ctr = reg.GetCounter("dag.rules_reused");
  static obs::Gauge& pool_nodes_gauge = reg.GetGauge("dag.pool_nodes");
  SLG_CHECK_MSG(g.HasRule(g.start()), "Eval() needs a start rule");
  SLG_CHECK_MSG(g.labels().Rank(g.start()) == 0, "start must be rank 0");
  const int64_t pool_before = pool_.size();
  stats_ = DagEvalStats{};
  stats_.rules_total = g.RuleCount();

  // --- Cross-round invalidation (children before callers) -------------
  // A rule's memo survives iff its body fingerprint is unchanged AND
  // every callee survived; everything else is re-expanded. One pass in
  // anti-SL order, O(|G|) — the "re-hash the spine" cost of a round.
  for (auto& [label, cache] : rules_) cache.seen = false;
  std::vector<char> dirty(static_cast<size_t>(g.labels().size()), 0);
  for (LabelId r : AntiSlOrder(g)) {
    const Tree& body = g.rhs(r);
    uint64_t h = SubtreeHash(body, body.root());
    std::vector<LabelId> callees;
    bool callee_dirty = false;
    body.VisitPreorder(body.root(), [&](NodeId v) {
      LabelId l = body.label(v);
      if (g.IsNonterminal(l)) {
        callees.push_back(l);
        if (dirty[static_cast<size_t>(l)]) callee_dirty = true;
      }
    });
    std::sort(callees.begin(), callees.end());
    callees.erase(std::unique(callees.begin(), callees.end()), callees.end());

    auto it = rules_.find(r);
    bool clean = !callee_dirty && it != rules_.end() &&
                 it->second.rhs_hash == h &&
                 it->second.rhs_nodes == body.LiveCount() &&
                 it->second.callees == callees;
    if (clean) {
      it->second.seen = true;
      ++stats_.rules_reused;
      continue;
    }
    dirty[static_cast<size_t>(r)] = 1;
    RuleCache& cache = rules_[r];
    cache.rhs_hash = h;
    cache.rhs_nodes = body.LiveCount();
    cache.callees = std::move(callees);
    cache.memo.clear();
    cache.seen = true;
  }
  // Rules that left the grammar: drop their memos so a later rule
  // reusing the label id can never alias them.
  for (auto it = rules_.begin(); it != rules_.end();) {
    it = it->second.seen ? std::next(it) : rules_.erase(it);
  }

  // --- Expansion ------------------------------------------------------
  // An explicit machine instead of recursion: call nesting in a RePair
  // grammar can reach O(#rules). Each frame evaluates one
  // (rule, argument-tuple); its body walk is a two-phase post-order
  // stack feeding a value stack of pool ids. A nonterminal node either
  // hits the memo or suspends the frame under a new one — the callee's
  // result is delivered straight onto the parent's value stack.
  struct WalkEntry {
    NodeId node;
    bool expanded;
  };
  struct Frame {
    LabelId rule;
    std::vector<DagId> args;
    const Tree* body;
    std::vector<WalkEntry> walk;
    std::vector<DagId> vals;
  };
  std::vector<Frame> stack;
  auto push_frame = [&](LabelId q, std::vector<DagId> args) {
    Frame f;
    f.rule = q;
    f.args = std::move(args);
    f.body = &g.rhs(q);
    f.walk.push_back({f.body->root(), false});
    stack.push_back(std::move(f));
    ++stats_.expansions;
    memo_misses.Increment();
  };

  DagId result = kNilDag;
  {
    auto& start_memo = rules_[g.start()].memo;
    auto hit = start_memo.find({});
    if (hit != start_memo.end()) {
      result = hit->second;
      memo_hits.Increment();
    } else {
      push_frame(g.start(), {});
    }
  }
  std::vector<DagId> scratch_args;
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.walk.empty()) {
      // Frame complete: memoize and deliver to the caller.
      SLG_DCHECK(f.vals.size() == 1);
      DagId res = f.vals.back();
      rules_[f.rule].memo.emplace(std::move(f.args), res);
      stack.pop_back();
      if (stack.empty()) {
        result = res;
        break;
      }
      stack.back().vals.push_back(res);
      continue;
    }
    WalkEntry& e = f.walk.back();
    NodeId v = e.node;
    if (!e.expanded) {
      e.expanded = true;  // before the pushes below invalidate `e`
      int pushed_at = static_cast<int>(f.walk.size());
      for (NodeId c = f.body->first_child(v); c != kNilNode;
           c = f.body->next_sibling(c)) {
        f.walk.push_back({c, false});
      }
      std::reverse(f.walk.begin() + pushed_at, f.walk.end());
      continue;
    }
    f.walk.pop_back();
    LabelId l = f.body->label(v);
    int nc = f.body->NumChildren(v);
    int param = g.labels().ParamIndex(l);
    if (param > 0) {
      f.vals.push_back(f.args[static_cast<size_t>(param - 1)]);
    } else if (g.IsNonterminal(l)) {
      scratch_args.assign(f.vals.end() - nc, f.vals.end());
      f.vals.resize(f.vals.size() - static_cast<size_t>(nc));
      auto& cache = rules_[l];
      auto hit = cache.memo.find(scratch_args);
      if (hit != cache.memo.end()) {
        f.vals.push_back(hit->second);
        memo_hits.Increment();
      } else {
        push_frame(l, scratch_args);  // invalidates f; loop re-fetches
      }
    } else {
      DagId id = pool_.Intern(l, f.vals.data() + (f.vals.size() - nc), nc);
      f.vals.resize(f.vals.size() - static_cast<size_t>(nc));
      f.vals.push_back(id);
      if (pool_.size() > max_pool_nodes) {
        return Status::OutOfRange("DAG pool exceeds node budget of " +
                                  std::to_string(max_pool_nodes) + " nodes");
      }
    }
  }
  SLG_CHECK_MSG(result != kNilDag, "evaluation did not produce a root");
  stats_.nodes_added = pool_.size() - pool_before;
  rules_reused_ctr.Add(stats_.rules_reused);
  pool_nodes_gauge.Set(pool_.size());
  return result;
}

namespace {

// Reachable sub-DAG of `root`: nodes in DFS discovery order (children
// in order) plus per-node reference counts. Discovery order — not pool
// id order — drives all emission below, so outputs are independent of
// how many earlier rounds populated the pool.
struct Reachability {
  std::vector<DagId> discovery;
  std::unordered_map<DagId, int64_t> refs;
};

// Unfolds `rep` into `out` under `dst_parent`, cutting at nodes with a
// rule label — every such child becomes a single call leaf; the body's
// own root always unfolds.
void EmitCutBody(const DagPool& pool, DagId rep,
                 const std::unordered_map<DagId, LabelId>& rule_label,
                 Tree* out, NodeId dst_parent) {
  struct Work {
    DagId src;
    NodeId dst_parent;
  };
  std::vector<Work> stack = {{rep, dst_parent}};
  bool first = true;
  while (!stack.empty()) {
    Work w = stack.back();
    stack.pop_back();
    LabelId lab;
    bool descend = true;
    auto it = rule_label.find(w.src);
    if (!first && it != rule_label.end()) {
      lab = it->second;
      descend = false;
    } else {
      lab = pool.label(w.src);
    }
    NodeId v = out->NewNode(lab);
    out->AppendChild(w.dst_parent, v);
    first = false;
    if (descend) {
      const DagId* kids = pool.children(w.src);
      for (int i = pool.num_children(w.src) - 1; i >= 0; --i) {
        stack.push_back({kids[i], v});
      }
    }
  }
}

Reachability Discover(const DagPool& pool, DagId root) {
  Reachability r;
  std::vector<DagId> stack = {root};
  r.refs[root];  // reachable even if nothing references it
  while (!stack.empty()) {
    DagId d = stack.back();
    stack.pop_back();
    r.discovery.push_back(d);
    const DagId* kids = pool.children(d);
    int nc = pool.num_children(d);
    for (int i = nc - 1; i >= 0; --i) {
      DagId c = kids[i];
      auto [it, inserted] = r.refs.emplace(c, 0);
      ++it->second;
      // First reference enqueues the node, so every reachable node
      // lands in `discovery` exactly once.
      if (inserted) stack.push_back(c);
    }
  }
  return r;
}

}  // namespace

StatusOr<DagForest> DagToForest(const DagPool& pool, DagId root,
                                const LabelTable& labels,
                                const DagForestOptions& options) {
  Reachability reach = Discover(pool, root);
  int64_t reachable = static_cast<int64_t>(reach.discovery.size());

  // Candidates ranked by savings = (references - 1) x unfolded size,
  // discovery order breaking ties — fully deterministic.
  struct Cand {
    int64_t savings;
    DagId d;
  };
  std::vector<Cand> cands;
  for (DagId d : reach.discovery) {
    if (d == root) continue;
    int64_t r = reach.refs[d];
    int64_t sz = pool.TreeSize(d);
    if (r > 1 && sz >= options.min_subtree_size) {
      // Clamp before multiplying: saturated sizes x refs overflow.
      int64_t clamped = sz < (int64_t{1} << 40) ? sz : (int64_t{1} << 40);
      cands.push_back({(r - 1) * clamped, d});
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) {
                     return a.savings > b.savings;
                   });

  // Body size of `d` under a given rule set: selected children cost
  // one leaf, everything else unfolds. Memoized DFS, saturating.
  std::unordered_map<DagId, char> is_rule;
  std::unordered_map<DagId, int64_t> cut_size;
  auto body_size = [&](DagId top) {
    std::vector<DagId> stack = {top};
    while (!stack.empty()) {
      DagId d = stack.back();
      if (cut_size.count(d)) {
        stack.pop_back();
        continue;
      }
      const DagId* kids = pool.children(d);
      int nc = pool.num_children(d);
      bool ready = true;
      for (int i = 0; i < nc; ++i) {
        if (!is_rule.count(kids[i]) && !cut_size.count(kids[i])) {
          stack.push_back(kids[i]);
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();
      int64_t s = 1;
      for (int i = 0; i < nc; ++i) {
        s = SizeSatAdd(s, is_rule.count(kids[i]) ? 1 : cut_size[kids[i]]);
      }
      cut_size[d] = s;
    }
    return cut_size[top];
  };
  auto forest_size = [&](size_t k) {
    is_rule.clear();
    cut_size.clear();
    for (size_t i = 0; i < k; ++i) is_rule[cands[i].d] = 1;
    int64_t total = 1;  // sep
    total = SizeSatAdd(total, body_size(root));
    for (size_t i = 0; i < k; ++i) {
      is_rule.erase(cands[i].d);  // a body's own root always unfolds
      total = SizeSatAdd(total, body_size(cands[i].d));
      is_rule[cands[i].d] = 1;
      cut_size.clear();  // the rule-set changed for the DP above
    }
    return total;
  };

  // Greedy: few high-savings rules are best for the repair that
  // follows; add more only while the forest stays too large.
  int64_t soft_limit = std::max<int64_t>(
      SizeSatAdd(0, options.forest_factor * reachable), 1024);
  if (soft_limit > options.max_forest_nodes) {
    soft_limit = options.max_forest_nodes;
  }
  size_t k = std::min<size_t>(static_cast<size_t>(options.initial_rules),
                              cands.size());
  int64_t total = forest_size(k);
  while (total > soft_limit && k < cands.size()) {
    k = std::min(k * 2 + 1, cands.size());
    total = forest_size(k);
  }
  if (total > options.max_forest_nodes) {
    return Status::OutOfRange(
        "DAG forest exceeds node budget of " +
        std::to_string(options.max_forest_nodes) + " nodes");
  }

  // Emit. Rule labels follow selection (savings) order.
  DagForest out;
  out.reachable_nodes = reachable;
  out.labels = labels;
  out.start = out.labels.Fresh("S", 0);
  std::unordered_map<DagId, LabelId> rule_label;
  for (size_t i = 0; i < k; ++i) {
    LabelId l = out.labels.Fresh("D", 0);
    rule_label[cands[i].d] = l;
    out.rule_labels.push_back(l);
  }
  out.sep = out.labels.Fresh("FOREST", static_cast<int>(k) + 1);
  NodeId sep_node = out.forest.NewNode(out.sep);
  out.forest.SetRoot(sep_node);
  EmitCutBody(pool, root, rule_label, &out.forest, sep_node);
  for (size_t i = 0; i < k; ++i) {
    EmitCutBody(pool, cands[i].d, rule_label, &out.forest, sep_node);
  }
  out.forest_nodes = out.forest.LiveCount();
  return out;
}

}  // namespace slg
