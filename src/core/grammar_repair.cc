// The two GrammarRePair drivers over the bucketed GrammarDigramIndex.
//
// Every per-round refresh is damage-proportional. The CallGraphCache
// maintains usage counts, reference counts, the anti-SL order (a
// dynamic topological order) and resolved interfaces incrementally;
// after each Update() the drivers read back exactly the rules whose
// usage or resolved interface moved and touch only those:
//
//  * rules to rescan = changed ∪ added ∪ callers of interface-changed
//    rules (the caller closure is computed inside the cache over its
//    call graph, so arbitrarily deep resolution chains are covered);
//  * weight-only adjustments go to usage_changed() instead of a sweep
//    over every rule (AdjustWeight is a no-op when usage is unchanged,
//    so the result is identical);
//  * the replacement engine receives the cache's live refcounts and
//    sweeps only decremented rules for death.
//
// Both drivers run their rounds through one RepairRun (pending X rules,
// the pure-local fast path, the rescan set, the finish) and differ in
// coverage:
//
//  * GrammarRePair — the paper's Algorithm 1 with §IV-C incremental
//    counting: the index covers every rule. This is the byte-stable
//    reference every committed baseline depends on; its behavior must
//    not drift.
//
//  * LocalizedGrammarRePair — the damage-localized engine. The index is
//    seeded only from the damaged rules (plus their one-hop caller
//    frontier) and grows lazily to whatever the replacements actually
//    touch. The start rule — the damaged region's host, and by far the
//    largest tree after a batch of updates — is *never rescanned*: the
//    replacement engine brackets every mutation of it with
//    TrackedRuleHooks, and the driver keeps the index current by
//    per-occurrence deltas, keeps a call-site book for the start rule's
//    skeleton patch, and re-resolves exactly the call-site digrams
//    invalidated when a callee's interface changes. That turns the
//    per-round cost from O(|start| + damage) into O(damage).

#include "src/core/grammar_repair.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/call_graph_cache.h"
#include "src/core/repair_hooks.h"
#include "src/core/replacement.h"
#include "src/core/retrieve_occs.h"
#include "src/grammar/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/repair/digram.h"
#include "src/repair/pruning.h"

namespace slg {
namespace {

// Both drivers feed the same process-wide effort counters; a caller
// reads deltas around a run to attribute them (docs/OBSERVABILITY.md).
void RecordRepairMetrics(const GrammarRepairResult& result) {
  static obs::Counter& rounds =
      obs::MetricsRegistry::Global().GetCounter("repair.rounds");
  static obs::Counter& rescanned =
      obs::MetricsRegistry::Global().GetCounter("repair.rules_rescanned");
  static obs::Counter& replacements =
      obs::MetricsRegistry::Global().GetCounter("repair.replacements");
  rounds.Add(result.rounds);
  rescanned.Add(result.rules_rescanned);
  replacements.Add(result.replacements);
}

// Round-stamped membership bitmap: O(1) mark/test, O(1) per-round
// reset (no clearing, no hashing, no re-sorting to dedupe).
class RoundStamp {
 public:
  void BeginRound(size_t n_labels) {
    if (stamp_.size() < n_labels) stamp_.resize(n_labels, 0);
    if (++gen_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      gen_ = 1;
    }
  }
  // Marks r; returns true if it was not yet marked this round.
  bool Mark(LabelId r) {
    size_t idx = static_cast<size_t>(r);
    if (idx >= stamp_.size()) stamp_.resize(idx + 1, 0);
    if (stamp_[idx] == gen_) return false;
    stamp_[idx] = gen_;
    return true;
  }
  bool Marked(LabelId r) const {
    size_t idx = static_cast<size_t>(r);
    return idx < stamp_.size() && stamp_[idx] == gen_;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t gen_ = 0;
};

// Registers the occurrences around a fresh X node in `t`, the body of
// `rule`: the edge into it and its child edges. usage(rule) == 1 (the
// start rule).
void AddAroundReplacement(const Grammar& g, GrammarDigramIndex* index,
                          LabelId rule, const Tree& t, NodeId x_node) {
  if (t.parent(x_node) != kNilNode) {
    index->AddGenerator(g, RuleNode{rule, x_node}, 1);
  }
  for (NodeId c = t.first_child(x_node); c != kNilNode;
       c = t.next_sibling(c)) {
    index->AddGenerator(g, RuleNode{rule, c}, 1);
  }
}

// ---- pure-local fast path (paper §IV-C neighbourhood updates) --------
// Start-rule occurrences with terminal endpoints are replaced with
// per-occurrence index deltas: no whole-rule rescan. This is the hot
// path both for tree inputs (one giant start rule) and for
// recompression after updates (the isolated path lives in the start
// rule). usage(start) == 1 always, so weights are exact. Returns the
// number of replacements; patches the cached root label if the start
// rule's root was replaced.
int64_t ReplacePureLocalGens(Grammar& g, GrammarDigramIndex& index,
                             CallGraphCache& cache, const Digram& d, LabelId x,
                             const std::vector<NodeId>& local_gens) {
  if (local_gens.empty()) return 0;
  const LabelId start = g.start();
  Tree& ts = g.mutable_rhs(start);
  int64_t replacements = 0;
  bool start_root_changed = false;
  for (NodeId w : local_gens) {
    NodeId v = ts.parent(w);
    // Remove the stored occurrences adjacent to (v, w): the edge into
    // v, v's other child edges, and w's child edges. Each is stored at
    // its generator node, so no digram needs re-deriving.
    if (ts.parent(v) != kNilNode) index.RemoveGeneratorAt(RuleNode{start, v});
    int j = 0;
    for (NodeId c = ts.first_child(v); c != kNilNode; c = ts.next_sibling(c)) {
      ++j;
      if (j == d.child_index) continue;
      index.RemoveGeneratorAt(RuleNode{start, c});
    }
    for (NodeId c = ts.first_child(w); c != kNilNode; c = ts.next_sibling(c)) {
      index.RemoveGeneratorAt(RuleNode{start, c});
    }
    bool was_root = v == ts.root();
    NodeId x_node = ReplaceDigramNodes(&ts, v, d.child_index, x);
    if (was_root) start_root_changed = true;
    ++replacements;
    AddAroundReplacement(g, &index, start, ts, x_node);
  }
  if (start_root_changed) {
    cache.NoteRootLabel(start, ts.label(ts.root()));
  }
  return replacements;
}

// What both drivers hold for one run: the grammar, its call-graph
// cache and digram index, the X rules held back until the end (the
// paper's "F := F ∪ {X}": the working grammar treats X as a terminal)
// and the result being accumulated.
struct RepairRun {
  RepairRun(Grammar grammar, const GrammarRepairOptions& opts)
      : g(std::move(grammar)), options(opts) {
    cache.Build(g);
    if (options.check_invariants) cache.CheckInvariants(g);
  }

  // Brings the cache up to date with a round's engine edits.
  void UpdateCache(const std::vector<LabelId>& touched,
                   const std::vector<LabelId>& removed) {
    cache.Update(g, touched, removed);
    if (options.check_invariants) cache.CheckInvariants(g);
  }

  // Appends the current size (grammar plus pending rules) to the trace.
  void RecordSize() {
    if (!options.track_sizes) return;
    int64_t size = ComputeStats(g).edge_count + pending_edges;
    result.size_trace.push_back(size);
    result.max_intermediate_size =
        std::max(result.max_intermediate_size, size);
  }

  // Replaces every stored occurrence of `d` by a fresh X: start-rule
  // occurrences with terminal endpoints on the pure-local fast path,
  // the rest through the replacement engine (which brackets its edits
  // of `hooks->rule()` with `hooks`, when given). Returns the engine's
  // result, or nullopt when the round needs no refresh: under
  // incremental counting a round the engine had no part in changed no
  // rule but the start rule and no call edge, so the index deltas were
  // its complete refresh.
  std::optional<ReplacementResult> ReplaceRound(const Digram& d,
                                                TrackedRuleHooks* hooks) {
    LabelId x = g.labels().Fresh("X", DigramRank(d, g.labels()));
    std::vector<RuleNode> gens = index.Take(d);

    const LabelId start = g.start();
    const Tree& ts = g.rhs(start);
    std::vector<RuleNode> engine_gens;
    std::vector<NodeId> local_gens;
    for (const RuleNode& gen : gens) {
      if (gen.rule == start && !g.IsNonterminal(ts.label(gen.node)) &&
          !g.IsNonterminal(ts.label(ts.parent(gen.node)))) {
        local_gens.push_back(gen.node);
      } else {
        engine_gens.push_back(gen);
      }
    }
    result.replacements += ReplacePureLocalGens(g, index, cache, d, x,
                                                local_gens);

    ReplacementResult rr;
    if (!engine_gens.empty()) {
      // The cache reflects the grammar as of the last refresh; the
      // pure-local block above only merged terminal nodes, so the
      // cached call counts are still exact. initial_zero_refs covers
      // rules that entered the run dead (the engine's death sweep
      // visits only decremented rules otherwise).
      rr = ReplaceAllOccurrences(&g, d, x, engine_gens, options.optimize,
                                 hooks, &cache.refcounts(),
                                 &cache.initial_zero_refs());
    }
    Tree pattern = MakePattern(d, &g.labels());
    pending_edges += pattern.LiveCount() - 1;
    pending.push_back(PendingRule{x, std::move(pattern)});
    ++result.rounds;
    result.replacements += rr.replacements;

    if (engine_gens.empty() && options.counting == CountingMode::kIncremental) {
      RecordSize();
      return std::nullopt;
    }
    return rr;
  }

  // Rules to rescan: `touched` plus the callers of every rule whose
  // resolved interface changed, since their generators' digrams may
  // differ now. The cache's interface worklist already propagated
  // "dirty" through arbitrarily deep resolution chains, so
  // iface_changed() is exact — no full sweep. Deduped by stamp; with
  // `skip_start` the start rule is left out of the callers (the
  // localized driver fixes it up per call site instead).
  std::vector<LabelId> RescanSet(std::vector<LabelId> touched,
                                 bool skip_start) {
    std::vector<LabelId> rescan = std::move(touched);
    rescan_stamp.BeginRound(g.labels().size());
    for (LabelId r : rescan) rescan_stamp.Mark(r);
    size_t frontier = rescan.size();
    cache.AppendCallersOf(cache.iface_changed(), &rescan);
    size_t w = frontier;
    for (size_t i = frontier; i < rescan.size(); ++i) {
      LabelId c = rescan[i];
      if ((!skip_start || c != g.start()) && rescan_stamp.Mark(c)) {
        rescan[w++] = c;
      }
    }
    rescan.resize(w);
    return rescan;
  }

  // Incremental refresh of the index: drops the removed rules, rescans
  // `rescan` and adjusts the weights of the other rules whose usage
  // moved. `covered` (null: every rule) is the set of rules the index
  // holds; the start rule's usage never moves.
  void Rescan(const std::vector<LabelId>& removed, std::vector<LabelId> rescan,
              const std::vector<uint8_t>* covered) {
    for (LabelId r : removed) index.DropRule(r);
    for (LabelId r : rescan) index.DropRule(r);
    for (LabelId r : cache.usage_changed()) {
      if (r == g.start() || rescan_stamp.Marked(r)) continue;
      size_t idx = static_cast<size_t>(r);
      if (covered != nullptr &&
          (idx >= covered->size() || (*covered)[idx] == 0)) {
        continue;
      }
      index.AdjustWeight(r, cache.usage()[r]);
    }
    cache.SortAntiSl(&rescan);
    index.RescanRules(g, cache.usage(), rescan);
    result.rules_rescanned += static_cast<int64_t>(rescan.size());
  }

  // Adds the pending rules, prunes and records the run's counters.
  GrammarRepairResult Finish() {
    for (PendingRule& p : pending) g.AddRule(p.lhs, std::move(p.pattern));
    if (options.repair.prune) Prune(&g);
    RecordRepairMetrics(result);
    result.grammar = std::move(g);
    return std::move(result);
  }

  struct PendingRule {
    LabelId lhs;
    Tree pattern;
  };

  Grammar g;
  const GrammarRepairOptions& options;
  CallGraphCache cache;
  GrammarDigramIndex index;
  GrammarRepairResult result;
  RoundStamp rescan_stamp;
  std::vector<PendingRule> pending;
  int64_t pending_edges = 0;
};

// ---- damage-localized driver -----------------------------------------

// Driver-side TrackedRuleHooks: keeps the digram index and the
// call-site book of the start rule current through every engine
// mutation, so the start rule never needs a rescan. usage(start) == 1
// always, so all delta weights are exact. (The call-site book also
// feeds the cache's SetCallees patch, which detects start-rule call
// multiset changes exactly — no separate "did an inline happen"
// signal.)
class StartDeltaHooks : public TrackedRuleHooks {
 public:
  using CallSiteBook = std::unordered_map<LabelId, std::unordered_set<NodeId>>;

  StartDeltaHooks(Grammar* g, GrammarDigramIndex* index, LabelId start,
                  CallSiteBook* callsites)
      : TrackedRuleHooks(start), g_(g), index_(index), callsites_(callsites) {}

  void BeforeInline(const Tree& t, NodeId call,
                    const std::vector<NodeId>& args) override {
    // The edge into the call and the edges to its arguments are about
    // to be restructured; their stored occurrences go stale now.
    index_->RemoveGeneratorAt(RuleNode{rule(), call});
    for (NodeId a : args) index_->RemoveGeneratorAt(RuleNode{rule(), a});
    auto it = callsites_->find(t.label(call));
    if (it != callsites_->end()) it->second.erase(call);
  }

  void AfterInline(const Tree& t, NodeId copy_root,
                   const std::vector<NodeId>& args) override {
    // Index the fresh region, in preorder — the same order ScanRule
    // uses, so the equal-label overlap discipline stores the same
    // alternation a rescan would. The walk stops at the re-attached
    // argument roots: their interiors are untouched (only the parent
    // edges changed, and those generators are the arg roots
    // themselves).
    std::unordered_set<NodeId> arg_set(args.begin(), args.end());
    std::vector<NodeId> stack = {copy_root};
    std::vector<NodeId> rev;
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      index_->AddGenerator(*g_, RuleNode{rule(), n}, 1);
      if (arg_set.count(n) > 0) continue;
      LabelId l = t.label(n);
      if (g_->IsNonterminal(l)) (*callsites_)[l].insert(n);
      rev.clear();
      for (NodeId c = t.first_child(n); c != kNilNode;
           c = t.next_sibling(c)) {
        rev.push_back(c);
      }
      for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }

  void BeforeReplace(const Tree& t, NodeId parent, int child_index) override {
    index_->RemoveGeneratorAt(RuleNode{rule(), parent});
    int j = 0;
    NodeId w = kNilNode;
    for (NodeId c = t.first_child(parent); c != kNilNode;
         c = t.next_sibling(c)) {
      ++j;
      if (j == child_index) w = c;
      index_->RemoveGeneratorAt(RuleNode{rule(), c});
    }
    for (NodeId c = t.first_child(w); c != kNilNode; c = t.next_sibling(c)) {
      index_->RemoveGeneratorAt(RuleNode{rule(), c});
    }
  }

  void AfterReplace(const Tree& t, NodeId x_node) override {
    // The replaced pair was two terminal-labeled nodes, so the
    // call-site book is unaffected; only the occurrences around the
    // fresh X node change.
    AddAroundReplacement(*g_, index_, rule(), t, x_node);
  }

 private:
  Grammar* g_;
  GrammarDigramIndex* index_;
  CallSiteBook* callsites_;
};

}  // namespace

GrammarRepairResult GrammarRePair(Grammar grammar,
                                  const GrammarRepairOptions& options) {
  obs::TraceSpan span("repair.grammar");
  RepairRun run(std::move(grammar), options);
  Grammar& g = run.g;
  CallGraphCache& cache = run.cache;
  run.index.Build(g, cache.usage(), cache.AntiSlList(g));
  run.result.rules_rescanned += g.RuleCount();
  run.RecordSize();

  while (auto d = run.index.MostFrequent(g.labels(), options.repair)) {
    obs::TraceSpan round_span("repair.round");
    std::optional<ReplacementResult> rr = run.ReplaceRound(*d, nullptr);
    if (!rr) continue;

    // ---- refresh (O(|damage|)) ----------------------------------------
    std::vector<LabelId> touched = rr->changed_rules;
    for (LabelId r : rr->added_rules) touched.push_back(r);
    run.UpdateCache(touched, rr->removed_rules);

    if (options.counting == CountingMode::kRecount) {
      run.index.Build(g, cache.usage(), cache.AntiSlList(g));
      run.result.rules_rescanned += g.RuleCount();
    } else {
      run.Rescan(rr->removed_rules,
                 run.RescanSet(std::move(touched), /*skip_start=*/false),
                 nullptr);
    }
    run.RecordSize();
  }
  return run.Finish();
}

GrammarRepairResult LocalizedGrammarRePair(
    Grammar grammar, const std::vector<LabelId>& damage,
    const GrammarRepairOptions& options) {
  obs::TraceSpan span("repair.localized");
  RepairRun run(std::move(grammar), options);
  Grammar& g = run.g;
  CallGraphCache& cache = run.cache;
  const LabelId start = g.start();

  // Rules currently covered by the index (dense bitmap). Seed: the
  // start rule (always tracked), the damage set, and its one-hop
  // caller frontier — a caller's stored digrams resolve through its
  // callees' derived roots and parameter parents, so occurrences
  // adjacent to the damage cross into the callers.
  std::vector<uint8_t> scanned(g.labels().size(), 0);
  auto scanned_bit = [&scanned](LabelId r) -> uint8_t& {
    size_t idx = static_cast<size_t>(r);
    if (idx >= scanned.size()) scanned.resize(idx + 1, 0);
    return scanned[idx];
  };
  {
    std::vector<LabelId> seed;
    auto add = [&](LabelId r) {
      if (!g.HasRule(r)) return;  // stale damage ids are fine
      uint8_t& bit = scanned_bit(r);
      if (bit == 0) {
        bit = 1;
        seed.push_back(r);
      }
    };
    add(start);
    for (LabelId r : damage) add(r);
    std::vector<LabelId> frontier;
    cache.AppendCallersOf(damage, &frontier);
    for (LabelId c : frontier) add(c);
    // When the damage closure already covers a sizable share of the
    // rule set, sparse seeding buys nothing (the one-time seed scan is
    // a rounding error next to the replacement rounds) but its partial
    // counts cost compression — digrams shared between the damage and
    // the few unscanned rules never reach their true weights. Seed
    // everything then; the per-round savings all come from the
    // tracked-rule deltas and the damage-proportional refresh, which
    // do not depend on how the index was seeded.
    if (4 * seed.size() >= static_cast<size_t>(g.RuleCount())) {
      for (LabelId r : g.Nonterminals()) add(r);
    }
    cache.SortAntiSl(&seed);
    run.index.RescanRules(g, cache.usage(), seed);
    run.result.rules_rescanned += static_cast<int64_t>(seed.size());
  }

  // Call-site book of the start rule (callee -> call nodes), built
  // once and maintained by the hooks; powers the skeleton patch
  // (SetCallees) and the interface-ripple fix-ups below.
  StartDeltaHooks::CallSiteBook callsites;
  {
    const Tree& ts = g.rhs(start);
    ts.VisitPreorder(ts.root(), [&](NodeId n) {
      LabelId l = ts.label(n);
      if (g.IsNonterminal(l)) callsites[l].insert(n);
    });
  }
  StartDeltaHooks hooks(&g, &run.index, start, &callsites);
  run.RecordSize();

  while (auto d = run.index.MostFrequent(g.labels(), options.repair)) {
    obs::TraceSpan round_span("repair.round");
    // Unshared up front: the refresh below reads ts after this round's
    // edits of the start rule.
    Tree& ts = g.mutable_rhs(start);
    std::optional<ReplacementResult> rr = run.ReplaceRound(*d, &hooks);
    if (!rr) continue;

    // ---- refresh (O(damage), never O(|start|) or O(#rules)) -----------
    bool start_changed = false;
    std::vector<LabelId> touched;
    for (LabelId r : rr->changed_rules) {
      if (r == start) {
        start_changed = true;
      } else {
        touched.push_back(r);
      }
    }
    for (LabelId r : rr->added_rules) touched.push_back(r);
    if (start_changed) {
      // The start rule's tree and index entries were delta-maintained
      // by the hooks; patch its cached skeleton from the call-site
      // book instead of re-extracting the whole body. The cache diffs
      // the multiset itself, so a round of inlines that nets out to no
      // call change costs nothing downstream.
      std::vector<std::pair<LabelId, int>> counts;
      counts.reserve(callsites.size());
      for (const auto& [l, sites] : callsites) {
        if (!sites.empty()) {
          counts.emplace_back(l, static_cast<int>(sites.size()));
        }
      }
      cache.SetCallees(start, std::move(counts));
      cache.NoteRootLabel(start, ts.label(ts.root()));
    }
    run.UpdateCache(touched, rr->removed_rules);
    for (LabelId r : rr->removed_rules) {
      scanned_bit(r) = 0;
      callsites.erase(r);
    }

    // A non-start caller is (re)scanned wholesale — this doubles as the
    // lazy index extension into previously untouched rules. The start
    // rule is fixed up per call site (`ripple`) instead.
    std::vector<LabelId> rescan =
        run.RescanSet(std::move(touched), /*skip_start=*/true);
    std::vector<NodeId> ripple;
    for (LabelId r : cache.iface_changed()) {
      auto sit = callsites.find(r);
      if (sit != callsites.end()) {
        for (NodeId n : sit->second) ripple.push_back(n);
      }
    }
    for (LabelId r : rescan) scanned_bit(r) = 1;

    if (options.counting == CountingMode::kRecount) {
      // Recount the covered region only: fresh index over the scanned
      // set (the localized counterpart of a full rebuild; start is
      // rescanned here — reference mode trades speed for simplicity).
      run.index = GrammarDigramIndex();
      std::vector<LabelId> live;
      for (size_t i = 0; i < scanned.size(); ++i) {
        if (scanned[i] != 0) live.push_back(static_cast<LabelId>(i));
      }
      cache.SortAntiSl(&live);
      run.index.RescanRules(g, cache.usage(), live);
      run.result.rules_rescanned += static_cast<int64_t>(live.size());
    } else {
      // Re-resolve the start-rule occurrences invalidated by the
      // interface changes: the call sites of each changed rule and
      // their argument edges — the only way start entries go stale
      // without its tree changing.
      if (!ripple.empty()) {
        std::vector<NodeId> nodes;
        for (NodeId n : ripple) {
          nodes.push_back(n);
          for (NodeId c = ts.first_child(n); c != kNilNode;
               c = ts.next_sibling(c)) {
            nodes.push_back(c);
          }
        }
        std::sort(nodes.begin(), nodes.end());
        nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
        for (NodeId n : nodes) run.index.RemoveGeneratorAt(RuleNode{start, n});
        for (NodeId n : nodes) run.index.AddGenerator(g, RuleNode{start, n}, 1);
      }
      run.Rescan(rr->removed_rules, std::move(rescan), &scanned);
    }
    run.RecordSize();
  }
  return run.Finish();
}

}  // namespace slg
