// The pre-bucket weighted grammar digram index (unordered_set of
// generators per digram + lazy max-heap of count snapshots), kept as
// the reference the bucketed GrammarDigramIndex must match answer for
// answer. Its user is GrammarIndexLockstepTest (retrieve_occs_test.cc),
// which drives both indexes through the same seeded calls and compares
// them after each. Test-only: never linked into the library.

#ifndef SLG_TESTS_LEGACY_GRAMMAR_INDEX_H_
#define SLG_TESTS_LEGACY_GRAMMAR_INDEX_H_

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/tree_links.h"
#include "src/grammar/grammar.h"
#include "src/grammar/usage.h"
#include "src/repair/digram.h"
#include "src/repair/repair_options.h"

namespace slg {

class LegacyGrammarDigramIndex {
 public:
  LegacyGrammarDigramIndex() = default;

  void Build(const Grammar& g, const std::vector<uint64_t>& usage,
             const std::vector<LabelId>& anti_sl_order) {
    table_.clear();
    by_rule_.clear();
    heap_ = {};
    total_ = 0;
    for (LabelId r : anti_sl_order) {
      ScanRule(g, r, usage[static_cast<size_t>(r)]);
    }
  }

  // Rules arrive duplicate-free and already in anti-SL order (the
  // driver sorts against its dynamic topological positions).
  void RescanRules(const Grammar& g, const std::vector<uint64_t>& usage,
                   const std::vector<LabelId>& rules) {
    for (LabelId r : rules) {
      ScanRule(g, r, usage[static_cast<size_t>(r)]);
    }
  }

  void AddGenerator(const Grammar& g, RuleNode gen, uint64_t usage) {
    const Tree& t = g.rhs(gen.rule);
    if (gen.node == t.root()) return;
    LabelId l = t.label(gen.node);
    if (g.labels().IsParam(l)) return;
    TreeParentResult tp = TreeParentOf(g, gen);
    RuleNode tc = TreeChildOf(g, gen);
    LabelId a = g.rhs(tp.parent.rule).label(tp.parent.node);
    LabelId b = g.rhs(tc.rule).label(tc.node);
    Digram alpha{a, tp.child_index, b};
    bool add;
    if (a != b) {
      add = true;
    } else {
      if (g.IsNonterminal(l)) {
        add = false;
      } else {
        auto it = table_.find(alpha);
        add = it == table_.end() || it->second.generators.count(tp.parent) == 0;
        if (add && it != table_.end()) {
          NodeId ci = t.Child(gen.node, alpha.child_index);
          if (ci != kNilNode && t.label(ci) == b &&
              it->second.generators.count(RuleNode{gen.rule, ci}) > 0) {
            add = false;
          }
        }
      }
    }
    if (!add) return;
    DigramEntry& e = table_[alpha];
    if (e.generators.insert(gen).second) {
      e.weighted_count = UsageSatAdd(e.weighted_count, usage);
      RuleEntry& re = by_rule_[gen.rule];
      re.occs.emplace_back(alpha, gen.node);
      ++re.live;
      ++total_;
      PushHeap(alpha, e.weighted_count);
    }
  }

  void RemoveGenerator(const Digram& d, RuleNode gen) {
    auto dit = table_.find(d);
    if (dit == table_.end()) return;
    if (dit->second.generators.erase(gen) == 0) return;
    auto rit = by_rule_.find(gen.rule);
    uint64_t w = rit != by_rule_.end() ? rit->second.scan_usage : 0;
    uint64_t& c = dit->second.weighted_count;
    c = c >= w ? c - w : 0;
    --total_;
    PushHeap(d, c);
    if (dit->second.generators.empty()) table_.erase(dit);
    if (rit != by_rule_.end()) {
      --rit->second.live;
      if (rit->second.occs.size() > 64 &&
          static_cast<int64_t>(rit->second.occs.size()) >
              4 * rit->second.live) {
        Compact(&rit->second, gen.rule);
      }
    }
  }

  void RemoveGeneratorAt(RuleNode gen) {
    auto rit = by_rule_.find(gen.rule);
    if (rit == by_rule_.end()) return;
    // The occs list may hold stale entries for this node under old
    // digrams; at most one is live (checked against the table).
    for (const auto& [d, node] : rit->second.occs) {
      if (node != gen.node) continue;
      auto dit = table_.find(d);
      if (dit == table_.end()) continue;
      if (dit->second.generators.count(gen) == 0) continue;
      RemoveGenerator(d, gen);
      return;
    }
  }

  void DropRule(LabelId rule) {
    auto it = by_rule_.find(rule);
    if (it == by_rule_.end()) return;
    for (const auto& [d, node] : it->second.occs) {
      auto dit = table_.find(d);
      if (dit == table_.end()) continue;
      if (dit->second.generators.erase(RuleNode{rule, node}) > 0) {
        uint64_t w = it->second.scan_usage;
        dit->second.weighted_count =
            dit->second.weighted_count >= w ? dit->second.weighted_count - w
                                            : 0;
        --total_;
        PushHeap(d, dit->second.weighted_count);
        if (dit->second.generators.empty()) table_.erase(dit);
      }
    }
    by_rule_.erase(it);
  }

  void AdjustWeight(LabelId rule, uint64_t new_usage) {
    auto it = by_rule_.find(rule);
    if (it == by_rule_.end()) return;
    uint64_t old_usage = it->second.scan_usage;
    if (old_usage == new_usage) return;
    // A generator removed and added again is listed twice (the list is
    // compacted lazily); it is stored once and adjusted once.
    std::unordered_set<NodeId> adjusted;
    for (const auto& [d, node] : it->second.occs) {
      auto dit = table_.find(d);
      if (dit == table_.end()) continue;
      if (dit->second.generators.count(RuleNode{rule, node}) == 0) continue;
      if (!adjusted.insert(node).second) continue;
      uint64_t& c = dit->second.weighted_count;
      c = c >= old_usage ? c - old_usage : 0;
      c = UsageSatAdd(c, new_usage);
      PushHeap(d, c);
    }
    it->second.scan_usage = new_usage;
  }

  std::vector<RuleNode> Take(const Digram& d) {
    auto it = table_.find(d);
    if (it == table_.end()) return {};
    std::vector<RuleNode> out(it->second.generators.begin(),
                              it->second.generators.end());
    std::sort(out.begin(), out.end(),
              [](const RuleNode& x, const RuleNode& y) {
                return x.rule != y.rule ? x.rule < y.rule : x.node < y.node;
              });
    for (const RuleNode& rn : out) {
      auto rit = by_rule_.find(rn.rule);
      if (rit != by_rule_.end()) --rit->second.live;
    }
    total_ -= static_cast<int64_t>(out.size());
    table_.erase(it);
    return out;
  }

  uint64_t WeightedCount(const Digram& d) const {
    auto it = table_.find(d);
    return it == table_.end() ? 0 : it->second.weighted_count;
  }

  std::optional<Digram> MostFrequent(const LabelTable& labels,
                                     const RepairOptions& options) {
    while (!heap_.empty()) {
      HeapItem top = heap_.top();
      heap_.pop();
      if (WeightedCount(top.d) != top.count) continue;  // stale
      if (top.count < static_cast<uint64_t>(options.min_count)) continue;
      int rank = DigramRank(top.d, labels);
      if (rank > options.max_rank) continue;
      if (options.require_positive_savings &&
          !HasPositiveSavings(top.d, rank)) {
        continue;
      }
      Digram best = top.d;
      std::vector<Digram> requeue;
      while (!heap_.empty() && heap_.top().count == top.count) {
        HeapItem other = heap_.top();
        heap_.pop();
        if (WeightedCount(other.d) != other.count) continue;
        int orank = DigramRank(other.d, labels);
        if (orank > options.max_rank) continue;
        if (options.require_positive_savings &&
            !HasPositiveSavings(other.d, orank)) {
          continue;
        }
        requeue.push_back(other.d);
        if (DigramLess(other.d, best)) best = other.d;
      }
      // Every entry goes back, the answer's too: MostFrequent is a
      // query, and the answer stays stored until it is taken.
      requeue.push_back(top.d);
      for (const Digram& d : requeue) PushHeap(d, top.count);
      return best;
    }
    return std::nullopt;
  }

  int64_t TotalOccurrences() const { return total_; }

 private:
  struct DigramEntry {
    std::unordered_set<RuleNode, RuleNodeHash> generators;
    uint64_t weighted_count = 0;
  };
  struct RuleEntry {
    std::vector<std::pair<Digram, NodeId>> occs;
    uint64_t scan_usage = 0;
    int64_t live = 0;
  };
  struct HeapItem {
    uint64_t count;
    Digram d;
    bool operator<(const HeapItem& o) const { return count < o.count; }
  };

  void ScanRule(const Grammar& g, LabelId rule, uint64_t usage) {
    RuleEntry& re = by_rule_[rule];
    re.scan_usage = usage;
    const Tree& t = g.rhs(rule);
    t.VisitPreorder(t.root(), [&](NodeId n) {
      AddGenerator(g, RuleNode{rule, n}, usage);
    });
  }

  void Compact(RuleEntry* re, LabelId rule) {
    std::vector<std::pair<Digram, NodeId>> keep;
    keep.reserve(re->occs.size() / 2);
    for (const auto& [d, node] : re->occs) {
      auto dit = table_.find(d);
      if (dit != table_.end() &&
          dit->second.generators.count(RuleNode{rule, node}) > 0) {
        keep.emplace_back(d, node);
      }
    }
    re->occs = std::move(keep);
    re->live = static_cast<int64_t>(re->occs.size());
  }

  void PushHeap(const Digram& d, uint64_t count) {
    if (count > 0) heap_.push(HeapItem{count, d});
  }

  bool HasPositiveSavings(const Digram& d, int rank) const {
    return WeightedCount(d) > static_cast<uint64_t>(rank) + 1;
  }

  std::unordered_map<Digram, DigramEntry, DigramHash> table_;
  std::unordered_map<LabelId, RuleEntry> by_rule_;
  std::priority_queue<HeapItem> heap_;
  int64_t total_ = 0;
};

}  // namespace slg

#endif  // SLG_TESTS_LEGACY_GRAMMAR_INDEX_H_
