#include "src/repair/tree_repair.h"

#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/repair/digram.h"
#include "src/repair/digram_index.h"
#include "src/repair/pruning.h"

namespace slg {
namespace {

// Deletes from the index every stored occurrence adjacent to the
// occurrence (v, w) about to be replaced: the edge into v from its
// parent, v's other child edges, and w's child edges (§IV-C).
void RemoveNeighborhood(const Tree& t, TreeDigramIndex* index, NodeId v,
                        NodeId w, int child_index) {
  NodeId p = t.parent(v);
  if (p != kNilNode) {
    index->Remove(Digram{t.label(p), t.ChildIndex(v), t.label(v)}, p);
  }
  int j = 0;
  for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
    ++j;
    if (j == child_index) continue;
    index->Remove(Digram{t.label(v), j, t.label(c)}, v);
  }
  int k = 0;
  for (NodeId c = t.first_child(w); c != kNilNode; c = t.next_sibling(c)) {
    ++k;
    index->Remove(Digram{t.label(w), k, t.label(c)}, w);
  }
}

// Registers the fresh digrams around the replacement node x.
void AddNeighborhood(const Tree& t, TreeDigramIndex* index, NodeId x) {
  NodeId p = t.parent(x);
  if (p != kNilNode) {
    index->Add(t, p, t.ChildIndex(x));
  }
  int j = 0;
  for (NodeId c = t.first_child(x); c != kNilNode; c = t.next_sibling(c)) {
    ++j;
    index->Add(t, x, j);
  }
}

}  // namespace

TreeRepairResult TreeRePair(Tree t, const LabelTable& labels,
                            const RepairOptions& options) {
  obs::TraceSpan span("tree_repair");
  LabelTable table = labels;  // own a mutable copy for fresh X labels
  TreeDigramIndex index(&table);
  index.Build(t);

  struct PendingRule {
    LabelId lhs;
    Tree pattern;
  };
  std::vector<PendingRule> rules;
  int replaced = 0;

  while (auto d = index.MostFrequent(options)) {
    LabelId x = table.Fresh("X", DigramRank(*d, table));
    std::vector<NodeId> occs = index.Take(*d);
    for (NodeId v : occs) {
      NodeId w = t.Child(v, d->child_index);
      RemoveNeighborhood(t, &index, v, w, d->child_index);
      NodeId x_node = ReplaceDigramNodes(&t, v, d->child_index, x);
      AddNeighborhood(t, &index, x_node);
    }
    rules.push_back(PendingRule{x, MakePattern(*d, &table)});
    ++replaced;
  }

  Grammar g = Grammar::ForTree(std::move(t), std::move(table));
  for (PendingRule& r : rules) g.AddRule(r.lhs, std::move(r.pattern));
  if (options.prune) Prune(&g);

  // Aggregate adds at the end of the run — nothing in the replacement
  // loop above touches the registry, so the disabled-tracing cost of a
  // whole compression is one branch plus two relaxed RMWs.
  static obs::Counter& runs =
      obs::MetricsRegistry::Global().GetCounter("tree_repair.runs");
  static obs::Counter& replacements =
      obs::MetricsRegistry::Global().GetCounter("tree_repair.digrams_replaced");
  runs.Increment();
  replacements.Add(replaced);

  return TreeRepairResult{std::move(g), replaced};
}

}  // namespace slg
