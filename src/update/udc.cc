#include "src/update/udc.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/grammar/value.h"
#include "src/obs/trace.h"
#include "src/repair/tree_repair.h"

namespace slg {

namespace {

StatusOr<UdcResult> RunClassic(const Grammar& g, const RepairOptions& options,
                               int64_t max_nodes) {
  UdcResult result;
  Timer timer;
  StatusOr<Tree> tree = Value(g, max_nodes);
  if (!tree.ok()) return tree.status();
  result.decompress_seconds = timer.ElapsedSeconds();
  result.tree_nodes = tree.value().LiveCount();

  timer.Reset();
  TreeRepairResult tr = TreeRePair(tree.take(), g.labels(), options);
  result.compress_seconds = timer.ElapsedSeconds();
  result.grammar = std::move(tr.grammar);
  return result;
}

}  // namespace

namespace {

// Reassembles the repaired forest into the result grammar: the sep
// node's children become the start body and the D rule bodies, the
// tree repair's digram rules ride along unchanged. The repair can
// never disturb the sep node itself — it occurs exactly once, so no
// digram through it reaches min_count.
Grammar SplitRepairedForest(const DagForest& meta, TreeRepairResult tr) {
  Grammar out;
  out.labels() = tr.grammar.labels();
  const Tree& rhs = tr.grammar.rhs(tr.grammar.start());
  NodeId sep = rhs.root();
  SLG_CHECK_MSG(rhs.label(sep) == meta.sep, "forest root disturbed by repair");
  std::vector<NodeId> bodies;
  for (NodeId c = rhs.first_child(sep); c != kNilNode;
       c = rhs.next_sibling(c)) {
    bodies.push_back(c);
  }
  SLG_CHECK(bodies.size() == meta.rule_labels.size() + 1);
  auto copy_body = [&](NodeId src) {
    Tree body;
    NodeId root = body.CopySubtreeFrom(rhs, src);
    body.SetRoot(root);
    return body;
  };
  out.AddRule(meta.start, copy_body(bodies[0]));
  out.set_start(meta.start);
  for (size_t i = 0; i < meta.rule_labels.size(); ++i) {
    out.AddRule(meta.rule_labels[i], copy_body(bodies[i + 1]));
  }
  LabelId tr_start = tr.grammar.start();
  tr.grammar.ForEachRule([&](LabelId lhs, const Tree& body) {
    if (lhs == tr_start) return;
    Tree copy;
    NodeId root = copy.CopySubtreeFrom(body, body.root());
    copy.SetRoot(root);
    out.AddRule(lhs, std::move(copy));
  });
  return out;
}

}  // namespace

StatusOr<UdcResult> UdcSession::Run(const Grammar& g) {
  obs::TraceSpan span("udc.run");
  if (options_.mode == UdcOptions::Mode::kClassic) {
    return RunClassic(g, options_.tree_repair, options_.max_nodes);
  }

  UdcResult result;
  Timer timer;
  StatusOr<DagId> root = evaluator_.Eval(g, options_.max_nodes);
  if (!root.ok()) return root.status();
  result.decompress_seconds = timer.ElapsedSeconds();
  result.tree_nodes = evaluator_.pool().TreeSize(root.value());

  timer.Reset();
  DagForestOptions fopts;
  fopts.max_forest_nodes = options_.max_nodes;
  StatusOr<DagForest> forest =
      DagToForest(evaluator_.pool(), root.value(), g.labels(), fopts);
  if (!forest.ok()) return forest.status();
  result.dag_nodes =
      std::max(forest.value().reachable_nodes, forest.value().forest_nodes);
  TreeRepairResult tr =
      TreeRePair(std::move(forest.value().forest), forest.value().labels,
                 options_.tree_repair);
  result.grammar = SplitRepairedForest(forest.value(), std::move(tr));
  result.compress_seconds = timer.ElapsedSeconds();

  result.pool_nodes = evaluator_.pool().size();
  result.rules_reused = evaluator_.last_stats().rules_reused;
  return result;
}

StatusOr<UdcResult> UpdateDecompressCompress(const Grammar& g,
                                             const RepairOptions& options,
                                             int64_t max_nodes) {
  return RunClassic(g, options, max_nodes);
}

}  // namespace slg
