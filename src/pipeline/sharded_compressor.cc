#include "src/pipeline/sharded_compressor.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/grammar/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/merge.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/thread_pool.h"
#include "src/repair/pruning.h"
#include "src/repair/tree_repair.h"

namespace slg {

namespace {

// The kTopLevel final pass. Prune() first: it inlines every rule
// referenced once — in particular the whole P_1(P_2(...)) segment
// chain — into the start rule, so everything the partition cut apart
// is again adjacent in one tree. Then one TreeRePair over that tree,
// with the merged grammar's rules acting as opaque ranked terminals,
// replaces the digrams that straddled shard boundaries at tree-repair
// speed (bucketed index, O(1) deltas, no fragment-export engine). The
// fresh digram rules are grafted back into the grammar.
void TopLevelRepair(Grammar* g, const RepairOptions& shard_repair) {
  Prune(g);

  LabelId s = g->start();
  RepairOptions top_options = shard_repair;
  top_options.prune = true;  // per-rule savings are global here
  TreeRepairResult top =
      TreeRePair(Tree(g->rhs(s)), g->labels(), top_options);
  const Grammar& tg = top.grammar;
  const LabelTable& tt = tg.labels();

  // tg's label table extends g's: re-intern the appended labels in
  // order, so the fresh rules' bodies can be grafted without any
  // remapping (the Fresh()-name sequence is deterministic, hence the
  // ids must line up — checked).
  for (LabelId l = static_cast<LabelId>(g->labels().size());
       l < static_cast<LabelId>(tt.size()); ++l) {
    LabelId got = tt.ParamIndex(l) > 0
                      ? g->labels().Param(tt.ParamIndex(l))
                      : g->labels().Intern(tt.Name(l), tt.Rank(l));
    SLG_CHECK_MSG(got == l, "top-level repair label tables diverged");
  }
  for (LabelId r : tg.Nonterminals()) {
    if (r == tg.start()) continue;
    g->AddRule(r, Tree(tg.rhs(r)));
  }
  g->set_rhs(s, Tree(tg.rhs(tg.start())));
  Prune(g);
}

// The kFull tier's boundary-deepening pass: LocalizedGrammarRePair
// seeded at the start rule — after TopLevelRepair the merged P-chain
// boundary is exactly that known damage set. It resolves digrams
// *through* rule roots (which the opaque pass cannot see) and extends
// lazily into the shard rules those replacements reach, shrinking the
// cross-boundary repetition cheaply before the whole-grammar
// GrammarRePair pays fragment-export prices per round — measured, it
// cuts the kFull pass's wall-clock by roughly a quarter on the
// weak-compressing corpora, at a small size shift (the greedy
// boundary replacements are ones the whole-grammar pass cannot undo:
// ±0.8% on the committed BENCH_shard baselines — XMark +0.7%,
// Treebank +0.3%, Medline −1.9%).
int BoundaryDeepen(Grammar* g, const RepairOptions& shard_repair) {
  GrammarRepairOptions boundary;
  boundary.repair = shard_repair;
  boundary.repair.prune = true;
  boundary.repair.require_positive_savings = true;
  LabelId s = g->start();
  GrammarRepairResult r = LocalizedGrammarRePair(std::move(*g), {s}, boundary);
  *g = std::move(r.grammar);
  return r.rounds;
}

}  // namespace

ShardedCompressResult ShardedCompress(Tree t, const LabelTable& labels,
                                      const ShardedCompressorOptions& options) {
  // The registry histograms mirror the per-call ShardedCompressResult
  // timings: the struct attributes a single run (bench rows need the
  // per-corpus max), the histograms aggregate across every run in the
  // process.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Histogram& partition_us = reg.GetHistogram("pipeline.partition_us");
  static obs::Histogram& shard_us = reg.GetHistogram("pipeline.shard_us");
  static obs::Histogram& merge_us = reg.GetHistogram("pipeline.merge_us");
  static obs::Histogram& final_us = reg.GetHistogram("pipeline.final_us");

  obs::TraceSpan compress_span("pipeline.sharded_compress");
  int threads =
      options.num_threads > 0 ? options.num_threads : ThreadPool::HardwareThreads();
  int shards = options.num_shards > 0 ? options.num_shards : threads;

  ShardedCompressResult result;
  Timer phase;

  TreePartition partition;
  {
    obs::TraceSpan span("pipeline.partition");
    if (shards <= 1 || t.LiveCount() < options.min_shard_nodes) {
      // Single-shard fast path: no cut, no hole placement — adopt the
      // tree instead of paying PartitionTree's full copy.
      partition.labels = labels;
      partition.hole = partition.labels.Fresh("hole", 0);
      partition.total_nodes = t.LiveCount();
      partition.segments.push_back(std::move(t));
    } else {
      PartitionOptions popts;
      popts.num_shards = shards;
      popts.min_shard_nodes = options.min_shard_nodes;
      partition = PartitionTree(t, labels, popts);
    }
  }
  const int k = static_cast<int>(partition.segments.size());
  result.shards_used = k;
  result.threads_used = std::min(threads, k);
  result.partition_ms = phase.ElapsedMillis();
  partition_us.Record(static_cast<int64_t>(result.partition_ms * 1000.0));

  // Per-shard TreeRePair runs share nothing mutable: each one copies
  // the partition's label table and owns its segment tree and digram
  // index, so shards only rendezvous at the merge.
  std::vector<Grammar> shard_grammars(static_cast<size_t>(k));
  std::vector<int> shard_replaced(static_cast<size_t>(k), 0);
  std::vector<double> shard_ms(static_cast<size_t>(k), 0);
  const LabelTable& shard_labels = partition.labels;
  const RepairOptions& shard_repair = options.shard_repair;
  ParallelFor(k, result.threads_used, [&](int64_t i) {
    obs::TraceSpan span("pipeline.shard");
    Timer shard_timer;
    TreeRepairResult r =
        TreeRePair(std::move(partition.segments[static_cast<size_t>(i)]),
                   shard_labels, shard_repair);
    shard_grammars[static_cast<size_t>(i)] = std::move(r.grammar);
    shard_replaced[static_cast<size_t>(i)] = r.digrams_replaced;
    shard_ms[static_cast<size_t>(i)] = shard_timer.ElapsedMillis();
  });
  for (int r : shard_replaced) result.shard_replacements += r;
  for (double ms : shard_ms) {
    result.shard_sum_ms += ms;
    result.shard_max_ms = std::max(result.shard_max_ms, ms);
    shard_us.Record(static_cast<int64_t>(ms * 1000.0));
  }

  phase.Reset();
  Grammar merged;
  {
    obs::TraceSpan span("pipeline.merge");
    merged =
        MergeShardGrammars(shard_grammars, partition.labels, partition.hole);
    result.merged_edges_before_final = ComputeStats(merged).edge_count;
  }
  result.merge_ms = phase.ElapsedMillis();
  merge_us.Record(static_cast<int64_t>(result.merge_ms * 1000.0));

  phase.Reset();
  {
    obs::TraceSpan span("pipeline.final");
    TopLevelRepair(&merged, options.shard_repair);
    if (options.final_repair == FinalRepairMode::kFull) {
      result.final_rounds += BoundaryDeepen(&merged, options.shard_repair);
      GrammarRepairResult r =
          GrammarRePair(std::move(merged), options.merge_repair);
      merged = std::move(r.grammar);
      result.final_rounds += r.rounds;
    }
  }
  result.final_ms = phase.ElapsedMillis();
  final_us.Record(static_cast<int64_t>(result.final_ms * 1000.0));
  result.grammar = std::move(merged);
  return result;
}

ShardedCompressResult ShardedCompressForest(
    const std::vector<Tree>& docs, const LabelTable& labels,
    const ShardedCompressorOptions& options) {
  return ShardedCompress(ChainDocuments(docs), labels, options);
}

}  // namespace slg
