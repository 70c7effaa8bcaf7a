// ShardedCompressor — partition → per-shard TreeRePair → grammar
// merge → final cross-shard GrammarRePair.
//
// The sequential TreeRePair run is the wall-clock ceiling of every
// compression-heavy workflow here; this pipeline turns cores into
// compression throughput without changing grammar semantics: shards
// are compressed concurrently (each TreeRePair owns a private label
// table copy and digram index), merged into one grammar (label
// renumbering + rule dedup, see merge.h), and a final repair pass
// recovers the digrams the partition hid at shard boundaries (tiered,
// see FinalRepairMode). Results are deterministic for a fixed (input,
// num_shards) — thread count and scheduling only change wall-clock,
// never the output grammar (tests assert byte-identical
// serializations across thread counts).

#ifndef SLG_PIPELINE_SHARDED_COMPRESSOR_H_
#define SLG_PIPELINE_SHARDED_COMPRESSOR_H_

#include <cstdint>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/grammar/grammar.h"
#include "src/repair/repair_options.h"
#include "src/tree/label_table.h"
#include "src/tree/tree.h"

namespace slg {

// How hard the pipeline works to win back compression the partition
// hid from the per-shard runs. Measured trade-off (docs/PERF.md):
//  * kTopLevel  merge + dedup, a global prune (inlines the segment
//               chain into the start rule) and one TreeRePair over the
//               start rule with rules as opaque terminals — recovers
//               the digrams at shard boundaries, which all sit
//               top-level after the inlining. Costs a few percent of
//               the shard runs.
//  * kFull      + a boundary-deepening LocalizedGrammarRePair seeded
//               at the start rule (the merged P-chain boundary is
//               exactly that known damage set; it resolves digrams
//               through rule roots, which the opaque pass cannot see)
//               followed by a whole-grammar GrammarRePair, which also
//               merges repetition buried inside different shards' rule
//               bodies. Near single-run size, but each round pays the
//               fragment-export machinery — can cost many times the
//               shard runs; use when size matters more than speed.
enum class FinalRepairMode { kTopLevel, kFull };

struct ShardedCompressorOptions {
  ShardedCompressorOptions() {
    // Shard runs skip the pruning phase: pruning is a global
    // cost/benefit decision, and making it per shard deletes rules the
    // merge could have deduplicated across shards. The final
    // cross-shard pass prunes with whole-grammar reference counts.
    shard_repair.prune = false;
    // The kFull pass recompresses an already near-optimal grammar;
    // without this it replays the full replace-then-prune churn on
    // every marginal digram — thousands of rounds that pruning undoes
    // again. (Same reasoning as UpdateOptions.)
    merge_repair.repair.require_positive_savings = true;
  }

  // 0 = one shard per thread. The shard count — not the thread count —
  // determines the output grammar.
  int num_shards = 0;
  // 0 = all hardware threads.
  int num_threads = 0;
  // Trees below this size are compressed as a single shard.
  int min_shard_nodes = 2048;
  // Per-shard TreeRePair options.
  RepairOptions shard_repair;
  FinalRepairMode final_repair = FinalRepairMode::kTopLevel;
  // Options for the kFull whole-grammar pass (kTopLevel uses
  // shard_repair for the start-rule run, with pruning on).
  GrammarRepairOptions merge_repair;
};

struct ShardedCompressResult {
  Grammar grammar;
  int shards_used = 0;
  int threads_used = 0;
  // Replacements performed inside shards, summed.
  int64_t shard_replacements = 0;
  // Edge count of the merged grammar before the final repair pass —
  // the price of the partition that the final pass must win back.
  int64_t merged_edges_before_final = 0;
  int final_rounds = 0;
  // Phase wall-clock. shard_max_ms is the longest single shard run —
  // the parallel leg's critical path, so
  //   partition_ms + shard_max_ms + merge_ms + final_ms
  // estimates the wall-clock with one core per shard (when measured
  // with num_threads == 1, so shard timings don't include scheduler
  // interleaving). The benches report exactly that estimate.
  double partition_ms = 0;
  double shard_sum_ms = 0;
  double shard_max_ms = 0;
  double merge_ms = 0;
  double final_ms = 0;
};

// Compresses `t` (consumed); val(result.grammar) == t. `labels` must
// be the table t's labels come from.
ShardedCompressResult ShardedCompress(Tree t, const LabelTable& labels,
                                      const ShardedCompressorOptions& options = {});

// Forest entry point: compresses the sibling forest d1..dk (each a
// binary-encoded document whose root has an empty ⊥ next-sibling
// slot). val(result.grammar) is the next-sibling chain of the
// documents — the binary encoding of the forest.
ShardedCompressResult ShardedCompressForest(
    const std::vector<Tree>& docs, const LabelTable& labels,
    const ShardedCompressorOptions& options = {});

}  // namespace slg

#endif  // SLG_PIPELINE_SHARDED_COMPRESSOR_H_
