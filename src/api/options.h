// The two public option structs every top-level entry point shares.
//
//   CompressOptions — how a document is compressed *once*, on ingest
//     (FromXml): the repair pipeline configuration and the sharded-
//     pipeline shape. Consumed by CompressedXmlTree::FromXml,
//     DocumentService::FromXml and nothing else.
//
//   UpdateOptions — how an already-compressed document regains
//     compression as updates accumulate: which repair to run
//     (localized vs full), when to run it (growth trigger + op floor,
//     decided by RecompressDue), and the repair configuration itself.
//     The one recompression policy of every update surface:
//     CompressedXmlTree, ServiceOptions and ApplyWorkloadBatched all
//     take it and decide with the same predicate, so a document moved
//     between them keeps identical recompression behavior.
//
// Both constructors enable RepairOptions::require_positive_savings:
// documents on these paths get recompressed repeatedly, so the
// replace-then-prune churn is never worth it.

#ifndef SLG_API_OPTIONS_H_
#define SLG_API_OPTIONS_H_

#include <cstdint>

#include "src/core/grammar_repair.h"

namespace slg {

struct CompressOptions {
  CompressOptions() { repair.repair.require_positive_savings = true; }

  // Governs every repair the ingest pipeline runs: the sequential
  // GrammarRePair, or — on the sharded path — the per-shard runs (its
  // RepairOptions, with pruning re-disabled, a pipeline invariant) and
  // the top-level merge pass (the whole struct).
  GrammarRepairOptions repair;

  // Values > 1 route through the sharded parallel pipeline
  // (src/pipeline/sharded_compressor.h) — partition, per-shard
  // TreeRePair on num_threads threads, merge, final boundary repair.
  // num_threads == 0 uses all hardware threads; num_shards == 0 means
  // one shard per thread. The output grammar depends on the shard
  // count, never on the thread count: num_shards == 1 keeps the
  // sequential GrammarRePair path whatever num_threads says, and
  // num_shards == 0 ties the shard count to the (resolved) thread
  // count — pin num_shards for machine-independent output. The
  // default (1 thread, 0 shards) is the sequential path.
  int num_threads = 1;
  int num_shards = 0;
};

struct UpdateOptions {
  UpdateOptions() { repair.repair.require_positive_savings = true; }

  // Recompressions run the damage-localized repair seeded from the
  // accumulated damage sets (BatchUpdater::DamagedRules) — cost
  // proportional to the damage, final size within a few percent of a
  // full GrammarRePair (see LocalizedGrammarRePair). Off runs the full
  // paper pipeline every time.
  bool localized = true;
  GrammarRepairOptions repair;

  // Adaptive recompression trigger: recompress when the gross edges
  // added since the last repair (isolation inlining + insert
  // fragments, BatchUpdater::EdgesAdded) exceed this fraction of the
  // grammar's edge count at that repair. Cheap periods — ops that
  // isolate shallow paths and add little — accumulate for free; heavy
  // damage recompresses promptly, independent of op count. <= 0
  // disables the automatic trigger: recompression happens only when
  // explicitly requested (CompressedXmlTree::Recompress,
  // DocumentService::Flush, the end of ApplyWorkloadBatched's
  // workload). The facade and the workload driver leave it off by
  // default, the service constructs with 0.5.
  double growth_trigger = 0.0;
  // Floor between adaptive recompressions: even when the growth
  // trigger is exceeded, at least this many operations must have been
  // applied since the last repair. One isolation inlines the body of
  // every rule on its root-to-target path, and on strongly-compressing
  // documents those bodies are a large share of the small
  // (logarithmic) grammar, so a bare fraction trigger would recompress
  // every few ops — each mini-repair then mints a few churn rules the
  // next one has to chew through, which is both slower and larger than
  // letting damage accumulate a little.
  int min_checkpoint_ops = 64;
};

// The adaptive trigger: true when `ops_since` operations that added
// `edges_added` gross edges since the last repair, on a grammar of
// `base_edges` edges at that repair, call for the next one.
inline bool RecompressDue(const UpdateOptions& options, int64_t ops_since,
                          int64_t edges_added, int64_t base_edges) {
  return options.growth_trigger > 0 &&
         ops_since >= options.min_checkpoint_ops &&
         static_cast<double>(edges_added) >
             options.growth_trigger * static_cast<double>(base_edges);
}

}  // namespace slg

#endif  // SLG_API_OPTIONS_H_
