// The two public option structs every top-level entry point shares.
//
// The old CompressedXmlTreeOptions aggregated initial-compression
// knobs (thread/shard counts) and update-path knobs (localized
// recompression, auto-recompress cadence) in one ad-hoc bag. The split
// below is the single source of truth:
//
//   CompressOptions — how a document is compressed *once*, on ingest
//     (FromXml): the repair pipeline configuration and the sharded-
//     pipeline shape. Consumed by CompressedXmlTree::FromXml,
//     DocumentService::FromXml and nothing else.
//
//   UpdateOptions — how an already-compressed document regains
//     compression as updates accumulate: which repair to run
//     (localized vs full), when to run it (growth trigger + op floor),
//     and the repair configuration itself. Consumed verbatim by
//     CompressedXmlTree and ServiceOptions, so a document moved
//     between the two surfaces keeps identical recompression behavior.
//
// Both constructors enable RepairOptions::require_positive_savings:
// documents on these paths get recompressed repeatedly, so the
// replace-then-prune churn is never worth it.

#ifndef SLG_API_OPTIONS_H_
#define SLG_API_OPTIONS_H_

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
  // grammar's edge count at that repair. <= 0 disables the automatic
  // trigger (recompression happens only when explicitly requested —
  // Recompress() or Flush(), depending on the surface). Each surface
  // picks its own default: the in-memory facade leaves it off, the
  // service constructs with 0.5.
  double growth_trigger = 0.0;
  // Floor between adaptive recompressions: even when the growth
  // trigger is exceeded, at least this many operations must have been
  // applied since the last repair. On strongly-compressing documents a
  // single isolation can add more material than the whole
  // (logarithmic) grammar holds, so a bare fraction trigger would
  // recompress every other op.
  int min_checkpoint_ops = 64;

  // CompressedXmlTree only: if > 0, Rename/Insert/Delete trigger
  // Recompress() automatically after this many updates (an op-count
  // cadence, predating — and independent of — the growth trigger).
  int auto_recompress_every = 0;
};

}  // namespace slg

#endif  // SLG_API_OPTIONS_H_
