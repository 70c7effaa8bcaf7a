// Merge pass of the sharded compression pipeline: unify per-shard
// grammars into one SLCF grammar deriving the original tree.
//
// Every shard grammar was produced by TreeRePair over one spine
// segment, starting from the same label table (the partition's), so
// terminal LabelIds agree across shards while the fresh digram
// nonterminals ("X...") collide by id and by name. The merge
//  * seeds one label table from the partition's (terminals keep their
//    ids — and minting fresh rule names afterwards can never collide
//    with a document tag spelled "P0"/"X0") and renumbers every shard
//    nonterminal to a fresh merged label;
//  * turns shard i's start rule into P_i: rank 1 for inner segments
//    (the hole leaf becomes parameter y1), rank 0 for the last;
//  * stitches the cut spine back with start-rule composition:
//    S -> P_1(P_2(...P_k)).
//
// The result is valid (Validate passes) and val(G) is the partition's
// source tree, but digrams that straddled shard boundaries are still
// unreplaced — that is the final cross-shard GrammarRePair's job (see
// sharded_compressor.h and docs/PIPELINE.md). Any RuleIndex a consumer
// holds for the shard grammars is meaningless for the merged grammar:
// ids were renumbered, so the index must be built from the merge
// result (consumers build it from the grammar they hold, so this
// happens naturally).

#ifndef SLG_PIPELINE_MERGE_H_
#define SLG_PIPELINE_MERGE_H_

#include <vector>

#include "src/grammar/grammar.h"
#include "src/tree/label_table.h"

namespace slg {

// `shards[i]` compresses spine segment i; `base` is the partition's
// label table (every shard table extends it) and `hole` its hole
// label. Inner shards' start rules must contain the hole exactly once
// (the partitioner guarantees the segment does; TreeRePair never folds
// a once-occurring label into a rule, so it survives compression in
// the start rule). Identical rules are deduplicated (below) before
// returning.
Grammar MergeShardGrammars(const std::vector<Grammar>& shards,
                           const LabelTable& base, LabelId hole);

// Unifies rules with node-for-node identical right-hand sides,
// repeating until a fixpoint (unifying leaves can make their callers
// identical). Shards compress near-identical segments with the same
// deterministic algorithm, so they recreate the same rule towers under
// different labels — repetition that digram replacement can never see,
// because RePair compares labels, not derivations. Run on a freshly
// merged grammar before the final repair pass. Returns the number of
// rules removed; never touches the start rule.
int DedupIdenticalRules(Grammar* g);

// Stronger unification: rules whose *derived patterns* (val with the
// rule's own parameters as leaves) are equal, even when their bodies
// decompose that pattern differently — the common case across shards,
// where slightly different digram frequencies make TreeRePair pick a
// different factorization of the same record shapes. Sound by
// definition: two derived-equal rules are interchangeable at every
// call site. Candidates are bucketed by (rank, derived-pattern size),
// so only same-size patterns are ever walked, with an early-exit
// lockstep walk; patterns above an internal size cap stay unshared.
// Returns the number of rules removed; never touches the start rule.
int DedupEquivalentRules(Grammar* g);

}  // namespace slg

#endif  // SLG_PIPELINE_MERGE_H_
