// Pruning phase (paper §IV-D): removes unproductive rules.
//
// sav_G(R) = |ref_G(R)| * (size(t_R) - rank(R)) - size(t_R), with
// size(t) = #edges of t. A rule with sav < 0 costs more than it saves
// and is inlined away. Following TreeRePair's greedy strategy, rules
// referenced exactly once are removed first (always profitable), then
// rules are analyzed in anti-SL order, since inlining Q into R changes
// size(t_R) and thus sav(R).
//
// Cost: one walk of the grammar builds a call-site book (every call's
// host rule and node), kept current across removals; inlining a rule
// away then costs its body and its call sites, not a walk of its hosts.
// A host is walked again only to restore the preorder of a call list
// that took copies out of order, before that rule's next multi-site
// inline: 4 walks for 523 inlines when pruning a treebank 0.25 merge
// (docs/PERF.md).

#ifndef SLG_REPAIR_PRUNING_H_
#define SLG_REPAIR_PRUNING_H_

#include <cstdint>

#include "src/grammar/grammar.h"

namespace slg {

// sav value for rule r under current reference count `refs`.
long long SavValue(const Grammar& g, LabelId r, int refs);

// What one Prune did: rules inlined away, and host bodies walked to
// put a call list back in preorder.
struct PruneStats {
  int64_t inlines = 0;
  int64_t host_walks = 0;
};

// Prunes the grammar in place. Never removes the start rule. Preserves
// val(G). Inlines at each rule's call sites host by host (ascending),
// in preorder within a host, so the NodeIds are those of inlining each
// host's calls in the order a walk finds them.
PruneStats Prune(Grammar* g);

}  // namespace slg

#endif  // SLG_REPAIR_PRUNING_H_
