// Options of TreeRePair and GrammarRePair. Both apply max_rank,
// min_count and prune; only GrammarRePair applies
// require_positive_savings.

#ifndef SLG_REPAIR_REPAIR_OPTIONS_H_
#define SLG_REPAIR_REPAIR_OPTIONS_H_

namespace slg {

struct RepairOptions {
  // kin (paper §II): maximum rank of a digram that may be replaced,
  // i.e. the maximum parameter count of generated rules. TreeRePair's
  // default.
  int max_rank = 4;

  // Minimum number of (weighted) occurrences for a digram to be
  // "appropriate". The paper requires more than one occurrence.
  long long min_count = 2;

  // Run the pruning phase (§IV-D) after the replacement loop.
  bool prune = true;

  // Skip digrams whose replacement rule the pruning phase would remove
  // again (weighted count c with sav = c - rank(α) - 1 <= 0). The
  // paper replaces them and prunes afterwards; that is a no-op for the
  // final size but makes repeated recompression re-do the same
  // replace/prune churn every time. Recompression-heavy users (the
  // dynamic benches, CompressedXmlTree) turn this on; the default
  // keeps the paper's exact pipeline. GrammarRePair only: TreeRePair
  // selects without this filter (TreeDigramIndex::MostFrequent), so a
  // TreeRePair grammar does not depend on it.
  bool require_positive_savings = false;
};

}  // namespace slg

#endif  // SLG_REPAIR_REPAIR_OPTIONS_H_
