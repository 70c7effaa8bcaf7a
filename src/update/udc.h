// The update-decompress-compress (udc) baseline (paper §V-C): the best
// previously known way to regain compression after updates — fully
// decompress the (updated) grammar and recompress from scratch.
// GrammarRePair's claim is to beat this in time and space while
// matching its compression.
//
// Two baseline strengths are provided, selected by UdcOptions::mode:
//
//  * kClassic — the paper's literal baseline: materialize val(G) as a
//    tree and run TreeRePair over it. Peak space is the full document.
//  * kDagShared — the strongest udc we can build from prior work:
//    decompress to a *minimal DAG* (hash-consed streaming evaluation,
//    src/dag/value_dag.h) with the Buneman/Grohe/Koch DAG as front
//    end; a UdcSession kept across rounds shares the subtree pool, so
//    round N+1 only re-expands the spine the batch's updates damaged.
//    The compress leg emits a cut forest over the DAG's highest-savings
//    shared subtrees (DagToForest, shaped by DagForestOptions'
//    defaults) and runs one TreeRePair pass over it — tree-repair
//    rounds over an input a sharing-factor smaller than the document.
//    Few big cuts beat full sharing: every rule is a boundary digrams
//    cannot cross (docs/PERF.md, "DAG-shared udc baseline").
//
// Keeping both modes lets the benches report the paper's comparison
// and the harsher DAG-shared variant side by side.

#ifndef SLG_UPDATE_UDC_H_
#define SLG_UPDATE_UDC_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/dag/value_dag.h"
#include "src/grammar/grammar.h"
#include "src/grammar/value.h"
#include "src/repair/repair_options.h"

namespace slg {

struct UdcOptions {
  enum class Mode {
    kClassic,    // decompress to a tree, TreeRePair
    kDagShared,  // decompress to a minimal DAG
  };
  Mode mode = Mode::kClassic;

  // Compress leg: TreeRePair over the tree (classic) or the cut forest
  // (DAG mode).
  RepairOptions tree_repair;

  // Decompression budget: materialized tree nodes (classic); live
  // subtree-pool nodes across the session plus the compress-leg
  // forest (DAG mode).
  int64_t max_nodes = kDefaultValueBudget;
};

struct UdcResult {
  Grammar grammar;
  double decompress_seconds = 0;
  double compress_seconds = 0;
  // Node count of val(G). Classic mode materializes exactly this many
  // nodes — its peak space; DAG mode only computes it (saturating at
  // kSizeCap), the tree never exists.
  int64_t tree_nodes = 0;
  // DAG mode: peak working-set nodes this round — the reachable
  // sub-DAG, or the cut forest the forest compressor materializes,
  // whichever is larger. The number to compare against classic
  // `tree_nodes`. 0 in classic.
  int64_t dag_nodes = 0;
  // DAG mode: cumulative subtree-pool size of the session after this
  // round. 0 in classic.
  int64_t pool_nodes = 0;
  // DAG mode: rules whose expansions were reused from earlier rounds
  // of the same session (0 for round one / classic).
  int64_t rules_reused = 0;
};

// A stateful udc baseline. Classic mode is stateless per round; DAG
// mode keeps the subtree pool and per-rule expansion memos alive
// across Run() calls, so successive rounds on an evolving grammar only
// pay for the damage. The result grammar for a given input is
// byte-identical whether the session is fresh or warm.
class UdcSession {
 public:
  explicit UdcSession(UdcOptions options = {}) : options_(options) {}

  // Decompresses `g` and recompresses per the session mode. Fails
  // (OutOfRange) when the decompression budget is exceeded.
  StatusOr<UdcResult> Run(const Grammar& g);

  const UdcOptions& options() const { return options_; }

 private:
  UdcOptions options_;
  DagEvaluator evaluator_;  // cross-round pool (DAG mode only)
};

// One-shot classic udc (the original baseline entry point).
// Equivalent to UdcSession{kClassic}.Run(g).
StatusOr<UdcResult> UpdateDecompressCompress(
    const Grammar& g, const RepairOptions& options = {},
    int64_t max_nodes = kDefaultValueBudget);

}  // namespace slg

#endif  // SLG_UPDATE_UDC_H_
