// RETRIEVEOCCS (paper Algorithm 4) and the weighted digram occurrence
// index over an SLCF grammar.
//
// Occurrences are stored by their *generator* node (C, n) — the
// implementation counterpart of occ_G(α) — with weight usage_G(C) (the
// number of tree occurrences the generator stands for). The index
// supports full builds, partial rescans of a set of rules (the
// incremental counting mode), weight adjustment when usage changes
// without structural change, and most-frequent selection.
//
// The paper's overlap discipline for equal-label digrams (Alg. 4 lines
// 9-11) is implemented verbatim:
//  * an occurrence whose generator is a nonterminal and whose labels
//    are equal (a crossing at a rule root) is never stored;
//  * a terminal generator is stored only if its tree parent is not
//    itself a stored generator of the same digram.
//
// Interning, counts, frequency buckets and selection are the shared
// DigramTable (src/repair/digram_table.h), with usage weights adding
// through UsageSatAdd. What is the grammar's own: the per-rule
// RuleBook, the two overlap checks of AddGenerator, and Take's
// (rule, node) order.

#ifndef SLG_CORE_RETRIEVE_OCCS_H_
#define SLG_CORE_RETRIEVE_OCCS_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/tree_links.h"
#include "src/grammar/grammar.h"
#include "src/grammar/usage.h"
#include "src/repair/digram.h"
#include "src/repair/digram_table.h"
#include "src/repair/repair_options.h"

namespace slg {

class GrammarDigramIndex {
 public:
  GrammarDigramIndex() = default;

  // Full build: scans every rule in anti-SL order. Usage is a dense
  // array indexed by LabelId (CallGraphCache::usage()); anti_sl_order
  // must be a valid anti-SL order of g's rules. The map overload is a
  // test/bench convenience that derives both.
  void Build(const Grammar& g, const std::vector<uint64_t>& usage,
             const std::vector<LabelId>& anti_sl_order);
  void Build(const Grammar& g,
             const std::unordered_map<LabelId, uint64_t>& usage);

  // Drops every stored occurrence generated in `rule`.
  void DropRule(LabelId rule);

  // Rescans the given rules, in the given order — the caller provides
  // them already duplicate-free and in anti-SL order (the equal-label
  // membership check may consult callee entries), so the index never
  // walks the full rule set. Previous entries must have been dropped.
  void RescanRules(const Grammar& g, const std::vector<uint64_t>& usage,
                   const std::vector<LabelId>& rules);

  // Adjusts weights of `rule`'s stored occurrences after usage changed
  // from its scan-time value to new_usage (no structural change).
  void AdjustWeight(LabelId rule, uint64_t new_usage);

  // --- per-occurrence delta updates (paper §IV-C) -----------------------
  // Used by the driver for "pure local" replacement rounds (every
  // occurrence of the round lives in one rule with terminal endpoints),
  // where rescanning the whole rule would dominate: only the
  // neighbourhood of each replaced occurrence is touched.

  // Considers the single generator (Alg. 4 body for one node): computes
  // its digram via TREEPARENT/TREECHILD and stores it unless the
  // equal-label overlap rules reject it.
  void AddGenerator(const Grammar& g, RuleNode gen, uint64_t usage);

  // Removes whatever occurrence is stored at this generator node, if
  // any — the stored record knows its digram, so the caller does not
  // have to re-derive the (possibly already stale) key. This is the
  // workhorse of the localized driver's tracked-rule deltas: before a
  // region of the start rule is restructured, every stored occurrence
  // adjacent to it is dropped by node id alone.
  void RemoveGeneratorAt(RuleNode gen);

  // Extracts and clears the generator list of d, sorted
  // deterministically by (rule, node).
  std::vector<RuleNode> Take(const Digram& d);

  // Most frequent appropriate digram under `options`, or nullopt.
  // Deterministic: among all digrams with the maximal weighted count,
  // the lexicographically smallest eligible one — a pure function of
  // the current count table, which the mode-equivalence tests and
  // the lockstep test against the reference index rely on.
  std::optional<Digram> MostFrequent(const RepairOptions& options) {
    return table_.MostFrequent(options);
  }

  uint64_t WeightedCount(const Digram& d) const { return table_.Count(d); }
  int64_t TotalOccurrences() const { return table_.total(); }

 private:
  struct Occ {
    DigramId digram = kNilId;
    LabelId rule = kNoLabel;
    NodeId node = kNilNode;
    OccId dprev = kNilId, dnext = kNilId;  // per-digram list (the table's)
    OccId rprev = kNilId, rnext = kNilId;  // per-rule occurrence list
  };

  // Per-rule bookkeeping: scan-time usage (the removal weight), the
  // intrusive list of this rule's stored occurrences (drives DropRule
  // and AdjustWeight exactly — no stale entries), and the dense
  // NodeId -> OccId slot table (a generator stores at most one
  // occurrence; drives RemoveGeneratorAt and the equal-label overlap
  // checks).
  struct RuleBook {
    uint64_t scan_usage = 0;
    OccId head = kNilId;
    std::vector<OccId> node_occ;
  };

  RuleBook& BookFor(LabelId rule);
  // The stored occurrence generated at rn, or kNilId.
  OccId OccOf(RuleNode rn) const;
  void UnlinkRule(OccId o);

  void ScanRule(const Grammar& g, LabelId rule, uint64_t usage);

  DigramTable<Occ> table_;
  std::vector<RuleBook> books_;  // by LabelId of the generating rule
};

}  // namespace slg

#endif  // SLG_CORE_RETRIEVE_OCCS_H_
