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
// Layout follows the bucketed Larsson-Moffat design of
// src/repair/digram_index.* (see docs/PERF.md): digrams are interned
// to dense ids once (a single open-addressing probe per operation —
// the only hashing anywhere), occurrences live in a free-listed pool
// of flat records threaded onto two intrusive doubly-linked lists
// (per digram and per generating rule), and every rule keeps a dense
// NodeId -> occurrence slot (a generator node stores at most one
// occurrence). Add/Remove/Drop/Adjust are O(1) per occurrence with no
// stale entries to compact. Counts are usage-weighted and saturate at
// kUsageCap, so the frequency buckets are hybrid: counts up to
// kBucketCap live in a dense bucket array (O(1) moves, MostFrequent
// walks down from the tracked maximum), larger counts live on one
// overflow list that MostFrequent scans first — exponential grammars
// have few astronomically-weighted digrams, so the scan is short.

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

  // Removes the occurrence with this generator, if stored under d.
  void RemoveGenerator(const Digram& d, RuleNode gen);

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
  std::optional<Digram> MostFrequent(const LabelTable& labels,
                                     const RepairOptions& options);

  uint64_t WeightedCount(const Digram& d) const;
  int64_t TotalOccurrences() const { return total_; }

 private:
  using DigramId = int32_t;
  using OccId = int32_t;
  static constexpr int32_t kNil = -1;
  // Weighted counts above this live on the overflow list instead of a
  // dense bucket slot (usage weights saturate at 2^62).
  static constexpr uint64_t kBucketCap = 4096;

  struct DigramInfo {
    Digram key;
    int rank = 0;  // DigramRank, fixed at interning time
    uint64_t count = 0;
    OccId occ_head = kNil;
    DigramId bucket_prev = kNil;
    DigramId bucket_next = kNil;  // bucket or overflow list, by count
  };

  struct Occ {
    DigramId digram = kNil;
    LabelId rule = kNoLabel;
    NodeId node = kNilNode;
    OccId dprev = kNil, dnext = kNil;  // per-digram occurrence list
    OccId rprev = kNil, rnext = kNil;  // per-rule occurrence list
  };

  // Per-rule bookkeeping: scan-time usage (the removal weight), the
  // intrusive list of this rule's stored occurrences (drives DropRule
  // and AdjustWeight exactly — no stale entries), and the dense
  // NodeId -> OccId slot table (a generator stores at most one
  // occurrence; drives Remove and the equal-label overlap checks).
  struct RuleBook {
    uint64_t scan_usage = 0;
    OccId head = kNil;
    std::vector<OccId> node_occ;
  };

  DigramId Intern(const Digram& d, const LabelTable& labels);
  DigramId Find(const Digram& d) const;  // kNil when never interned
  void GrowSlots();

  RuleBook& BookFor(LabelId rule);
  // The stored occurrence generated at rn, or kNil.
  OccId OccOf(RuleNode rn) const;

  void UnlinkDigram(OccId o);
  void UnlinkRule(OccId o);
  void FreeOcc(OccId o);

  // Moves digram `id` to the bucket (or overflow list) of its new
  // weighted count (0 = none).
  void SetCount(DigramId id, uint64_t count);

  void ScanRule(const Grammar& g, LabelId rule, uint64_t usage);

  std::vector<DigramInfo> digrams_;
  // Open-addressing intern table: slot holds DigramId + 1, 0 = empty.
  std::vector<int32_t> slots_;
  size_t slot_count_ = 0;  // interned digrams (load-factor bookkeeping)
  std::vector<Occ> occs_;
  std::vector<OccId> occ_free_;
  std::vector<RuleBook> books_;  // by LabelId of the generating rule
  // buckets_[c] = head of the list of digrams with weighted count c
  // (1 <= c <= kBucketCap); larger counts chain off overflow_head_.
  std::vector<DigramId> buckets_;
  DigramId overflow_head_ = kNil;
  uint64_t max_count_ = 0;  // maximum bucketed (<= kBucketCap) count
  int64_t total_ = 0;
};

}  // namespace slg

#endif  // SLG_CORE_RETRIEVE_OCCS_H_
