// Batched update engine (paper §V-C macro loop, amortized).
//
// The atomic operations in update_ops.h pay a full RuleIndex build per
// call, and DeleteSubtree garbage collects after every single delete.
// Applying a workload through a BatchUpdater instead amortizes all of
// that across the batch:
//
//  * one RuleIndex of the grammar as the batch found it, read for the
//    whole batch — rule-set shape never changes between operations
//    (isolation only inlines into the start rule's interior; garbage
//    collection is deferred), so the index stays valid for every rule.
//    Labels at or past its num_labels() can only be terminals the
//    batch interned (rename targets, insert fragments): the updater
//    reads them as such (SegTotal 1, no rule, no parameter). A seeded
//    updater borrows the index of the snapshot the grammar was cloned
//    from; an unseeded one builds one on the first operation. Either
//    way the updater seeds itself from it the same way (the start
//    rule's static sizes and call counts, RuleIndex::StaticSizes /
//    StartCalls);
//  * the derived-subtree-size table of the start rule is maintained
//    incrementally: an edit recomputes the sizes of the fresh nodes it
//    introduces plus the root-to-edit-point spine, O(depth) instead of
//    O(|rhs|) per operation;
//  * garbage collection runs once, in Finish(), instead of per
//    delete — and from call counts the batch keeps current (the
//    index's counts outside the start rule plus the start rule's
//    own, adjusted by every inline and delete), so it costs the rules
//    it visits, not a pass over the grammar.
//
// The sequence of tree edits is identical to applying the operations
// one at a time — only index reuse and garbage-collection timing are
// amortized — so the resulting grammar derives the same document
// (tests assert the grammars are in fact identical).

#ifndef SLG_UPDATE_BATCH_H_
#define SLG_UPDATE_BATCH_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_index.h"
#include "src/workload/update_workload.h"

namespace slg {

class BatchUpdater {
 public:
  // Borrows g for the lifetime of the batch. Between the first
  // operation and Finish(), the grammar must not be mutated except
  // through this updater.
  explicit BatchUpdater(Grammar* g) : g_(g) {}

  // Seeded: borrows `index`, the RuleIndex of *g as it stands (that of
  // the snapshot g was cloned from), until Finish(), so the updater
  // builds nothing.
  BatchUpdater(Grammar* g, const RuleIndex* index) : g_(g) { Seed(index); }

  // Same semantics (and same edit sequence on the start rule) as
  // RenameNode / InsertTreeBefore / DeleteSubtree in update_ops.h,
  // minus the per-operation index and garbage-collection costs.
  Status Rename(int64_t preorder, std::string_view new_label);
  Status InsertBefore(int64_t preorder, const Tree& fragment);
  Status Delete(int64_t preorder);

  // Dispatches a workload operation (insert, delete or rename).
  Status Apply(const UpdateOp& op);

  // Makes the node at `preorder` of val(G) terminally available in
  // the start rule and returns its NodeId there — path isolation
  // against the batch's index. Also the batched counterpart of
  // ReadLabel-style inspection; the atomic operations in update_ops.cc
  // are thin one-op batches over this and the edit methods above.
  StatusOr<NodeId> Isolate(int64_t preorder);

  // The static sizes of the start rule's nodes by NodeId, as the edits
  // left them (entries of freed nodes are stale), moved out. Call
  // after the last operation and before Finish(); the seed for the
  // child snapshot's index.
  std::vector<int64_t> TakeStartSizes() { return std::move(derived_); }

  // Ends the batch: drops the index and garbage-collects rules
  // stranded by deletes. Returns the number of rules removed. The
  // updater is reusable afterwards (a new index is built on the next
  // operation). Damage accounting survives Finish() — a
  // checkpoint driver reads it after finishing and clears it with
  // ResetDamage().
  int Finish();

  // --- damage accounting (input to LocalizedGrammarRePair) --------------
  // The damage set, in first-damaged order: the start rule (every edit
  // path rewrites its interior) plus the usage frontier — each rule
  // whose body isolation inlined into the start rule. The frontier
  // matters for recompression quality: an inlined body sits duplicated
  // in the start rule, and only a repair that also sees the rule's own
  // occurrences can fold the copy back in (the cross digrams otherwise
  // never reach their true counts).
  const std::vector<LabelId>& DamagedRules() const { return damage_; }

  // Gross number of fresh nodes materialized in the start rule since
  // the last ResetDamage(): inlined rule bodies (isolation partially
  // decompresses; the argument subtrees an inline moves into the copy
  // were already there and do not count) plus copied insert fragments. This measures how much
  // un-compressed material the batch has accumulated — the adaptive
  // recompression trigger compares it against the grammar size.
  int64_t EdgesAdded() const { return edges_added_; }

  void ResetDamage() {
    damage_.clear();
    damage_seen_.clear();
    edges_added_ = 0;
  }

 private:
  // Reads `index` for the batch: the start rule's sizes and call
  // counts are copied out of it.
  void Seed(const RuleIndex* index);
  // Builds and seeds from an index of *g_ unless the batch has one.
  void EnsureIndex();

  // Per-label facts of the index, for any label of *g_: labels past
  // the index's table are terminals this batch interned.
  bool IsRule(LabelId l) const {
    return l < index_->num_labels() && index_->IsNonterminal(l);
  }
  int64_t SegTotal(LabelId l) const {
    return l < index_->num_labels() ? index_->SegTotal(l) : 1;
  }

  // Bottom-up derived sizes for a freshly created subtree (inlined
  // rule body or copied insert fragment), counted into EdgesAdded. The
  // `moved` subtrees (an inlined call's arguments, spliced into the
  // copy) are not fresh: their sizes stand and they are not counted.
  void ComputeDerivedFresh(NodeId subtree_root,
                           const std::vector<NodeId>& moved = {});
  // Re-derives sizes along the spine from `from` to the root after an
  // edit below `from` changed subtree sizes.
  void RecomputeUpward(NodeId from);

  int64_t derived_of(NodeId v) const {
    return derived_[static_cast<size_t>(v)];
  }

  void NoteDamage(LabelId rule);
  // Adds `delta` to start_calls_ for every call node in the subtree.
  void CountStartCalls(const Tree& t, NodeId subtree_root, int32_t delta);

  Grammar* g_;
  const RuleIndex* index_ = nullptr;     // null outside a batch
  std::unique_ptr<const RuleIndex> owned_;  // an unseeded batch's index
  std::vector<int64_t> derived_;  // by NodeId of the start rule's rhs
  // Call sites of each rule in the start rule, by LabelId (labels past
  // its end: none).
  std::vector<int32_t> start_calls_;
  std::vector<LabelId> damage_;
  std::unordered_set<LabelId> damage_seen_;
  int64_t edges_added_ = 0;
};

struct BatchResult {
  Grammar grammar;
  int rules_collected = 0;
  int repair_rounds = 0;
  // Number of operations applied before each checkpoint recompression
  // fired (the final end-of-workload recompression included). A pure
  // function of (grammar, ops, options) — the determinism tests replay
  // a workload and assert the schedule is identical.
  std::vector<int> checkpoint_schedule;
};

// Applies every operation of `ops` through one BatchUpdater,
// garbage-collecting once per checkpoint and recompressing per
// `options`: mid-workload whenever RecompressDue fires (never with the
// default growth_trigger of 0), and once at the end of the workload.
// Checkpoints repair the grammar in place without compacting it, so
// the NodeIds the repair's tie-breaks see are the updater's. Fails on
// the first inapplicable operation.
StatusOr<BatchResult> ApplyWorkloadBatched(Grammar g,
                                           const std::vector<UpdateOp>& ops,
                                           const UpdateOptions& options);

}  // namespace slg

#endif  // SLG_UPDATE_BATCH_H_
