// Digram occurrence index over a single tree (the TreeRePair case).
//
// An occurrence of α = (a,i,b) is the pair (v, w) with w = v's i-th
// child; since the parent is unique, occurrences are keyed by v. The
// index keeps, per digram, the set of stored non-overlapping
// occurrences (greedy, children-before-parents as in TreeRePair [3])
// and supports the incremental neighbourhood updates of §IV-C.
//
// Interning, counts, frequency buckets and selection are the shared
// DigramTable (src/repair/digram_table.h); every occurrence weighs 1.
// What is the tree's own: a second intrusive list per parent node
// (Remove and the overlap checks find a node's occurrences in
// O(rank of its label)), the greedy equal-label rule, and Take's order
// by parent.

#ifndef SLG_REPAIR_DIGRAM_INDEX_H_
#define SLG_REPAIR_DIGRAM_INDEX_H_

#include <optional>
#include <vector>

#include "src/repair/digram.h"
#include "src/repair/digram_table.h"
#include "src/repair/repair_options.h"
#include "src/tree/tree.h"

namespace slg {

class TreeDigramIndex {
 public:
  explicit TreeDigramIndex(const LabelTable* labels) : labels_(labels) {}

  // Scans the whole tree (children before parents) and records the
  // greedy maximal non-overlapping occurrence sets.
  void Build(const Tree& t);

  // Records the occurrence (v, v.i). For equal-label digrams the
  // overlap rule is enforced: the occurrence is dropped if it would
  // share a node with a stored occurrence.
  void Add(const Tree& t, NodeId v, int child_index);

  // Removes the occurrence parented at v, if stored.
  void Remove(const Digram& d, NodeId v);

  // Extracts and clears the occurrence list of d (sorted by parent id
  // for deterministic replacement order).
  std::vector<NodeId> Take(const Digram& d);

  // Most frequent appropriate digram: count >= options.min_count and
  // rank <= options.max_rank; ties broken by lexicographically
  // smallest digram. Returns nullopt when none remains.
  // options.require_positive_savings is not applied: TreeRePair's
  // grammars stay byte-identical to the paper's pipeline, and whether
  // ingest shards should skip low-savings digrams is a compression
  // question of its own.
  std::optional<Digram> MostFrequent(const RepairOptions& options) {
    RepairOptions tree_options = options;
    tree_options.require_positive_savings = false;
    return table_.MostFrequent(tree_options);
  }

  long long Count(const Digram& d) const {
    return static_cast<long long>(table_.Count(d));
  }

  // Total number of stored occurrences over all digrams (diagnostics).
  long long TotalOccurrences() const { return table_.total(); }

 private:
  struct Occ {
    DigramId digram = kNilId;
    NodeId parent = kNilNode;
    NodeId child = kNilNode;
    OccId dprev = kNilId, dnext = kNilId;  // per-digram list (the table's)
    OccId nprev = kNilId, nnext = kNilId;  // per-parent-node list
  };

  // The occurrence of digram `id` parented at v, or kNilId. O(#digrams
  // parented at v) = O(rank of v's label): effectively constant.
  OccId OccOfNode(NodeId v, DigramId id) const;

  void LinkNode(OccId o);
  void UnlinkNode(OccId o);

  const LabelTable* labels_;
  DigramTable<Occ> table_;
  std::vector<OccId> node_head_;  // by NodeId; kNilId when none
};

}  // namespace slg

#endif  // SLG_REPAIR_DIGRAM_INDEX_H_
